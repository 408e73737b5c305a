package objmig

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/core"
)

// skewResult is one skewed-workload run's outcome.
type skewResult struct {
	atHot           int   // objects hosted at the dominant caller afterwards
	objects         int   // total objects
	hotRemoteCalls  int64 // RemoteCallsSent by the dominant caller
	autopilotEvents int64 // EventAutopilot emissions across the cluster
}

// runSkewedWorkload drives the acceptance workload: three nodes, ten
// objects created on n0, and a 90/10 caller skew between n1 (hot) and
// n2 (cold). The exact same call sequence runs with the autopilot on
// or off so the two runs' RemoteCallsSent are comparable.
func runSkewedWorkload(t *testing.T, autopilotOn bool) skewResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var apEvents atomic.Int64
	cfg := Config{Observer: func(e Event) {
		if e.Kind == EventAutopilot {
			apEvents.Add(1)
		}
	}}
	nodes := testCluster(t, 3, cfg)
	if autopilotOn {
		for _, n := range nodes {
			err := n.EnableAutopilot(AutopilotConfig{
				Interval:      5 * time.Millisecond,
				MinTotal:      12,
				Hysteresis:    1.3,
				Cooldown:      250 * time.Millisecond,
				BudgetPerTick: 8,
				DecayEvery:    -1, // keep counters warm for the whole run
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	const (
		objects = 10
		rounds  = 60
	)
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, nodes[0])
	}
	hot, cold := nodes[1], nodes[2]
	for r := 0; r < rounds; r++ {
		for _, ref := range refs {
			for i := 0; i < 9; i++ {
				if _, err := Call[int, int](ctx, hot, ref, "Add", 1); err != nil {
					t.Fatalf("hot call: %v", err)
				}
			}
			if _, err := Call[int, int](ctx, cold, ref, "Add", 1); err != nil {
				t.Fatalf("cold call: %v", err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	countAtHot := func() int {
		at := 0
		for _, ref := range refs {
			loc, err := nodes[0].Locate(ctx, ref)
			if err != nil {
				t.Fatalf("locate: %v", err)
			}
			if loc == hot.ID() {
				at++
			}
		}
		return at
	}
	atHot := countAtHot()
	if autopilotOn {
		// The counters stay warm (no decay), so stragglers keep
		// migrating after the workload; give them a settling window.
		deadline := time.Now().Add(20 * time.Second)
		for atHot < (objects*8+9)/10 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			atHot = countAtHot()
		}
	}
	return skewResult{
		atHot:           atHot,
		objects:         objects,
		hotRemoteCalls:  hot.Stats().RemoteCallsSent,
		autopilotEvents: apEvents.Load(),
	}
}

// TestAutopilotConvergesSkewedWorkload is the subsystem's acceptance
// test: under a 90/10 caller skew, ≥80% of the hot objects must end up
// hosted on the dominant caller's node, and that node's RemoteCallsSent
// must drop versus the identical workload without the autopilot.
func TestAutopilotConvergesSkewedWorkload(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skewed-workload convergence test is slow")
	}
	off := runSkewedWorkload(t, false)
	on := runSkewedWorkload(t, true)

	if off.atHot != 0 {
		t.Fatalf("autopilot-off run migrated %d objects (nothing should move)", off.atHot)
	}
	if want := (on.objects*8 + 9) / 10; on.atHot < want {
		t.Fatalf("autopilot converged %d/%d objects onto the hot node, want ≥ %d",
			on.atHot, on.objects, want)
	}
	if on.autopilotEvents == 0 {
		t.Fatal("no EventAutopilot was emitted")
	}
	// The hot node's calls became local serves after convergence; its
	// remote-call volume must drop decisively (the acceptance bound is
	// any drop; assert a 2x margin so regressions are loud).
	if on.hotRemoteCalls*2 > off.hotRemoteCalls {
		t.Fatalf("RemoteCallsSent with autopilot = %d, without = %d; want < half",
			on.hotRemoteCalls, off.hotRemoteCalls)
	}
}

// TestAutopilotNoPingPongBetweenEqualCallers: two callers with exactly
// equal pressure must never trigger a migration — the hysteresis (and
// the strict-domination rule) keeps the object put.
func TestAutopilotNoPingPongBetweenEqualCallers(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	for _, n := range nodes {
		err := n.EnableAutopilot(AutopilotConfig{
			Interval:      5 * time.Millisecond,
			MinTotal:      10,
			Hysteresis:    1.5,
			Cooldown:      50 * time.Millisecond,
			BudgetPerTick: 8,
			DecayEvery:    -1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ref := mustCreate(t, nodes[0])
	for r := 0; r < 40; r++ {
		for i := 0; i < 5; i++ {
			if _, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err != nil {
				t.Fatal(err)
			}
			if _, err := Call[int, int](ctx, nodes[2], ref, "Add", 1); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	var migrations int64
	for _, n := range nodes {
		migrations += n.Stats().AutopilotMigrations
	}
	if migrations != 0 {
		t.Fatalf("equally hot callers caused %d autopilot migrations", migrations)
	}
	if at, err := nodes[0].Locate(ctx, ref); err != nil || at != "n0" {
		t.Fatalf("object moved to %v (%v), want n0", at, err)
	}
}

// TestAutopilotCooldown checks the per-object cooldown bookkeeping.
func TestAutopilotCooldown(t *testing.T) {
	t.Parallel()
	cool := newCooldowns(time.Hour)
	obj := core.OID{Origin: "n0", Seq: 1}
	now := time.Now()
	if cool.on(obj, now) {
		t.Fatal("fresh object on cooldown")
	}
	cool.set(obj, now)
	if !cool.on(obj, now.Add(30*time.Minute)) {
		t.Fatal("cooldown expired too early")
	}
	if cool.on(obj, now.Add(2*time.Hour)) {
		t.Fatal("cooldown never expired")
	}
	cool.mu.Lock()
	_, still := cool.until[obj]
	cool.mu.Unlock()
	if still {
		t.Fatal("expired cooldown entry not reaped")
	}
}

// TestAutopilotRespectsFixedObjects: a fixed object is never moved (the
// attempt counts as deferred), and migrates promptly once unfixed.
func TestAutopilotRespectsFixedObjects(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	err := nodes[0].EnableAutopilot(AutopilotConfig{
		Interval:      2 * time.Millisecond,
		MinTotal:      4,
		Hysteresis:    1,
		Cooldown:      10 * time.Millisecond,
		BudgetPerTick: 4,
		DecayEvery:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Fix(ctx, ref); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].Stats().AutopilotDeferred == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if nodes[0].Stats().AutopilotDeferred == 0 {
		t.Fatal("autopilot never attempted (and deferred on) the fixed object")
	}
	if nodes[0].Stats().AutopilotMigrations != 0 {
		t.Fatal("autopilot migrated a fixed object")
	}
	if at, err := nodes[0].Locate(ctx, ref); err != nil || at != "n0" {
		t.Fatalf("fixed object at %v (%v), want n0", at, err)
	}

	// Unfixed, the warm counters move it to its caller.
	if err := nodes[0].Unfix(ctx, ref); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		if at, _ := nodes[0].Locate(ctx, ref); at == "n1" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("unfixed object never migrated to its caller")
}

// TestAutopilotShutdownDuringInFlightMigration: closing a node whose
// autopilot is thrashing objects around (deliberately pathological
// config: no hysteresis margin, near-zero cooldown, two competing
// callers) must complete promptly — the in-flight scan is cancelled,
// never waited out.
func TestAutopilotShutdownDuringInFlightMigration(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nodes := testCluster(t, 3, Config{})
	for _, n := range nodes {
		err := n.EnableAutopilot(AutopilotConfig{
			Interval:      time.Millisecond,
			MinTotal:      2,
			Hysteresis:    1,
			Cooldown:      time.Millisecond,
			BudgetPerTick: 16,
			DecayEvery:    -1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	const objects = 16
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, nodes[0])
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			caller := nodes[1+w%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once n0 goes down mid-call.
				_, _ = Call[int, int](ctx, caller, refs[(i+w)%objects], "Add", 1)
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond) // let migrations churn

	closed := make(chan error, 1)
	go func() { closed <- nodes[0].Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung while an autopilot migration was in flight")
	}
	close(stop)
	wg.Wait()
}

// TestAutopilotEnableValidation covers the lifecycle API surface.
func TestAutopilotEnableValidation(t *testing.T) {
	t.Parallel()
	nodes := testCluster(t, 1, Config{})
	n := nodes[0]

	if err := n.EnableAutopilot(AutopilotConfig{Policy: PolicyPlacement}); err == nil {
		t.Fatal("placement policy accepted")
	}
	if err := n.EnableAutopilot(AutopilotConfig{Policy: PolicySedentary}); err == nil {
		t.Fatal("sedentary policy accepted")
	}
	if err := n.EnableAutopilot(AutopilotConfig{}); err != nil {
		t.Fatal(err)
	}
	if !n.AutopilotEnabled() {
		t.Fatal("autopilot not reported enabled")
	}
	if err := n.EnableAutopilot(AutopilotConfig{}); err == nil ||
		!strings.Contains(err.Error(), "already enabled") {
		t.Fatalf("double enable: %v", err)
	}
	n.DisableAutopilot()
	if n.AutopilotEnabled() {
		t.Fatal("autopilot still enabled after disable")
	}
	n.DisableAutopilot() // idempotent
	if err := n.EnableAutopilot(AutopilotConfig{Policy: PolicyCompareReinstantiate}); err != nil {
		t.Fatalf("re-enable: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n.AutopilotEnabled() {
		t.Fatal("autopilot survived Close")
	}
	if err := n.EnableAutopilot(AutopilotConfig{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enable after close: %v", err)
	}
}

// TestAffinityGossipReachesOriginTarget: when an object migrates to
// its own origin (the autopilot's most common outcome — the object
// converges onto its creator), the departing host's observations must
// still arrive as a gossip-only advisory, warming the new host's
// tracker.
func TestAffinityGossipReachesOriginTarget(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	// Trackers on, daemons effectively dormant (huge interval).
	for _, n := range nodes {
		if err := n.EnableAutopilot(AutopilotConfig{Interval: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	ref := mustCreate(t, nodes[2]) // origin n2
	if err := nodes[2].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	// Pressure on the n1-hosted object from its origin and a bystander.
	for i := 0; i < 6; i++ {
		if _, err := Call[int, int](ctx, nodes[2], ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := Call[int, int](ctx, nodes[0], ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Back home: target == origin, so the home update is redundant but
	// the observations must still travel.
	if err := nodes[1].Migrate(ctx, ref, "n2"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		l := nodes[2].Affinity()
		if len(l) > 0 && l[0].Obj == ref && l[0].Local >= 6 {
			// n2's own pressure arrived as local serves; the
			// bystander's as a remote caller.
			if len(l[0].Callers) == 0 || l[0].Callers[0].Node != "n0" || l[0].Callers[0].Count < 2 {
				t.Fatalf("bystander pressure lost in gossip: %+v", l[0])
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("origin-target never received the affinity gossip: %+v", nodes[2].Affinity())
}

// TestHomeUpdateBatchingCoalesces: after several quick migrations
// towards the same destination the origin learns every new home, each
// advisory in one HomeUpdate RPC, and the coordinator's affinity
// observations arrive as gossip.
func TestHomeUpdateBatchingCoalesces(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	// Trackers on (huge interval: the daemons never actually scan) so
	// n1 has observations to gossip and n0 merges what it receives.
	for _, n := range nodes[:2] {
		if err := n.EnableAutopilot(AutopilotConfig{Interval: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	const objects = 6
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, nodes[0])
		if err := nodes[0].Migrate(ctx, refs[i], "n1"); err != nil {
			t.Fatal(err)
		}
	}
	// Give n1's tracker remote pressure to gossip about.
	for _, ref := range refs {
		for i := 0; i < 4; i++ {
			if _, err := Call[int, int](ctx, nodes[2], ref, "Add", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// n1 → n2: origin n0 is neither coordinator nor target, so each
	// migration sends n0 one advisory.
	for _, ref := range refs {
		if err := nodes[1].Migrate(ctx, ref, "n2"); err != nil {
			t.Fatal(err)
		}
	}
	st := nodes[1].Stats()
	if st.HomeUpdatesQueued != objects {
		t.Fatalf("HomeUpdatesQueued = %d, want %d", st.HomeUpdatesQueued, objects)
	}

	// The origin then knows every new home and holds the gossiped
	// affinity.
	eventually(t, 10*time.Second, func() bool {
		for _, ref := range refs {
			if at, ok := nodes[0].store.Home(ref.OID); !ok || at != "n2" {
				return false
			}
		}
		return true
	}, "the origin never learned n2 for every object")
	if st = nodes[1].Stats(); st.HomeUpdateBatches != st.HomeUpdatesQueued {
		t.Fatalf("HomeUpdateBatches = %d for %d advisories; want one RPC each",
			st.HomeUpdateBatches, st.HomeUpdatesQueued)
	}
	// Gossip: n0's tracker learned that n2 uses these objects.
	byObj := make(map[Ref]ObjectAffinity)
	for _, oa := range nodes[0].Affinity() {
		byObj[oa.Obj] = oa
	}
	for _, ref := range refs {
		oa, ok := byObj[ref]
		if !ok || len(oa.Callers) == 0 || oa.Callers[0].Node != "n2" || oa.Callers[0].Count < 4 {
			t.Fatalf("origin affinity for %v = %+v (gossip lost)", ref, oa)
		}
	}
}
