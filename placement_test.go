package objmig

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// placementTestCluster builds count nodes on a fresh local cluster
// with per-node capacities (0 = uncapped) and the counter type
// registered.
func placementTestCluster(t *testing.T, count int, caps []int64, obs Observer) []*Node {
	t.Helper()
	cl := NewLocalCluster()
	nodes := make([]*Node, count)
	for i := range nodes {
		cfg := Config{
			ID:       NodeID(fmt.Sprintf("n%d", i)),
			Cluster:  cl,
			Observer: obs,
		}
		if i < len(caps) {
			cfg.Capacity = caps[i]
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
	return nodes
}

// placementSkewResult is one heterogeneous-capacity run's outcome.
type placementSkewResult struct {
	installedOnSmall int64 // objects migrated onto the capped node
	measuredRemote   int64 // remote calls across the cluster, post-convergence window
	groupedEvent     bool  // an EventPlacement carried the attached pair as one unit
	placementEvents  int64 // EventPlacement "migrate"/"origin" emissions
}

// runPlacementSkew drives the acceptance workload: three nodes, ten
// objects created on n0, n1 capped at its two ballast objects, and a
// 90/10 caller skew — eight objects prefer n2 (uncapped), two prefer
// the capped n1. mode selects which optimiser runs: "off" (none),
// "autopilot" (affinity only — the baseline that overloads n1) or
// "placement" (autopilot election through the engine plus the
// admission veto).
func runPlacementSkew(t *testing.T, mode string) placementSkewResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var res placementSkewResult
	var evMu sync.Mutex
	obs := func(e Event) {
		if e.Kind != EventPlacement {
			return
		}
		if e.Outcome == "migrate" || e.Outcome == "origin" {
			evMu.Lock()
			res.placementEvents++
			evMu.Unlock()
		}
	}
	nodes := placementTestCluster(t, 3, []int64{0, 2, 0}, obs)
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]

	// Ballast: the small node starts exactly at its capacity.
	for i := 0; i < 2; i++ {
		mustCreate(t, n1)
	}

	apCfg := AutopilotConfig{
		Interval:      5 * time.Millisecond,
		MinTotal:      12,
		Hysteresis:    1.3,
		Cooldown:      250 * time.Millisecond,
		BudgetPerTick: 8,
		DecayEvery:    -1,
	}
	plCfg := PlacementConfig{
		Heartbeat:     20 * time.Millisecond,
		Hysteresis:    1.3,
		OriginPass:    50 * time.Millisecond,
		MinTotal:      12,
		BudgetPerPass: 4,
		Cooldown:      250 * time.Millisecond,
	}
	for _, n := range nodes {
		if mode == "autopilot" || mode == "placement" {
			if err := n.EnableAutopilot(apCfg); err != nil {
				t.Fatal(err)
			}
		}
		if mode == "placement" {
			if err := n.EnablePlacement(plCfg); err != nil {
				t.Fatal(err)
			}
		}
	}

	const objects = 10
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, n0)
	}
	// Objects 0..7 prefer n2; 8..9 prefer the capped n1. Objects 0 and
	// 1 are attached, so the engine must move them as one closure.
	if err := n0.Attach(ctx, refs[0], refs[1], NoAlliance); err != nil {
		t.Fatal(err)
	}
	prefers := func(i int) (hot, cold *Node) {
		if i >= 8 {
			return n1, n2
		}
		return n2, n1
	}
	round := func() {
		for i, ref := range refs {
			hot, cold := prefers(i)
			for k := 0; k < 9; k++ {
				if _, err := Call[int, int](ctx, hot, ref, "Add", 1); err != nil {
					t.Fatalf("hot call: %v", err)
				}
			}
			if _, err := Call[int, int](ctx, cold, ref, "Add", 1); err != nil {
				t.Fatalf("cold call: %v", err)
			}
		}
	}

	// Phase 1: warm up and (for the optimised runs) let the n2-bound
	// objects converge before measuring.
	for r := 0; r < 25; r++ {
		round()
		time.Sleep(2 * time.Millisecond)
	}
	atN2 := func() int {
		at := 0
		for i := 0; i < 8; i++ {
			if loc, err := n0.Locate(ctx, refs[i]); err == nil && loc == n2.ID() {
				at++
			}
		}
		return at
	}
	if mode != "off" {
		deadline := time.Now().Add(30 * time.Second)
		for atN2() < 7 && time.Now().Before(deadline) {
			round()
			time.Sleep(5 * time.Millisecond)
		}
		if got := atN2(); got < 7 {
			t.Fatalf("mode %s: only %d/8 n2-preferred objects converged onto n2", mode, got)
		}
	}

	// Phase 2: measure the steady state — the same number of rounds in
	// every mode, so the remote-call deltas are comparable.
	var before int64
	for _, n := range nodes {
		before += n.Stats().RemoteCallsSent
	}
	for r := 0; r < 25; r++ {
		round()
		time.Sleep(2 * time.Millisecond)
	}
	for _, n := range nodes {
		res.measuredRemote += n.Stats().RemoteCallsSent
	}
	res.measuredRemote -= before
	res.installedOnSmall = n1.Stats().ObjectsInstalled

	// Group-as-unit: the attached pair must live together, and in
	// placement mode an EventPlacement must have carried both members.
	if mode == "placement" {
		locA, errA := n0.Locate(ctx, refs[0])
		locB, errB := n0.Locate(ctx, refs[1])
		if errA != nil || errB != nil || locA != locB {
			t.Fatalf("attached pair split: %v(%v) vs %v(%v)", locA, errA, locB, errB)
		}
	}
	res.groupedEvent = res.placementEvents > 0
	return res
}

// TestPlacementVetoProtectsOverloadedNode is the subsystem's e2e
// acceptance test. Three nodes, one capped small node already at
// capacity, a 90/10 skewed workload:
//
//   - the affinity-only autopilot baseline migrates objects onto the
//     capped node (the pile-up the ROADMAP describes),
//   - with the placement engine, zero objects land on it — the
//     overload veto holds both coordinator-side and target-side —
//   - and the aggregate remote-call rate still drops at least 2×
//     against the unoptimised baseline, because the engine converges
//     the rest of the working set onto the uncapped hot node.
func TestPlacementVetoProtectsOverloadedNode(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("placement acceptance test is slow")
	}
	off := runPlacementSkew(t, "off")
	baseline := runPlacementSkew(t, "autopilot")
	placed := runPlacementSkew(t, "placement")

	if off.installedOnSmall != 0 {
		t.Fatalf("off run installed %d objects on the small node", off.installedOnSmall)
	}
	if baseline.installedOnSmall == 0 {
		t.Fatal("affinity-only baseline never overloaded the small node; the veto has nothing to prove")
	}
	if placed.installedOnSmall != 0 {
		t.Fatalf("placement run migrated %d objects onto the overloaded node, want 0",
			placed.installedOnSmall)
	}
	if placed.measuredRemote*2 > off.measuredRemote {
		t.Fatalf("steady-state remote calls with placement = %d, baseline = %d; want ≤ half",
			placed.measuredRemote, off.measuredRemote)
	}
	if !placed.groupedEvent {
		t.Fatal("no EventPlacement migration was emitted")
	}
}

// TestPlacementGroupMovesAsUnit pins the group-scored election's
// payload: an attached pair where only one member is hot must travel
// as one closure in a single EventPlacement, to the aggregate-best
// node.
func TestPlacementGroupMovesAsUnit(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type placementEv struct {
		target  NodeID
		objects []Ref
	}
	var evMu sync.Mutex
	var migrations []placementEv
	obs := func(e Event) {
		if e.Kind == EventPlacement && (e.Outcome == "migrate" || e.Outcome == "origin") {
			evMu.Lock()
			migrations = append(migrations, placementEv{target: e.Target, objects: e.Objects})
			evMu.Unlock()
		}
	}
	nodes := placementTestCluster(t, 3, nil, obs)
	for _, n := range nodes {
		if err := n.EnableAutopilot(AutopilotConfig{
			Interval: 5 * time.Millisecond, MinTotal: 10, Hysteresis: 1.2,
			Cooldown: 200 * time.Millisecond, DecayEvery: -1,
		}); err != nil {
			t.Fatal(err)
		}
		if err := n.EnablePlacement(PlacementConfig{
			Heartbeat: 20 * time.Millisecond, OriginPass: -1, Hysteresis: 1.2, MinTotal: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	hot := mustCreate(t, nodes[0])
	quiet := mustCreate(t, nodes[0])
	if err := nodes[0].Attach(ctx, hot, quiet, NoAlliance); err != nil {
		t.Fatal(err)
	}
	// Only the hot member draws calls; the quiet one must ride along.
	for i := 0; i < 60; i++ {
		if _, err := Call[int, int](ctx, nodes[2], hot, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	// The coordinator emits its EventPlacement only after migrateGroup
	// returns, so the pair may be seen at n2 before the event: once it
	// is there, keep looking for the event until the deadline.
	unit := func() bool {
		evMu.Lock()
		defer evMu.Unlock()
		for _, ev := range migrations {
			if ev.target != "n2" || len(ev.objects) != 2 {
				continue
			}
			seen := map[Ref]bool{}
			for _, r := range ev.objects {
				seen[r] = true
			}
			if seen[hot] && seen[quiet] {
				return true // one event, both members: moved as a unit
			}
		}
		return false
	}
	converged := false
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if !converged {
			locHot, err1 := nodes[0].Locate(ctx, hot)
			locQuiet, err2 := nodes[0].Locate(ctx, quiet)
			converged = err1 == nil && err2 == nil && locHot == "n2" && locQuiet == "n2"
		}
		if converged && unit() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	evMu.Lock()
	defer evMu.Unlock()
	if converged {
		t.Fatalf("pair reached n2 but no single EventPlacement carried both members: %+v", migrations)
	}
	t.Fatalf("attached pair never converged onto the caller: %+v", migrations)
}

// TestPlacementNoOscillation proves hysteresis plus the load veto
// reach a stable assignment under steady skewed load: four objects,
// a capped preferred caller that can take only two — after the
// assignment settles, a further measurement window must see zero
// migrations and unchanged locations. Run under -race in CI.
func TestPlacementNoOscillation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("oscillation test is slow")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	nodes := placementTestCluster(t, 3, []int64{0, 2, 0}, nil)
	for _, n := range nodes {
		if err := n.EnableAutopilot(AutopilotConfig{
			Interval: 10 * time.Millisecond, MinTotal: 12, Hysteresis: 1.3,
			Cooldown: 150 * time.Millisecond, DecayEvery: 16,
		}); err != nil {
			t.Fatal(err)
		}
		if err := n.EnablePlacement(PlacementConfig{
			Heartbeat: 20 * time.Millisecond, OriginPass: -1, Hysteresis: 1.3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	const objects = 4
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, nodes[0])
	}
	// Steady 70/30 skew towards the capped n1 on every object.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var callErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ref := range refs {
				for k := 0; k < 7; k++ {
					if _, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err != nil {
						callErr.Store(err)
						return
					}
				}
				for k := 0; k < 3; k++ {
					if _, err := Call[int, int](ctx, nodes[2], ref, "Add", 1); err != nil {
						callErr.Store(err)
						return
					}
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	totalMigrations := func() int64 {
		var m int64
		for _, n := range nodes {
			m += n.Stats().AutopilotMigrations
		}
		return m
	}
	locations := func() [objects]NodeID {
		var out [objects]NodeID
		for i, ref := range refs {
			out[i], _ = nodes[0].Locate(ctx, ref)
		}
		return out
	}
	// Settle: wait for a full second of quiet (no migrations) within
	// the deadline.
	deadline := time.Now().Add(45 * time.Second)
	quietSince := time.Now()
	last := totalMigrations()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if cur := totalMigrations(); cur != last {
			last, quietSince = cur, time.Now()
			continue
		}
		if time.Since(quietSince) >= time.Second {
			break
		}
	}
	if time.Since(quietSince) < time.Second {
		t.Fatalf("assignment never settled: %d migrations and counting", last)
	}
	settledLocs := locations()
	settledMigs := totalMigrations()

	// Measurement window: steady load continues, nothing may move.
	time.Sleep(2 * time.Second)
	if err, _ := callErr.Load().(error); err != nil {
		t.Fatalf("workload failed: %v", err)
	}
	if cur := totalMigrations(); cur != settledMigs {
		t.Fatalf("assignment oscillates: %d migrations during the quiet window", cur-settledMigs)
	}
	if cur := locations(); cur != settledLocs {
		t.Fatalf("locations drifted without migrations: %v -> %v", settledLocs, cur)
	}
	// The capped node must not have been pushed past its capacity.
	if hosted := nodes[1].Stats().ObjectsHosted; hosted > 2 {
		t.Fatalf("capped node hosts %d objects, capacity 2", hosted)
	}
	close(stop)
	wg.Wait()
}

// TestOriginPassPreplaces: with placement alone (no autopilot), the
// origin pre-placement pass must move a home object towards the
// caller its accumulated affinity names, announcing it with an
// EventPlacement "origin".
func TestOriginPassPreplaces(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	var originEvents atomic.Int64
	obs := func(e Event) {
		if e.Kind == EventPlacement && e.Outcome == "origin" {
			originEvents.Add(1)
		}
	}
	nodes := placementTestCluster(t, 3, nil, obs)
	for _, n := range nodes {
		if err := n.EnablePlacement(PlacementConfig{
			Heartbeat:  20 * time.Millisecond,
			OriginPass: 30 * time.Millisecond,
			MinTotal:   8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ref := mustCreate(t, nodes[0])
	for i := 0; i < 30; i++ {
		if _, err := Call[int, int](ctx, nodes[2], ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if at, err := nodes[0].Locate(ctx, ref); err == nil && at == "n2" {
			if originEvents.Load() == 0 {
				t.Fatal("object pre-placed but no EventPlacement origin event")
			}
			if nodes[0].Stats().PlacementMigrations == 0 {
				t.Fatal("PlacementMigrations not counted")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("origin pass never pre-placed the object: %+v", nodes[0].Affinity())
}

// TestAdmissionVetoBacksPressure: the target-side veto refuses even
// explicit Migrate primitives while the node is at capacity, and
// admits them again once placement is disabled.
func TestAdmissionVetoBacksPressure(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := placementTestCluster(t, 2, []int64{0, 1}, nil)
	mustCreate(t, nodes[1]) // n1 at capacity
	if err := nodes[1].EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}
	ref := mustCreate(t, nodes[0])
	err := nodes[0].Migrate(ctx, ref, "n1")
	if !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("migration to a full node: %v, want capacity denial", err)
	}
	if nodes[1].Stats().PlacementVetoes == 0 {
		t.Fatal("PlacementVetoes not counted")
	}
	if at, _ := nodes[0].Locate(ctx, ref); at != "n0" {
		t.Fatalf("vetoed object moved to %v", at)
	}
	// The veto is placement's: disabling placement lifts it.
	nodes[1].DisablePlacement()
	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatalf("migration after disable: %v", err)
	}
	if at, _ := nodes[0].Locate(ctx, ref); at != "n1" {
		t.Fatalf("object at %v after admitted migration", at)
	}
}

// TestLoadGossipConvergesView: two nodes exchanging traffic must
// converge on each other's load samples via the heartbeat, with the
// LoadGossip counters moving.
func TestLoadGossipConvergesView(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := placementTestCluster(t, 2, []int64{0, 64}, nil)
	for _, n := range nodes {
		if err := n.EnablePlacement(PlacementConfig{
			Heartbeat: 10 * time.Millisecond, OriginPass: -1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ref := mustCreate(t, nodes[0])
	if _, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		byNode := make(map[NodeID]NodeLoad)
		for _, l := range nodes[0].LoadView() {
			byNode[l.Node] = l
		}
		n1, okN1 := byNode["n1"]
		n0, okN0 := byNode["n0"]
		if okN0 && okN1 && n0.Objects == 1 && n1.Capacity == 64 {
			if nodes[0].Stats().LoadGossipSent == 0 || nodes[1].Stats().LoadGossipReceived == 0 {
				t.Fatal("gossip counters did not move")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("views never converged: n0 sees %+v", nodes[0].LoadView())
}

// TestPlacementEnableValidation covers the lifecycle API surface.
func TestPlacementEnableValidation(t *testing.T) {
	t.Parallel()
	nodes := placementTestCluster(t, 1, nil, nil)
	n := nodes[0]
	if err := n.EnablePlacement(PlacementConfig{}); err != nil {
		t.Fatal(err)
	}
	if !n.PlacementEnabled() {
		t.Fatal("placement not reported enabled")
	}
	if err := n.EnablePlacement(PlacementConfig{}); err == nil ||
		!strings.Contains(err.Error(), "already enabled") {
		t.Fatalf("double enable: %v", err)
	}
	// The affinity tracker stays on for the autopilot even after
	// placement goes away, and vice versa.
	if err := n.EnableAutopilot(AutopilotConfig{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	n.DisablePlacement()
	if !n.aff.Enabled() {
		t.Fatal("tracker disabled while the autopilot still runs")
	}
	n.DisableAutopilot()
	if n.aff.Enabled() {
		t.Fatal("tracker still enabled with both daemons gone")
	}
	n.DisablePlacement() // idempotent
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n.PlacementEnabled() {
		t.Fatal("placement survived Close")
	}
	if err := n.EnablePlacement(PlacementConfig{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enable after close: %v", err)
	}
}
