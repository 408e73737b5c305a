package objmig

// End-to-end coverage of the cluster health engine: the sick-node
// lifecycle (healthy → degraded → critical → healthy, with hysteresis
// and the placement feedback loop), the observability surfaces it adds
// (/debug/cluster, /debug/flightrec, the objmig_node_health gauge and
// the cumulative histogram buckets on /metrics), and the scrape
// endpoints' behaviour under concurrent migration load. All of it runs
// under -race in CI.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/wire"
)

// quietHealthConfig returns a fast-ticking config with every signal
// but InvokeLocalP99 disabled, so tests drive the state machine
// deterministically through a single injected histogram.
func quietHealthConfig() HealthConfig {
	off := HealthBound{Warn: -1}
	return HealthConfig{
		Tick:              10 * time.Millisecond,
		Window:            120 * time.Millisecond,
		RaiseAfter:        2,
		ClearAfter:        3,
		InvokeLocalP99:    HealthBound{Warn: 2_000, Crit: 200_000},
		InvokeRemoteP99:   off,
		ChaseP99:          off,
		MigrationPhaseP99: off,
		StreamAborts:      off,
		PauseExpiries:     off,
		ChasesOverBudget:  off,
		EventsDropped:     off,
	}
}

func waitHealth(t *testing.T, n *Node, want HealthState) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if n.Health() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %s health = %v after 15s, want %v", n.ID(), n.Health(), want)
}

// TestHealthEngineEndToEnd is the acceptance test: a node made sick
// walks healthy → degraded → critical with hysteresis (each state
// entered exactly once — no flapping), the state rides the gossip to
// its peer, a critical node admits zero inbound migrations, the flight
// recorder freezes an automatic dump carrying the triggering window's
// numbers, and once the sickness stops the node returns to healthy and
// re-admits.
func TestHealthEngineEndToEnd(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)

	var evMu sync.Mutex
	var transitions []string
	obs := func(e Event) {
		if e.Kind == EventHealth && e.Node == "n0" {
			evMu.Lock()
			transitions = append(transitions, fmt.Sprintf("%d>%s", e.Hops, e.Outcome))
			evMu.Unlock()
		}
	}
	nodes := testCluster(t, 2, Config{Observer: obs})
	sick, peer := nodes[0], nodes[1]
	fullMesh(nodes...)
	for _, n := range nodes {
		if err := n.EnablePlacement(PlacementConfig{Heartbeat: 20 * time.Millisecond, OriginPass: -1}); err != nil {
			t.Fatal(err)
		}
		if err := n.EnableHealth(quietHealthConfig()); err != nil {
			t.Fatal(err)
		}
	}
	waitForView(t, peer, 1)
	waitForView(t, sick, 1)

	// The sickness injector: a background ticker feeding the local
	// invoke histogram whatever latency the test dials in. 0 pauses
	// the injection.
	var magnitude atomic.Int64
	stopInj := make(chan struct{})
	defer close(stopInj)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopInj:
				return
			case <-tick.C:
				if m := magnitude.Load(); m > 0 {
					sick.tel.invokeLocal.Observe(m)
				}
			}
		}
	}()

	// Phase 1: idle nodes evaluate healthy.
	deadline := time.Now().Add(10 * time.Second)
	for sick.Stats().HealthTicks < 3 {
		if time.Now().After(deadline) {
			t.Fatal("health daemon never ticked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sick.Health(); got != HealthHealthy {
		t.Fatalf("idle health = %v, want healthy", got)
	}

	// Phase 2: warning-level latency (10ms against a 2ms warn bound,
	// far under the 200ms crit bound) degrades the node — and only
	// degrades it.
	magnitude.Store(10_000)
	waitHealth(t, sick, HealthDegraded)
	if st := sick.Stats(); st.HealthCritical != 0 {
		t.Fatalf("warning-level sickness reached critical %d times", st.HealthCritical)
	}

	// Phase 3: second-long latencies escalate to critical.
	magnitude.Store(1_000_000)
	waitHealth(t, sick, HealthCritical)

	// The state rides the existing load gossip: the peer's view must
	// converge on the sick node being critical with no extra RPC.
	deadline = time.Now().Add(10 * time.Second)
	for {
		var got HealthState
		for _, l := range peer.LoadView() {
			if l.Node == sick.ID() {
				got = l.Health
			}
		}
		if got == HealthCritical {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer view never saw %s critical (got %v)", sick.ID(), got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Zero inbound admissions while critical: the target-side veto
	// refuses the migration even though the node has capacity to
	// spare.
	ref := mustCreate(t, peer)
	if err := peer.Migrate(ctx, ref, sick.ID()); err == nil {
		t.Fatal("migration into a critical node succeeded")
	}
	if at := whereIs(t, ctx, peer, ref); at != peer.ID() {
		t.Fatalf("refused object ended up on %s", at)
	}
	if st := sick.Stats(); st.HealthVetoes < 1 {
		t.Fatalf("HealthVetoes = %d after refused migration", st.HealthVetoes)
	}

	// The transition auto-froze a flight-recorder dump carrying the
	// verdict that fired it.
	raw := sick.LastFlightDump()
	if raw == nil {
		t.Fatal("no automatic flight-recorder dump after transitions")
	}
	var dump struct {
		Node    string           `json:"node"`
		Reason  string           `json:"reason"`
		State   string           `json:"state"`
		Worst   string           `json:"worst"`
		Values  map[string]int64 `json:"values"`
		Entries []struct {
			Kind  string `json:"kind"`
			Label string `json:"label"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("automatic dump is not JSON: %v", err)
	}
	if dump.Node != "n0" || dump.Reason != "transition" || dump.State != "critical" {
		t.Fatalf("dump header = %s/%s/%s, want n0/transition/critical", dump.Node, dump.Reason, dump.State)
	}
	if dump.Worst != "invoke_local_p99_us" {
		t.Fatalf("dump worst signal = %q", dump.Worst)
	}
	if v := dump.Values["invoke_local_p99_us"]; v < 200_000 {
		t.Fatalf("dump's offending window p99 = %d, want >= crit 200000", v)
	}
	if len(dump.Entries) == 0 {
		t.Fatal("dump carries no ring entries")
	}
	sawHealthEntry := false
	for _, e := range dump.Entries {
		if e.Kind == "health" {
			sawHealthEntry = true
		}
	}
	if !sawHealthEntry {
		t.Fatal("dump carries no health-tick entries")
	}

	// Phase 4: the sickness stops; the window drains and the node
	// clears back to healthy...
	magnitude.Store(0)
	waitHealth(t, sick, HealthHealthy)

	// ...and re-admits. (Poll: the peer's gossiped view needs a beat
	// to see the recovery too, but the authoritative target-side gate
	// is already open.)
	if err := peer.Migrate(ctx, ref, sick.ID()); err != nil {
		t.Fatalf("migration into recovered node: %v", err)
	}
	if at := whereIs(t, ctx, peer, ref); at != sick.ID() {
		t.Fatalf("object on %s after migration to recovered node", at)
	}

	// Hysteresis means each state was entered exactly once: degraded
	// on the way up, critical, then healthy on recovery — no flapping.
	evMu.Lock()
	got := append([]string(nil), transitions...)
	evMu.Unlock()
	want := []string{"0>degraded", "1>critical", "2>healthy"}
	if len(got) != len(want) {
		t.Fatalf("health transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("health transitions = %v, want %v", got, want)
		}
	}
}

// TestHealthScrapeSurfaces covers the engine's read side: the
// objmig_health_state line on /metrics, the /debug/cluster
// aggregation, and both verbs of /debug/flightrec. (The histogram
// families are TestMetricsExpositionStrict's.)
func TestHealthScrapeSurfaces(t *testing.T) {
	t.Parallel()
	nodes := testCluster(t, 2, Config{})
	a, b := nodes[0], nodes[1]
	fullMesh(nodes...)
	for _, n := range nodes {
		if err := n.EnablePlacement(PlacementConfig{Heartbeat: 20 * time.Millisecond, OriginPass: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.EnableHealth(quietHealthConfig()); err != nil {
		t.Fatal(err)
	}
	if err := a.EnableHealth(quietHealthConfig()); err == nil {
		t.Fatal("double EnableHealth succeeded")
	}

	deadline := time.Now().Add(10 * time.Second)
	for a.Stats().HealthTicks < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no health tick")
		}
		time.Sleep(5 * time.Millisecond)
	}

	h := a.MetricsHandler()
	scrape := func(method, path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code, rec.Body.String()
	}

	if _, metrics := scrape("GET", "/metrics"); !strings.Contains(metrics, `objmig_health_state{node="n0"} 0`) {
		t.Error(`/metrics missing objmig_health_state{node="n0"} 0`)
	}

	// /debug/cluster shows this node's own healthy row immediately and
	// the peer's row once the gossip delivers a sample; its header names
	// this build's wire epoch.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, cluster := scrape("GET", "/debug/cluster")
		if strings.Contains(cluster, "healthy") && strings.Contains(cluster, "(self)") &&
			strings.Contains(cluster, "n1") {
			if header := fmt.Sprintf("node n0: cluster view, 2 nodes, wire epoch %d\n", wire.Epoch); !strings.HasPrefix(cluster, header) {
				t.Errorf("/debug/cluster header is not %q:\n%s", header, cluster)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/cluster never showed both rows:\n%s", cluster)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// POST /debug/flightrec freezes a manual dump; GET has no
	// automatic dump to serve while the node stays healthy.
	code, body := scrape("POST", "/debug/flightrec")
	if code != 200 {
		t.Fatalf("POST /debug/flightrec = %d: %s", code, body)
	}
	var dump struct {
		Reason  string            `json:"reason"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("manual dump is not JSON: %v", err)
	}
	if dump.Reason != "manual" || len(dump.Entries) == 0 {
		t.Fatalf("manual dump reason=%q entries=%d, want manual and non-empty", dump.Reason, len(dump.Entries))
	}
	if code, _ := scrape("GET", "/debug/flightrec"); code != 404 {
		t.Fatalf("GET /debug/flightrec with no auto dump = %d, want 404", code)
	}

	// The health-less peer still scrapes (gauge reads 0, no recorder);
	// its flight recorder endpoint reports the conflict.
	hb := b.MetricsHandler()
	rec := httptest.NewRecorder()
	hb.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/flightrec", nil))
	if rec.Code != 409 {
		t.Fatalf("POST /debug/flightrec without health = %d, want 409", rec.Code)
	}
}

// TestMetricsScrapeUnderMigrationLoad hammers every read endpoint
// while a streamed multi-host migration and a drain job run
// concurrently: no panics, no race reports (CI runs this under
// -race), every scrape parses strictly, the gauges that used to live
// outside Stats are present, and no scraped counter goes backwards.
func TestMetricsScrapeUnderMigrationLoad(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)

	cl := NewLocalCluster()
	mk := func(id NodeID) *Node {
		n, err := NewNode(Config{
			ID: id, Cluster: cl, Capacity: 64,
			// ChunkBytes 1 forces real multi-chunk streaming sessions.
			Migrate: MigrateConfig{ChunkBytes: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
		if err := n.EnablePlacement(PlacementConfig{Heartbeat: 20 * time.Millisecond, OriginPass: -1}); err != nil {
			t.Fatal(err)
		}
		if err := n.EnableHealth(HealthConfig{Tick: 10 * time.Millisecond, Window: 200 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	fullMesh(a, b, c)

	const objects = 12
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, a)
	}
	waitForView(t, a, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Migration churn: objects stream around the ring for the whole
	// run, with invocations interleaved.
	wg.Add(1)
	go func() {
		defer wg.Done()
		targets := []*Node{b, c, a}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ref := refs[i%objects]
			_ = a.Migrate(ctx, ref, targets[i%len(targets)].ID())
			_, _ = Call[int, int](ctx, a, ref, "Add", 1)
		}
	}()

	// Scrapers: three goroutines cycling the endpoints, checking the
	// counters only ever grow.
	counters := []string{
		"objmig_invocations_served", "objmig_migrations_out", "objmig_stream_bytes_out",
		"objmig_objects_installed", "objmig_load_gossip_sent", "objmig_health_ticks",
		"objmig_placement_scores", "objmig_placement_reservations",
	}
	gauges := []string{
		"objmig_health_state", "objmig_placement_view_age_max_us", "objmig_placement_reserved_bytes",
	}
	handlers := []struct {
		h    *Node
		path string
	}{
		{a, "/metrics"}, {a, "/debug/vars"}, {a, "/debug/migrations"},
		{a, "/debug/cluster"}, {b, "/metrics"}, {c, "/debug/vars"},
	}
	scrapeErr := make(chan error, 3)
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			last := make(map[string]int64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := handlers[(s+i)%len(handlers)]
				rec := httptest.NewRecorder()
				ep.h.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", ep.path, nil))
				if rec.Code != 200 {
					scrapeErr <- fmt.Errorf("%s %s: status %d", ep.h.ID(), ep.path, rec.Code)
					return
				}
				// Presence and monotonicity, checked on node a's /metrics.
				rec = httptest.NewRecorder()
				a.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				samples, _, err := parseProm(rec.Body.String())
				if err != nil {
					scrapeErr <- err
					return
				}
				now := make(map[string]int64, len(samples))
				for _, sm := range samples {
					now[sm.name] = sm.value
				}
				for _, name := range gauges {
					if _, ok := now[name]; !ok {
						scrapeErr <- fmt.Errorf("/metrics missing %s", name)
						return
					}
				}
				for _, name := range counters {
					v, ok := now[name]
					if !ok || v < last[name] {
						scrapeErr <- fmt.Errorf("%s went backwards or missing: %d -> %d (present %v)", name, last[name], v, ok)
						return
					}
					last[name] = v
				}
			}
		}(s)
	}

	// Give the churn a moment to overlap with scraping, then drain a
	// node while both continue.
	time.Sleep(300 * time.Millisecond)
	j, err := a.NewDrainJob(JobConfig{WaveSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("drain under scrape load: %v (status %+v)", err, j.Status())
	}
	close(stop)
	wg.Wait()
	close(scrapeErr)
	for err := range scrapeErr {
		t.Error(err)
	}
	if a.Stats().InvocationsServed == 0 {
		t.Fatal("no invocations recorded; the load generator never ran")
	}
}
