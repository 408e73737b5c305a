package objmig

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/telemetry"
)

// promSample is one sample line of a parsed /metrics scrape; le is the
// bucket bound of a histogram bucket line, "" elsewhere.
type promSample struct {
	name, le string
	value    int64
}

var promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)\{[^}]*?(?:le="([^"]*)")?\} (-?[0-9]+)$`)

// parseProm is a strict reader of the text exposition serveMetrics
// writes (one node, so one series per name). It returns the samples in
// scrape order and the "# TYPE"d families, or the first violation of
// these rules: every line is a TYPE line or a well-formed sample; a
// family is typed at most once and before its first sample; no series
// repeats; no sample belongs to two typed families; a histogram
// family's samples are <name>_bucket (le ascending, counts cumulative,
// ending in le="+Inf"), <name>_sum and <name>_count, with the +Inf
// bucket equal to _count.
func parseProm(body string) (samples []promSample, types map[string]string, err error) {
	types = make(map[string]string)
	seen := make(map[string]bool) // series (name{labels}) and bare names so far
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				return nil, nil, fmt.Errorf("family %s typed twice", name)
			}
			for _, member := range []string{name, name + "_bucket", name + "_sum", name + "_count"} {
				if seen[member] {
					return nil, nil, fmt.Errorf("# TYPE %s after its sample %s", name, member)
				}
			}
			types[name] = typ
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			return nil, nil, fmt.Errorf("malformed line %q", line)
		}
		sm := promSample{name: m[1], le: m[2]}
		sm.value, _ = strconv.ParseInt(m[3], 10, 64)
		series := line[:strings.LastIndex(line, " ")]
		if seen[series] {
			return nil, nil, fmt.Errorf("series %s repeated", series)
		}
		seen[series], seen[sm.name] = true, true
		base := sm.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(sm.name, suffix); ok {
				base = b
			}
		}
		if _, typed := types[base]; typed && base != sm.name && types[sm.name] != "" {
			return nil, nil, fmt.Errorf("sample %s belongs to families %s and %s", sm.name, base, sm.name)
		}
		if types[sm.name] == "histogram" {
			return nil, nil, fmt.Errorf("bare sample %s in a histogram family", sm.name)
		}
		samples = append(samples, sm)
	}
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		lastLe, cum, inf, count, sums := int64(-1), int64(0), int64(-1), int64(-2), 0
		for _, sm := range samples {
			switch sm.name {
			case fam + "_bucket":
				if inf >= 0 || sm.value < cum {
					return nil, nil, fmt.Errorf("%s: bucket le=%q is not cumulative", fam, sm.le)
				}
				cum = sm.value
				if sm.le == "+Inf" {
					inf = sm.value
					continue
				}
				le, perr := strconv.ParseInt(sm.le, 10, 64)
				if perr != nil || le <= lastLe {
					return nil, nil, fmt.Errorf("%s: bucket bound le=%q out of order", fam, sm.le)
				}
				lastLe = le
			case fam + "_sum":
				sums++
			case fam + "_count":
				count = sm.value
			}
		}
		if inf != count || sums != 1 {
			return nil, nil, fmt.Errorf("%s: +Inf bucket %d, _count %d, %d _sum lines (-1/-2: absent)", fam, inf, count, sums)
		}
	}
	return samples, types, nil
}

// scrapeBody serves path from n's MetricsHandler and returns the body.
func scrapeBody(t testing.TB, n *Node, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	n.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("%s %s: status %d", n.ID(), path, rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsExpositionStrict: the /metrics scrape survives a strict
// parse, and every latency histogram is one well-formed Prometheus
// histogram family whose +Inf bucket equals its _count.
func TestMetricsExpositionStrict(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	ref := mustCreate(t, nodes[0])
	for i := 0; i < 32; i++ {
		if _, err := Call[int, int](ctx, nodes[i%2], ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	samples, types, err := parseProm(scrapeBody(t, nodes[0], "/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range nodes[0].tel.reg.Snapshot() {
		if types[h.Name] != "histogram" {
			t.Errorf("%s announced as %q, want histogram", h.Name, types[h.Name])
		}
	}
	for _, sm := range samples {
		if sm.name == "objmig_invoke_local_us_count" && sm.value != 32 {
			t.Errorf("objmig_invoke_local_us_count = %d, want 32", sm.value)
		}
	}
}

// TestStatsSurface pins the contract every reader of Stats relies on —
// the node's atomic loop, serveMetrics and the benchmark's addStats
// all walk the struct by reflection: every field is an int64, and each
// appears exactly once on /metrics (as objmig_<promName(field)>) and
// once under "objmig" in /debug/vars.
func TestStatsSurface(t *testing.T) {
	t.Parallel()
	n := testCluster(t, 1, Config{})[0]
	samples, _, err := parseProm(scrapeBody(t, n, "/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	onMetrics := make(map[string]int)
	for _, sm := range samples {
		onMetrics[sm.name]++
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(scrapeBody(t, n, "/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Stats.%s is %s, want int64", f.Name, f.Type)
		}
		if got := onMetrics["objmig_"+promName(f.Name)]; got != 1 {
			t.Errorf("objmig_%s appears %d times on /metrics, want 1", promName(f.Name), got)
		}
		if got := strings.Count(string(vars["objmig"]), `"`+f.Name+`":`); got != 1 {
			t.Errorf("%s appears %d times in /debug/vars, want 1", f.Name, got)
		}
	}
}

// mergedSpans unions the migration spans every node recorded — the
// cross-node raw material a timeline reconstruction works from.
func mergedSpans(nodes []*Node) []telemetry.Span {
	var all []telemetry.Span
	for _, n := range nodes {
		all = append(all, n.TraceSpans()...)
	}
	return all
}

// phasesOf indexes the spans of one trace by phase.
func phasesOf(spans []telemetry.Span, trace uint64) map[telemetry.Phase][]telemetry.Span {
	out := make(map[telemetry.Phase][]telemetry.Span)
	for _, sp := range spans {
		if sp.Trace == trace {
			out[sp.Phase] = append(out[sp.Phase], sp)
		}
	}
	return out
}

// TestMigrationTraceCorrelation: a streamed multi-host group migration
// is annotated with a single TraceID on every node it touches, and
// merging the participants' span rings reconstructs the complete
// timeline — every phase present, timestamps in causal order, byte
// totals agreeing with the stream counters.
func TestMigrationTraceCorrelation(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	// ChunkBytes 1 forces a many-frame transfer: per-snapshot pause
	// sub-batches, one InstallReq frame each, a staging session.
	nodes := testCluster(t, 3, Config{Migrate: MigrateConfig{ChunkBytes: 1}})
	root := mustCreate(t, nodes[0])
	members := []Ref{root}
	for i := 0; i < 4; i++ {
		members = append(members, mustCreate(t, nodes[0]))
	}
	remote := mustCreate(t, nodes[1]) // second host: spans cross nodes
	members = append(members, remote)
	for _, m := range members[1:] {
		if err := nodes[0].Attach(ctx, root, m, NoAlliance); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range members {
		if _, err := Call[int, int](ctx, nodes[0], m, "Add", 10+i); err != nil {
			t.Fatal(err)
		}
	}

	if err := nodes[0].Migrate(ctx, root, "n2"); err != nil {
		t.Fatal(err)
	}

	// Exactly one migration ran, so exactly one trace must appear —
	// on every participating node.
	traces := make(map[uint64]bool)
	for _, sp := range mergedSpans(nodes) {
		if sp.Trace == 0 {
			t.Fatalf("untraced span in the ring: %+v", sp)
		}
		traces[sp.Trace] = true
	}
	if len(traces) != 1 {
		t.Fatalf("one migration produced %d distinct traces", len(traces))
	}
	var trace uint64
	for tr := range traces {
		trace = tr
	}

	// The directory-update spans trail the commit (home updates are
	// batched asynchronously); poll until the timeline is complete.
	want := []telemetry.Phase{
		telemetry.PhasePause, telemetry.PhaseSnapshot, telemetry.PhaseStream,
		telemetry.PhaseStage, telemetry.PhaseInstall, telemetry.PhaseCommit,
		telemetry.PhaseDirUpdate,
	}
	eventually(t, 5*time.Second, func() bool {
		ph := phasesOf(mergedSpans(nodes), trace)
		for _, p := range want {
			if len(ph[p]) == 0 {
				return false
			}
		}
		return true
	}, "merged timeline never gained all phases")

	ph := phasesOf(mergedSpans(nodes), trace)
	minStart := func(p telemetry.Phase) int64 {
		m := ph[p][0].Start
		for _, sp := range ph[p] {
			if sp.Start < m {
				m = sp.Start
			}
		}
		return m
	}
	for p, spans := range ph {
		for _, sp := range spans {
			if sp.Start <= 0 || sp.End < sp.Start {
				t.Fatalf("phase %s span with impossible timestamps: %+v", p, sp)
			}
		}
	}
	// Causal order across nodes: pausing starts before the target
	// stages the first chunk, staging before the install, the install
	// before the coordinator's commit round.
	order := []telemetry.Phase{
		telemetry.PhasePause, telemetry.PhaseStage,
		telemetry.PhaseInstall, telemetry.PhaseCommit,
	}
	for i := 1; i < len(order); i++ {
		if minStart(order[i-1]) > minStart(order[i]) {
			t.Fatalf("phase %s started after %s", order[i-1], order[i])
		}
	}

	// Byte accounting: the coordinator's stream spans must add up to
	// its StreamBytesOut, the target's stage spans to its
	// StreamBytesIn, and the two sides must agree.
	sum := func(p telemetry.Phase) int64 {
		var total int64
		for _, sp := range ph[p] {
			total += sp.Bytes
		}
		return total
	}
	streamed, staged := sum(telemetry.PhaseStream), sum(telemetry.PhaseStage)
	if out := nodes[0].Stats().StreamBytesOut; streamed != out {
		t.Fatalf("stream spans carry %d bytes, coordinator counted %d", streamed, out)
	}
	if in := nodes[2].Stats().StreamBytesIn; staged != in {
		t.Fatalf("stage spans carry %d bytes, target counted %d", staged, in)
	}
	if streamed != staged {
		t.Fatalf("coordinator streamed %d bytes, target staged %d", streamed, staged)
	}
	if installed := sum(telemetry.PhaseInstall); installed != staged {
		t.Fatalf("install span carries %d bytes, staged %d", installed, staged)
	}

	// The same timeline is what each node's Timelines() reports for
	// its local slice of the work.
	for i, n := range nodes {
		tls := n.Timelines()
		if len(tls) != 1 || tls[0].Trace != trace {
			t.Fatalf("node %d timelines: %d entries (want the one trace)", i, len(tls))
		}
	}
}

// TestObserverBufferBackpressure: with a bounded async sink, a stalled
// observer never blocks the hot path — surplus events are shed and
// counted, Close still drains cleanly, and the first shed surfaces as
// one synchronous, rate-limited EventObserverOverflow so operators
// learn about the loss without polling Stats. (The overflow event is
// the only synchronous delivery; observers must handle it quickly.)
func TestObserverBufferBackpressure(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	release := make(chan struct{})
	var delivered, overflows, overflowBytes atomic.Int64
	slow := func(e Event) {
		if e.Kind == EventObserverOverflow {
			overflows.Add(1)
			overflowBytes.Store(e.Bytes)
			return
		}
		<-release
		delivered.Add(1)
	}
	nodes := testCluster(t, 1, Config{Observer: slow, ObserverBuffer: 2})
	n := nodes[0]
	ref := mustCreate(t, n)

	// Each Add emits one event; with the observer stalled, at most
	// ObserverBuffer+1 can be in flight, the rest must be shed without
	// ever blocking an invocation.
	for i := 0; i < 50; i++ {
		if _, err := Call[int, int](ctx, n, ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	dropped := n.Stats().EventsDropped
	if dropped == 0 {
		t.Fatal("stalled observer shed no events")
	}
	// Exactly one overflow notification for the whole burst (the rate
	// limit is a minute), carrying a positive cumulative drop count.
	if got := overflows.Load(); got != 1 {
		t.Fatalf("overflow notifications = %d, want exactly 1", got)
	}
	if overflowBytes.Load() < 1 {
		t.Fatalf("overflow event carried drop count %d, want >= 1", overflowBytes.Load())
	}

	// Unstall and close: the queue drains in order, nothing deadlocks.
	close(release)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if delivered.Load() == 0 {
		t.Fatal("queued events never reached the observer")
	}
	if got := n.Stats().EventsDropped; got < dropped {
		t.Fatalf("drop counter went backwards: %d then %d", dropped, got)
	}
}

// TestEventKindStringsComplete walks every declared kind and fails when
// one was added without a name — the drift guard for EventKind.String.
func TestEventKindStringsComplete(t *testing.T) {
	t.Parallel()
	seen := make(map[string]EventKind)
	for k := EventKind(1); k < eventKindEnd; k++ {
		name := k.String()
		if name == "unknown" {
			t.Errorf("EventKind %d has no String() name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("EventKind %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if eventKindEnd.String() != "unknown" || EventKind(0).String() != "unknown" {
		t.Error("out-of-range kinds must read as unknown")
	}
}
