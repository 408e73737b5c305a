package objmig

// Node-side telemetry: the glue between the runtime's hot paths and
// internal/telemetry, plus the HTTP export surface.
//
// Recording is designed to cost what a counter bump costs: the handles
// in nodeTelemetry are resolved once at node construction, the
// histograms behind them are lock-free and allocation-free, and the
// migration trace ring holds fixed-size spans in a preallocated
// buffer. Counters and gauges are not here at all: they are fields of
// the live Stats (nodestats.go). Everything readable — the Prometheus
// text scrape, the expvar JSON, the migration timelines — pays its
// costs at read time instead.
//
// MetricsHandler returns the surface; objmig-node mounts it with
// -metrics-addr. Endpoints:
//
//	/metrics           Prometheus text: every Stats field, the
//	                   registry's latency histograms (cumulative
//	                   buckets, _sum, _count), frame-pool
//	                   effectiveness, and the placement view's per-peer
//	                   staleness.
//	/debug/vars        expvar JSON (process defaults plus this node's
//	                   Stats snapshot under "objmig").
//	/debug/pprof/...   the standard pprof handlers.
//	/debug/migrations  recent migration timelines, newest first: one
//	                   block per TraceID with its phase spans.
//	/debug/jobs        the migration job table: GET lists every job's
//	                   progress (one greppable line per job); POST
//	                   starts a drain or rebalance (action=drain|
//	                   rebalance) or cancels one (action=cancel&id=N).
//	                   objmig-admin is the CLI front end.
//	/debug/cluster     the cluster as this node sees it: a header naming
//	                   its wire epoch, then one line per peer with
//	                   gossiped health state, utilisation and view
//	                   staleness, aggregated from the placement view —
//	                   no extra collection RPC. objmig-admin top wraps
//	                   it.
//	/debug/flightrec   the black-box flight recorder: POST freezes the
//	                   ring and returns the dump as JSON; GET returns
//	                   the last automatic dump (the one frozen by a
//	                   health transition), 404 if none fired yet.

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"objmig/internal/framebuf"
	"objmig/internal/health"
	"objmig/internal/telemetry"
)

// nodeTelemetry bundles one node's metric handles and its migration
// trace ring. All handles are resolved once, at construction, so the
// recording paths never touch the registry.
type nodeTelemetry struct {
	reg    *telemetry.Registry
	traces *telemetry.TraceLog

	// Hot-path latency histograms (µs).
	invokeLocal  *telemetry.Histogram // local method execution
	invokeRemote *telemetry.Histogram // remote invoke round trip, per hop
	chaseLat     *telemetry.Histogram // whole location chase, local ops excluded

	// phase[p-1] is the duration histogram of migration phase p — fed
	// on every migration, traced or not.
	phase [telemetry.NumPhases]*telemetry.Histogram

	// flightRec is the black-box flight recorder, non-nil only while
	// the health engine runs. Events, traced migration spans and health
	// ticks are mirrored into it allocation-free; the ring is frozen and
	// serialised on a health transition or an explicit dump request.
	flightRec atomic.Pointer[health.Recorder]
}

func newNodeTelemetry() *nodeTelemetry {
	reg := telemetry.NewRegistry()
	t := &nodeTelemetry{
		reg:          reg,
		traces:       telemetry.NewTraceLog(telemetry.DefaultTraceSpans),
		invokeLocal:  reg.Histogram("objmig_invoke_local_us"),
		invokeRemote: reg.Histogram("objmig_invoke_remote_us"),
		chaseLat:     reg.Histogram("objmig_chase_us"),
	}
	// The generated per-phase names, for anyone grepping a scrape:
	// objmig_migration_phase_pause_us, objmig_migration_phase_snapshot_us,
	// objmig_migration_phase_stream_us, objmig_migration_phase_stage_us,
	// objmig_migration_phase_install_us, objmig_migration_phase_commit_us,
	// objmig_migration_phase_dir_update_us.
	for p := telemetry.Phase(1); int(p) <= telemetry.NumPhases; p++ {
		name := "objmig_migration_phase_" + strings.ReplaceAll(p.String(), "-", "_") + "_us"
		t.phase[p-1] = reg.Histogram(name)
	}
	return t
}

// span records one migration phase execution: its duration always
// feeds the phase histogram, and when the migration is traced
// (trace != 0) a fixed-size span lands in the ring for timeline
// reconstruction. Allocation-free on both paths.
func (t *nodeTelemetry) span(trace uint64, phase telemetry.Phase, start time.Time, bytes int64, objects int) {
	end := time.Now()
	t.phase[phase-1].Observe(end.Sub(start).Microseconds())
	if trace == 0 {
		return
	}
	t.traces.Record(telemetry.Span{
		Trace: trace, Phase: phase,
		Start: start.UnixNano(), End: end.UnixNano(),
		Bytes: bytes, Objects: int32(objects),
	})
	if r := t.flightRec.Load(); r != nil {
		r.Record(health.Entry{
			At: end.UnixNano(), Kind: health.EntrySpan,
			Label: phase.String(), Trace: trace,
			Values: [4]int64{start.UnixNano(), end.Sub(start).Microseconds(), bytes, int64(objects)},
		})
	}
}

// nextTrace mints a cluster-unique migration TraceID: the high 32 bits
// identify this node (the same FNV scheme as nextToken), the low 32
// count locally. Minted once per migration decision — explicit
// primitives, move grants, autopilot elections, placement passes — and
// carried by every wire body of the resulting transfer.
func (n *Node) nextTrace() uint64 {
	return n.tokenBase | (n.traceSeq.Add(1) & 0xFFFFFFFF)
}

// Timelines returns the migration timelines reconstructible from this
// node's own span ring, newest first. Cross-node timelines are built
// by merging several nodes' TraceSpans (as the e2e tests and the
// /debug/migrations endpoint of each participant do).
func (n *Node) Timelines() []telemetry.Timeline {
	return telemetry.Timelines(n.tel.traces.Spans())
}

// TraceSpans copies this node's recorded migration spans, oldest
// first — raw material for cross-node timeline merges.
func (n *Node) TraceSpans() []telemetry.Span {
	return n.tel.traces.Spans()
}

// MetricsHandler returns the node's observability surface (see the
// package comment above for the endpoint list). Mount it on any HTTP
// server; objmig-node serves it when started with -metrics-addr.
func (n *Node) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", n.serveMetrics)
	mux.HandleFunc("/debug/vars", n.serveVars)
	mux.HandleFunc("/debug/migrations", n.serveMigrations)
	mux.HandleFunc("/debug/jobs", n.serveJobs)
	mux.HandleFunc("/debug/cluster", n.serveCluster)
	mux.HandleFunc("/debug/flightrec", n.serveFlightrec)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveMetrics renders the Prometheus text exposition: the reflected
// Stats snapshot, the registry, the frame pool and the placement view.
func (n *Node) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	node := string(n.id)

	// Every Stats field becomes one gauge line, named by convention:
	// InvocationsServed → objmig_invocations_served.
	s := n.Stats()
	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		fmt.Fprintf(w, "objmig_%s{node=%q} %d\n", promName(t.Field(i).Name), node, v.Field(i).Int())
	}

	// Each latency histogram is one Prometheus histogram family:
	// cumulative buckets, then _sum and _count, so rate() and
	// histogram_quantile() work against the scrape.
	for _, h := range n.tel.reg.Snapshot() {
		fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name)
		var cum int64
		for b, c := range h.Snap.Counts {
			cum += c
			fmt.Fprintf(w, "%s_bucket{node=%q,le=\"%d\"} %d\n", h.Name, node, telemetry.BucketUpper(b), cum)
		}
		fmt.Fprintf(w, "%s_bucket{node=%q,le=\"+Inf\"} %d\n", h.Name, node, h.Snap.Total)
		fmt.Fprintf(w, "%s_sum{node=%q} %d\n", h.Name, node, h.Snap.Sum)
		fmt.Fprintf(w, "%s_count{node=%q} %d\n", h.Name, node, h.Snap.Total)
	}

	hits, misses := framebuf.Stats()
	fmt.Fprintf(w, "objmig_framebuf_pool_hits_total{node=%q} %d\n", node, hits)
	fmt.Fprintf(w, "objmig_framebuf_pool_misses_total{node=%q} %d\n", node, misses)
	fmt.Fprintf(w, "objmig_trace_spans_total{node=%q} %d\n", node, n.tel.traces.Total())

	// Gossip staleness, per peer: how old this node's view of each
	// fresh peer sample is. Stale (TTL-pruned) peers disappear.
	if d := n.placementDaemonRef(); d != nil {
		ages, _ := d.view.Ages(n.id)
		for _, pa := range ages {
			fmt.Fprintf(w, "objmig_placement_view_age_us{node=%q,peer=%q} %d\n",
				node, string(pa.Node), pa.Age.Microseconds())
		}
	}
}

// promName converts a Stats field name to its metric suffix:
// StreamMaxChunkBytes → stream_max_chunk_bytes, ChaseP50Hops →
// chase_p50_hops.
func promName(field string) string {
	var b strings.Builder
	for i, r := range field {
		if r >= 'A' && r <= 'Z' {
			if i > 0 && (field[i-1] < 'A' || field[i-1] > 'Z') {
				b.WriteByte('_')
			}
			b.WriteByte(byte(r) + ('a' - 'A'))
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// serveJobs is the migration job table's HTTP face. GET renders one
// greppable line per job; POST with action=drain or action=rebalance
// plans and starts a job (executed on a tracked node goroutine, so it
// survives the request), and action=cancel&id=N requests a wave-
// boundary cancellation. objmig-admin wraps this endpoint.
func (n *Node) serveJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		n.serveJobAction(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	sts := n.Jobs()
	fmt.Fprintf(w, "node %s: %d jobs\n", n.id, len(sts))
	for _, st := range sts {
		fmt.Fprintf(w, "job %d kind=%s state=%s waves=%d/%d moves=%d/%d skipped=%d failed=%d retargets=%d objects=%d bytes=%d unplaced=%d trace=%016x",
			st.ID, st.Kind, st.State, st.NextWave, st.Waves,
			st.MovesDone, st.Moves, st.MovesSkipped, st.MovesFailed,
			st.Retargets, st.ObjectsMoved, st.BytesMoved, st.Unplaced, st.Trace)
		if st.Err != "" {
			fmt.Fprintf(w, " err=%q", st.Err)
		}
		fmt.Fprintln(w)
	}
}

// serveJobAction handles the POST verbs of /debug/jobs.
func (n *Node) serveJobAction(w http.ResponseWriter, r *http.Request) {
	switch r.FormValue("action") {
	case "drain":
		j, err := n.NewDrainJob(JobConfig{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		n.spawn(func() { _ = j.Execute(context.Background()) })
		fmt.Fprintf(w, "job %d started kind=%s moves=%d\n", j.ID(), j.Kind(), j.Status().Moves)
	case "rebalance":
		j, err := n.NewRebalanceJob(r.Context(), JobConfig{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		n.spawn(func() { _ = j.Execute(context.Background()) })
		fmt.Fprintf(w, "job %d started kind=%s moves=%d\n", j.ID(), j.Kind(), j.Status().Moves)
	case "cancel":
		id, err := strconv.ParseUint(r.FormValue("id"), 10, 64)
		if err != nil {
			http.Error(w, "cancel needs a numeric id", http.StatusBadRequest)
			return
		}
		j, ok := n.JobByID(id)
		if !ok {
			http.Error(w, fmt.Sprintf("no job %d", id), http.StatusNotFound)
			return
		}
		j.Cancel()
		fmt.Fprintf(w, "job %d cancel requested\n", id)
	default:
		http.Error(w, "action must be drain, rebalance or cancel", http.StatusBadRequest)
	}
}

// serveVars renders expvar-compatible JSON: the process-level expvar
// defaults (cmdline, memstats) plus this node's Stats under "objmig".
func (n *Node) serveVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
	})
	b, err := json.Marshal(n.Stats())
	if err != nil {
		b = []byte("{}")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "objmig", b)
}

// serveMigrations lists the node's recent migration timelines, newest
// first: one block per TraceID with its locally recorded phase spans.
// A cross-node view is the union of each participant's listing for the
// same TraceID.
func (n *Node) serveMigrations(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tls := n.Timelines()
	fmt.Fprintf(w, "node %s: %d traced migrations in window (%d spans recorded total)\n",
		n.id, len(tls), n.tel.traces.Total())
	if ev := n.tel.traces.Evicted(); ev > 0 {
		fmt.Fprintf(w, "WARNING: ring evicted %d spans — the oldest timelines below are truncated\n", ev)
	}
	fmt.Fprintln(w)
	for _, tl := range tls {
		var bytes int64
		for _, sp := range tl.Spans {
			bytes += sp.Bytes
		}
		fmt.Fprintf(w, "trace %016x  %d spans  %d bytes\n", tl.Trace, len(tl.Spans), bytes)
		for _, sp := range tl.Spans {
			fmt.Fprintf(w, "  %s\n", sp)
		}
		fmt.Fprintln(w)
	}
}
