package objmig

// The cluster health engine: a per-node background daemon that samples
// the node's own telemetry on a fixed tick, evaluates windowed SLOs
// over it (internal/health) and classifies the node healthy, degraded
// or critical. The verdict is cheap to read (one atomic), rides the
// existing load-gossip fast path to every peer (wire.NodeLoad.Health),
// and feeds back into placement: degraded nodes score at a fraction of
// their weight, critical nodes are vetoed outright — both remotely (a
// peer stops electing them) and locally (admitAndReserve refuses
// inbound migrations while critical).
//
// Alongside the evaluator runs the black-box flight recorder: a
// bounded ring of recent events, traced migration spans and health
// ticks. The moment the node transitions *upward* (healthy→degraded,
// degraded→critical, healthy→critical) the ring is frozen and
// serialised with the offending window's numbers — the forensic record
// exists before anyone asks for it. Operators can also dump on demand
// (Node.DumpFlightRecorder, POST /debug/flightrec, objmig-admin dump).
//
// See docs/health.md for the signal table, threshold semantics and the
// runbook.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/health"
	"objmig/internal/telemetry"
	"objmig/internal/wire"
)

// HealthState classifies a node. The numeric values ride the load
// gossip (wire.NodeLoad.Health) and the objmig_health_state scrape
// line, so they are part of the wire surface: healthy < degraded <
// critical.
type HealthState uint8

const (
	// HealthHealthy: every SLO signal inside its warning bound.
	HealthHealthy HealthState = iota
	// HealthDegraded: at least one signal breached its warning bound
	// for RaiseAfter consecutive ticks. Placement discounts the node;
	// job planners stop electing it as a receiver.
	HealthDegraded
	// HealthCritical: a signal breached its critical bound. Placement
	// vetoes the node, admission refuses inbound migrations, and
	// rebalance planners drain it with priority.
	HealthCritical
)

// String names the state as it appears in events, dumps and scrapes.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// HealthBound is one signal's SLO thresholds. The zero value selects
// the documented default for that signal; a negative Warn disables the
// signal entirely. A windowed value >= Warn argues for degraded,
// >= Crit for critical (Crit <= 0 disables only the critical level).
type HealthBound struct {
	Warn int64
	Crit int64
}

// HealthConfig tunes the health engine (see EnableHealth). The zero
// value selects the documented defaults throughout.
type HealthConfig struct {
	// Tick is the sampling period. Default 1s.
	Tick time.Duration
	// Window is the sliding evaluation window: every verdict is
	// computed over the telemetry delta between now and Window ago,
	// so a burst ages out instead of poisoning the p99 forever.
	// Default 30s; rounded to whole ticks, minimum one tick.
	Window time.Duration
	// RaiseAfter is how many consecutive breaching ticks promote the
	// state (hysteresis against flapping). Default 2.
	RaiseAfter int
	// ClearAfter is how many consecutive clean ticks demote it.
	// Default 3.
	ClearAfter int

	// Latency signals, thresholds in microseconds against the
	// window's p99.
	InvokeLocalP99    HealthBound // local method execution; default 100ms / 1s
	InvokeRemoteP99   HealthBound // remote invoke round trip; default 250ms / 2s
	ChaseP99          HealthBound // whole location chase; default 250ms / 2s
	MigrationPhaseP99 HealthBound // any migration phase; default 1s / 10s

	// Rate signals, thresholds in events per window.
	StreamAborts     HealthBound // aborted staging sessions; default 4 / 16
	PauseExpiries    HealthBound // pause leases expired; default 2 / 8
	ChasesOverBudget HealthBound // chases past the hop budget; default 16 / 64
	EventsDropped    HealthBound // observer events shed; default 64 / 1024
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.RaiseAfter <= 0 {
		c.RaiseAfter = 2
	}
	if c.ClearAfter <= 0 {
		c.ClearAfter = 3
	}
	def := func(b *HealthBound, warn, crit int64) {
		if b.Warn < 0 {
			*b = HealthBound{}
			return
		}
		if b.Warn == 0 {
			b.Warn = warn
		}
		if b.Crit == 0 {
			b.Crit = crit
		}
		if b.Crit < 0 {
			b.Crit = 0
		}
	}
	def(&c.InvokeLocalP99, 100_000, 1_000_000)
	def(&c.InvokeRemoteP99, 250_000, 2_000_000)
	def(&c.ChaseP99, 250_000, 2_000_000)
	def(&c.MigrationPhaseP99, 1_000_000, 10_000_000)
	def(&c.StreamAborts, 4, 16)
	def(&c.PauseExpiries, 2, 8)
	def(&c.ChasesOverBudget, 16, 64)
	def(&c.EventsDropped, 64, 1024)
	return c
}

// evalConfig lowers the public config into the evaluator's form. Call
// on a withDefaults result only.
func (c HealthConfig) evalConfig() health.Config {
	ticks := int(c.Window / c.Tick)
	if c.Window%c.Tick != 0 {
		ticks++
	}
	ec := health.Config{
		// +1 ring slots: a window of N ticks needs N+1 edges.
		WindowTicks: ticks + 1,
		RaiseAfter:  c.RaiseAfter,
		ClearAfter:  c.ClearAfter,
	}
	th := func(b HealthBound) health.Threshold { return health.Threshold{Warn: b.Warn, Crit: b.Crit} }
	ec.Thresholds[health.SigInvokeLocalP99] = th(c.InvokeLocalP99)
	ec.Thresholds[health.SigInvokeRemoteP99] = th(c.InvokeRemoteP99)
	ec.Thresholds[health.SigChaseP99] = th(c.ChaseP99)
	ec.Thresholds[health.SigMigrationPhaseP99] = th(c.MigrationPhaseP99)
	ec.Thresholds[health.SigStreamAborts] = th(c.StreamAborts)
	ec.Thresholds[health.SigPauseExpiries] = th(c.PauseExpiries)
	ec.Thresholds[health.SigChasesOverBudget] = th(c.ChasesOverBudget)
	ec.Thresholds[health.SigEventsDropped] = th(c.EventsDropped)
	return ec
}

// healthDaemon evaluates the node's health on a fixed tick. It owns
// the evaluator (single-goroutine, no locking on the hot path) and
// publishes only through atomics: the live Stats.HealthState for the
// verdict (read by Health(), the gossip and the scrape alike),
// n.lastDump for the frozen automatic dump. rec is its flight recorder
// (health.DefaultRecorderSize entries), mirrored in n.tel while the
// daemon runs.
type healthDaemon struct {
	daemon
	node *Node
	cfg  HealthConfig
	eval *health.Evaluator
	rec  *health.Recorder

	// last is the most recent verdict, kept for manual dumps (the
	// daemon goroutine owns eval; readers get a copy via verdict()).
	lastMu sync.Mutex
	last   health.Verdict
}

func (d *healthDaemon) setVerdict(v health.Verdict) {
	d.lastMu.Lock()
	d.last = v
	d.lastMu.Unlock()
}

func (d *healthDaemon) verdict() health.Verdict {
	d.lastMu.Lock()
	defer d.lastMu.Unlock()
	return d.last
}

// EnableHealth starts the health engine. Fails if it is already
// running or the node is closed. The engine needs no peers and no
// other daemon — but its verdict only reaches the rest of the cluster
// through the load gossip, so pair it with EnablePlacement for
// health-aware placement.
func (n *Node) EnableHealth(cfg HealthConfig) error {
	cfg = cfg.withDefaults()
	d := &healthDaemon{node: n, cfg: cfg, eval: health.NewEvaluator(cfg.evalConfig()),
		rec: health.NewRecorder(health.DefaultRecorderSize)}
	return startDaemon(n, "health engine", &n.hl, d, func() { n.tel.flightRec.Store(d.rec) },
		periodic{cfg.Tick, d.tick})
}

// DisableHealth stops the engine and waits for its goroutine. The
// node's state resets to healthy — a stopped evaluator must not keep
// advertising stale sickness — and the flight recorder detaches.
// Idempotent; Close calls it.
func (n *Node) DisableHealth() {
	if stopDaemon(n, &n.hl, nil) {
		atomic.StoreInt64(&n.stats.HealthState, int64(HealthHealthy))
		n.tel.flightRec.Store(nil)
	}
}

// HealthEnabled reports whether the engine is running.
func (n *Node) HealthEnabled() bool { return runningDaemon(n, &n.hl) != nil }

// Health returns the node's current health classification. Always
// HealthHealthy while the engine is disabled.
func (n *Node) Health() HealthState {
	return HealthState(atomic.LoadInt64(&n.stats.HealthState))
}

// DumpFlightRecorder freezes the flight-recorder ring right now and
// returns it serialised as JSON, stamped with the latest verdict and
// reason "manual". Fails when the engine is off.
func (n *Node) DumpFlightRecorder() ([]byte, error) {
	d := runningDaemon(n, &n.hl)
	if d == nil {
		return nil, fmt.Errorf("objmig: health engine not enabled on %s", n.id)
	}
	atomic.AddInt64(&n.stats.HealthDumps, 1)
	return d.rec.Dump(string(n.id), "manual", d.verdict()).JSON(), nil
}

// LastFlightDump returns the most recent automatic dump — the JSON the
// engine froze when the node last transitioned upward — or nil if no
// transition has fired one yet.
func (n *Node) LastFlightDump() []byte {
	p := n.lastDump.Load()
	if p == nil {
		return nil
	}
	return *p
}

// tick takes one telemetry sample, evaluates it and publishes the
// verdict. Sampling reads only lock-free handles; the single
// allocation-sensitive path (health.Evaluator.Tick) is covered by
// BenchmarkHealthTick's 0 allocs/op budget.
func (d *healthDaemon) tick() {
	n := d.node
	s := health.Sample{At: time.Now().UnixNano()}
	s.Hists[health.SigInvokeLocalP99] = n.tel.invokeLocal.Snapshot()
	s.Hists[health.SigInvokeRemoteP99] = n.tel.invokeRemote.Snapshot()
	s.Hists[health.SigChaseP99] = n.tel.chaseLat.Snapshot()
	// The migration-phase signal watches every phase at once: the
	// seven phase histograms merge into one distribution, so a stall
	// in any phase drags the merged p99.
	var merged telemetry.HistSnapshot
	for _, ph := range n.tel.phase {
		snap := ph.Snapshot()
		for b := range snap.Counts {
			merged.Counts[b] += snap.Counts[b]
		}
		merged.Sum += snap.Sum
		merged.Total += snap.Total
	}
	s.Hists[health.SigMigrationPhaseP99] = merged
	s.Counters[health.SigStreamAborts-health.NumHists] = atomic.LoadInt64(&n.stats.StreamAborts)
	s.Counters[health.SigPauseExpiries-health.NumHists] = atomic.LoadInt64(&n.stats.PauseLeasesExpired)
	s.Counters[health.SigChasesOverBudget-health.NumHists] = atomic.LoadInt64(&n.stats.ChasesOverBudget)
	s.Counters[health.SigEventsDropped-health.NumHists] = n.eventsDropped()

	v := d.eval.Tick(s)
	d.setVerdict(v)
	atomic.StoreInt64(&n.stats.HealthState, int64(v.State))
	atomic.AddInt64(&n.stats.HealthTicks, 1)
	d.rec.Record(health.Entry{
		At: s.At, Kind: health.EntryHealth,
		Label: v.State.String(), Node: string(n.id),
		Values: [4]int64{int64(v.Level), int64(v.Worst), v.Values[v.Worst], int64(v.Prev)},
	})
	if !v.Changed {
		return
	}
	switch HealthState(v.State) {
	case HealthDegraded:
		atomic.AddInt64(&n.stats.HealthDegraded, 1)
	case HealthCritical:
		atomic.AddInt64(&n.stats.HealthCritical, 1)
	}
	if v.State > v.Prev {
		// Upward transition: freeze the black box before anything
		// else overwrites it. The dump carries the verdict that
		// triggered it — the offending window's numbers.
		raw := d.rec.Dump(string(n.id), "transition", v).JSON()
		n.lastDump.Store(&raw)
		atomic.AddInt64(&n.stats.HealthDumps, 1)
	}
	n.emit(Event{Kind: EventHealth, Outcome: v.State.String(), Hops: int(v.Prev)})
}

// serveCluster renders the cluster as this node sees it: a header
// naming this build's wire epoch (peers of another epoch are refused at
// dial, so they never appear), then its own row plus one row per fresh
// peer sample in the placement view, with the gossiped health state,
// utilisation and sample staleness. No collection RPC — everything here
// already arrived on the gossip.
func (n *Node) serveCluster(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	type row struct {
		node          NodeID
		health        HealthState
		objs, bytes   int64
		cap, capBytes int64
		age           time.Duration
		self          bool
	}
	objs, bytes := n.store.HostedStats()
	rows := []row{{
		node: n.id, health: n.Health(),
		objs: objs, bytes: bytes,
		cap: n.capacity, capBytes: n.capBytes,
		self: true,
	}}
	if d := n.placementDaemonRef(); d != nil {
		ages, _ := d.view.Ages(n.id)
		byNode := make(map[NodeID]time.Duration, len(ages))
		for _, pa := range ages {
			byNode[pa.Node] = pa.Age
		}
		for _, s := range d.view.Snapshot() {
			if s.Node == n.id {
				continue
			}
			rows = append(rows, row{
				node: s.Node, health: HealthState(s.Health),
				objs: s.Objects, bytes: s.Bytes,
				cap: s.Capacity, capBytes: s.CapBytes,
				age: byNode[s.Node],
			})
		}
	}
	fmt.Fprintf(w, "node %s: cluster view, %d nodes, wire epoch %d\n", n.id, len(rows), wire.Epoch)
	fmt.Fprintf(w, "%-12s %-10s %8s %12s %8s %10s %8s\n",
		"NODE", "HEALTH", "OBJECTS", "BYTES", "UTIL", "AGE", "")
	for _, r := range rows {
		util := 0.0
		if r.cap > 0 {
			util = float64(r.objs) / float64(r.cap)
		}
		if r.capBytes > 0 {
			if bu := float64(r.bytes) / float64(r.capBytes); bu > util {
				util = bu
			}
		}
		tag := ""
		if r.self {
			tag = "(self)"
		}
		fmt.Fprintf(w, "%-12s %-10s %8d %12d %7.2f%% %10s %8s\n",
			r.node, r.health, r.objs, r.bytes, util*100,
			r.age.Truncate(time.Millisecond), tag)
	}
}

// serveFlightrec is the flight recorder's HTTP face: POST freezes the
// ring and returns the dump (objmig-admin dump wraps it); GET returns
// the last automatic dump, 404 when no transition has fired one.
func (n *Node) serveFlightrec(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		raw, err := n.DumpFlightRecorder()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = w.Write(raw)
	case http.MethodGet:
		raw := n.LastFlightDump()
		if raw == nil {
			http.Error(w, "no automatic dump recorded", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = w.Write(raw)
	default:
		http.Error(w, "GET (last automatic dump) or POST (dump now)", http.StatusMethodNotAllowed)
	}
}
