package objmig

// Cluster placement: the live runtime's glue around the
// internal/placement engine. Three pieces live here:
//
//   - The load sampler and gossip. Each placement-enabled node
//     periodically samples its own load (hosted objects, resident
//     bytes, an EWMA-smoothed invoke rate, the configured Capacity)
//     into a wire.NodeLoad. Samples ride a low-rate heartbeat
//     (wire.KLoadGossip, answered with the receiver's own sample so
//     one round trip teaches both ends) and piggyback on HomeUpdate
//     request/response bodies, so the nodes that migrate objects at
//     each other converge on a decaying view of each other's load
//     without a dedicated gossip mesh.
//
//   - The origin pre-placement pass. Origins accumulate affinity
//     gossip for objects they created (departing hosts ship their
//     observations home), so an origin often knows who uses a freshly
//     created object before the object has ever been hot locally. The
//     pass periodically runs the placement engine over home objects
//     still hosted here and pre-places them — closure by closure —
//     near their likely callers.
//
//   - The target-side admission veto. The same overload predicate the
//     engine applies with gossiped samples runs here with the node's
//     authoritative local counts: a migration that would push this
//     node past Capacity×OverloadRatio is refused when its opening
//     install frame arrives, so converging traffic is back-pressured
//     even when the coordinators' views are stale.
//
// The autopilot's election (autopilot.go) is the third consumer of the
// engine and of this daemon's view: while placement runs, the closures
// the autopilot scores are load-discounted and overload-vetoed too.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/jobs"
	"objmig/internal/placement"
	"objmig/internal/stats"
	"objmig/internal/wire"
)

// PlacementConfig tunes a node's placement subsystem. The zero value
// selects the documented defaults.
type PlacementConfig struct {
	// Heartbeat is the load-gossip period: every Heartbeat the node
	// re-samples its own load and exchanges samples with its known
	// peers. Default 500ms; negative disables the heartbeat (samples
	// then travel only as HomeUpdate piggybacks).
	Heartbeat time.Duration
	// OverloadRatio is the veto threshold shared by scoring and
	// admission: a node whose projected utilisation — hosted objects
	// plus the incoming group, over its Capacity — exceeds this is not
	// a migration target. Default 1.
	OverloadRatio float64
	// LoadDiscount scales how strongly a candidate's utilisation
	// discounts its affinity score. Default 1; negative disables the
	// discount (veto only).
	LoadDiscount float64
	// Hysteresis is the election bar: the winner's discounted score
	// must exceed the strongest rival by this factor. Values below 1
	// are raised to 1; zero selects the default 2.
	Hysteresis float64
	// OriginPass is the origin pre-placement scan period. Default 1s;
	// negative disables the pass.
	OriginPass time.Duration
	// MinTotal is the pressure floor for the origin pass: home objects
	// with less accumulated (gossiped plus observed) pressure are not
	// considered. Default 16.
	MinTotal int64
	// BudgetPerPass caps group migrations per origin pass. Default 2.
	BudgetPerPass int
	// Cooldown is the per-object minimum time between origin-pass
	// migrations. Default 10× OriginPass.
	Cooldown time.Duration
	// Alliance is the cooperation context whose attachment closure
	// travels with a pre-placed object (same semantics as
	// AutopilotConfig.Alliance).
	Alliance AllianceID
	// ShedRatio arms proactive shedding: when the node's own
	// utilisation (the worse of its object-count and byte dimensions)
	// exceeds this, the shed pass migrates its coldest closures towards
	// peers with headroom until utilisation is back at or below the
	// ratio. Must be positive and below OverloadRatio — shedding has to
	// trigger before the admission veto slams shut. 0 disables
	// shedding.
	ShedRatio float64
	// ShedPass is the shed scan period. Default 1s; negative disables
	// the pass even when ShedRatio is set.
	ShedPass time.Duration
}

// withDefaults fills the zero fields.
func (c PlacementConfig) withDefaults() PlacementConfig {
	if c.Heartbeat == 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.OverloadRatio == 0 {
		c.OverloadRatio = 1
	}
	if c.LoadDiscount == 0 {
		c.LoadDiscount = 1
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 2
	} else if c.Hysteresis < 1 {
		c.Hysteresis = 1
	}
	if c.OriginPass == 0 {
		c.OriginPass = time.Second
	}
	if c.MinTotal <= 0 {
		c.MinTotal = 16
	}
	if c.BudgetPerPass <= 0 {
		c.BudgetPerPass = 2
	}
	if c.Cooldown == 0 {
		c.Cooldown = 10 * c.OriginPass
		if c.Cooldown < 0 { // OriginPass disabled: pick a plain default
			c.Cooldown = 10 * time.Second
		}
	}
	if c.ShedPass == 0 {
		c.ShedPass = time.Second
	}
	return c
}

// engineOptions maps the config onto the scoring core's options. A
// degraded candidate's score is multiplied by the engine's default
// penalty (0.25); critical candidates are vetoed outright.
func (c PlacementConfig) engineOptions() placement.Options {
	return placement.Options{
		Hysteresis:    c.Hysteresis,
		OverloadRatio: c.OverloadRatio,
		LoadDiscount:  c.LoadDiscount,
	}
}

// placementDaemon is one node's running placement subsystem.
type placementDaemon struct {
	daemon
	node *Node
	cfg  PlacementConfig
	view *placement.View

	rate *stats.EWMA // smoothed invoke rate; daemon-goroutine owned
	// last heartbeat's reference point for the rate computation
	lastServed int64
	lastTick   time.Time

	cool cooldowns
}

// EnablePlacement starts the node's placement subsystem: the load
// sampler and gossip heartbeat, the decaying cluster view, the origin
// pre-placement pass, and the target-side admission veto (the latter
// only bites when Config.Capacity is set). Enabling placement also
// turns the affinity tracker on — the engine scores with its counters
// and the gossip that merges into them. With the autopilot enabled as
// well, its election scores against this daemon's load view.
func (n *Node) EnablePlacement(cfg PlacementConfig) error {
	if n.closed.Load() {
		return ErrClosed
	}
	cfg = cfg.withDefaults()
	if cfg.ShedRatio < 0 {
		return fmt.Errorf("objmig: placement ShedRatio must be >= 0, got %v", cfg.ShedRatio)
	}
	if cfg.ShedRatio > 0 && cfg.ShedRatio >= cfg.OverloadRatio {
		return fmt.Errorf("objmig: placement ShedRatio (%v) must be below OverloadRatio (%v): shedding has to trigger before the admission veto",
			cfg.ShedRatio, cfg.OverloadRatio)
	}
	// A peer sample older than eight heartbeats (at least 2s) is ignored,
	// and the headroom discount fades linearly towards that age.
	d := &placementDaemon{
		node:     n,
		cfg:      cfg,
		view:     placement.NewView(max(8*cfg.Heartbeat, 2*time.Second)),
		rate:     stats.NewEWMA(0),
		lastTick: time.Now(),
		cool:     newCooldowns(cfg.Cooldown),
	}
	// The sampler runs even when the heartbeat RPCs are disabled
	// (negative Heartbeat) — the HomeUpdate piggybacks must never carry
	// a frozen enable-time sample.
	sample := cfg.Heartbeat
	if sample <= 0 {
		sample = 500 * time.Millisecond
	}
	shedEvery := cfg.ShedPass
	if cfg.ShedRatio <= 0 {
		shedEvery = -1
	}
	return startDaemon(n, "placement", &n.pl, d, func() {
		n.useAffinity(+1)
		n.refreshLoadSample(d)
	}, periodic{sample, d.heartbeat}, periodic{cfg.OriginPass, d.originPass}, periodic{shedEvery, d.shedPass})
}

// DisablePlacement stops the placement subsystem. It blocks until the
// daemon (and any migration its origin pass is driving) has wound
// down. Safe to call when placement is not running.
func (n *Node) DisablePlacement() {
	stopDaemon(n, &n.pl, func() { n.useAffinity(-1) })
}

// PlacementEnabled reports whether the placement subsystem is running.
func (n *Node) PlacementEnabled() bool { return n.placementDaemonRef() != nil }

// placementDaemonRef returns the running daemon, if any.
func (n *Node) placementDaemonRef() *placementDaemon { return runningDaemon(n, &n.pl) }

// LoadView reports the node's current placement view — its own latest
// sample plus every fresh peer sample — for operators and tests.
// Empty when placement is disabled.
func (n *Node) LoadView() []NodeLoad {
	d := n.placementDaemonRef()
	if d == nil {
		return nil
	}
	snaps := d.view.Snapshot()
	out := make([]NodeLoad, len(snaps))
	for i, s := range snaps {
		out[i] = NodeLoad{Node: s.Node, Objects: s.Objects, Bytes: s.Bytes,
			RateMilli: s.RateMilli, Capacity: s.Capacity, CapacityBytes: s.CapBytes,
			Health: HealthState(s.Health)}
	}
	return out
}

// NodeLoad is one node's load sample in LoadView's report.
type NodeLoad struct {
	Node          NodeID      // the sampled node
	Objects       int64       // live hosted objects
	Bytes         int64       // approximate resident state bytes
	RateMilli     int64       // smoothed invocations/second ×1000
	Capacity      int64       // configured object capacity (0 = uncapped)
	CapacityBytes int64       // configured byte capacity (0 = uncapped)
	Health        HealthState // gossiped health state
}

// heartbeat re-samples the node's load and, unless the heartbeat RPCs
// are disabled, gossips the sample.
func (d *placementDaemon) heartbeat() {
	load := d.node.refreshLoadSample(d)
	if d.cfg.Heartbeat > 0 {
		d.gossip(load)
	}
}

// gossip exchanges the node's latest sample with every known peer
// (configured peers, peers in the view, and the callers the affinity
// tracker has seen).
func (d *placementDaemon) gossip(load wire.NodeLoad) {
	n := d.node
	peers := d.gossipPeers()
	if len(peers) == 0 {
		return
	}
	// Derived from the daemon's context: shutdown must not wait out
	// slow peers.
	ctx, cancel := context.WithTimeout(d.ctx, d.cfg.Heartbeat*4+time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, peer := range peers {
		wg.Add(1)
		go func(peer NodeID) {
			defer wg.Done()
			var resp wire.LoadGossipResp
			if err := n.call(ctx, peer, wire.KLoadGossip, &wire.LoadGossipReq{Load: load}, &resp); err != nil {
				return
			}
			atomic.AddInt64(&n.stats.LoadGossipSent, 1)
			n.observeLoad(&resp.Load)
		}(peer)
	}
	wg.Wait()
}

// refreshLoadSample rebuilds the node's own load sample, updates the
// smoothed invoke rate, caches the sample for piggybacks and folds it
// into the node's own view (the engine scores self and peers alike).
func (n *Node) refreshLoadSample(d *placementDaemon) wire.NodeLoad {
	objs, bytes := n.store.HostedStats()
	served := atomic.LoadInt64(&n.stats.InvocationsServed)
	now := time.Now()
	if dt := now.Sub(d.lastTick).Seconds(); dt > 0 {
		d.rate.Observe(float64(served-d.lastServed) / dt)
	}
	d.lastServed, d.lastTick = served, now
	load := wire.NodeLoad{
		Node:      n.id,
		Objects:   objs,
		Bytes:     bytes,
		RateMilli: int64(d.rate.Value() * 1000),
		Capacity:  n.capacity,
		CapBytes:  n.capBytes,
		Seq:       n.loadSeq.Add(1),
		Health:    uint8(n.Health()),
	}
	n.lastLoad.Store(&load)
	d.view.Observe(placementSample(&load))
	// The view's worst-case staleness is the one number that tells an
	// operator whether placement decisions run on live or fossil data.
	_, maxAge := d.view.Ages(n.id)
	atomic.StoreInt64(&n.stats.PlacementViewAgeMaxUs, maxAge.Microseconds())
	return load
}

// cachedLoadSample returns the node's latest self-sample for
// piggybacking, or nil when placement is disabled.
func (n *Node) cachedLoadSample() *wire.NodeLoad {
	if n.placementDaemonRef() == nil {
		return nil
	}
	return n.lastLoad.Load()
}

// observeLoad folds a received sample into the placement view.
func (n *Node) observeLoad(load *wire.NodeLoad) {
	if load == nil || load.Node == "" || load.Node == n.id {
		return
	}
	d := n.placementDaemonRef()
	if d == nil {
		return
	}
	atomic.AddInt64(&n.stats.LoadGossipReceived, 1)
	d.view.Observe(placementSample(load))
}

// placementSample converts the wire form into the engine's.
func placementSample(l *wire.NodeLoad) placement.Sample {
	return placement.Sample{Node: l.Node, Objects: l.Objects, Bytes: l.Bytes,
		RateMilli: l.RateMilli, Capacity: l.Capacity, CapBytes: l.CapBytes, Seq: l.Seq,
		Health: l.Health}
}

// handleLoadGossip serves a heartbeat: fold the sender's sample in,
// answer with our own.
func (n *Node) handleLoadGossip(req *wire.LoadGossipReq) (*wire.LoadGossipResp, error) {
	n.observeLoad(&req.Load)
	resp := &wire.LoadGossipResp{}
	if self := n.cachedLoadSample(); self != nil {
		resp.Load = *self
	}
	return resp, nil
}

// gossipPeers collects the nodes worth heartbeating: the configured
// address book, every peer with a fresh sample in the view, and the
// callers the affinity tracker has observed.
func (d *placementDaemon) gossipPeers() []NodeID {
	n := d.node
	seen := make(map[NodeID]bool)
	n.cfgMu.RLock()
	for id := range n.peers {
		seen[id] = true
	}
	n.cfgMu.RUnlock()
	for _, id := range d.view.Nodes() {
		seen[id] = true
	}
	for _, id := range n.aff.CallerNodes() {
		seen[id] = true
	}
	delete(seen, n.id)
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// originPass pre-places home objects: the engine runs over the
// affinity this origin has accumulated — much of it gossip from
// departing hosts — and migrates closures towards their likely
// callers, within the pass budget.
func (d *placementDaemon) originPass() {
	n := d.node
	atomic.AddInt64(&n.stats.PlacementScans, 1)
	var anchors []core.OID
	for _, h := range n.aff.Hot(d.cfg.MinTotal) {
		// Home objects only: the pass is the origin acting on its own
		// accumulated gossip, not a second autopilot.
		if h.Obj.Origin == n.id {
			anchors = append(anchors, h.Obj)
		}
	}
	n.optimise(d.ctx, pass{
		cool:     &d.cool,
		alliance: d.cfg.Alliance,
		budget:   d.cfg.BudgetPerPass,
		anchors:  anchors,
		elect: func(g placement.Group) (placement.Decision, bool) {
			return placement.Score(g, d.view, d.cfg.engineOptions())
		},
		moved: func(anchor core.OID, to NodeID, ids []core.OID, _ placement.Group) {
			n.placementMoved("origin", anchor, to, ids)
		},
	})
}

// placementMoved accounts one migration the engine elected: the
// counters, and the EventPlacement whose outcome names the pass.
func (n *Node) placementMoved(outcome string, anchor core.OID, to NodeID, ids []core.OID) {
	atomic.AddInt64(&n.stats.PlacementMigrations, 1)
	atomic.AddInt64(&n.stats.PlacementObjectsMoved, int64(len(ids)))
	n.emit(Event{Kind: EventPlacement, Obj: Ref{OID: anchor}, Target: to,
		Outcome: outcome, Objects: oidRefs(ids)})
}

// groupAffinity aggregates the affinity tracker's counters over an
// attachment closure: the scoring engine's Group input. Members hosted
// elsewhere contribute nothing — this node can only speak for the
// pressure it has observed (or been gossiped).
func (n *Node) groupAffinity(members map[core.OID]NodeID) placement.Group {
	g := placement.Group{Self: n.id, Members: len(members),
		PerNode: make(map[core.NodeID]int64)}
	for oid, host := range members {
		if host != n.id {
			continue
		}
		l := n.aff.Load(oid)
		g.Local += l.Local
		for _, c := range l.Callers {
			g.PerNode[c.Node] += c.Count
		}
		if rec, ok := n.store.Get(oid); ok {
			g.Bytes += rec.StateBytes
		}
	}
	return g
}

// selfSample is the node's authoritative local load sample — what a
// peer would see gossiped, read directly from the store.
func (n *Node) selfSample() placement.Sample {
	hosted, bytes := n.store.HostedStats()
	return placement.Sample{Node: n.id, Objects: hosted, Bytes: bytes,
		Capacity: n.capacity, CapBytes: n.capBytes}
}

// admitAndReserve is the target-side admission veto, now exact: the
// engine's overload predicate evaluated with this node's authoritative
// counts, atomically with a reservation claim in the ledger so N
// concurrent coordinators racing this target cannot collectively
// overshoot its capacity. Objects already present (hosted or paused
// here) do not count as incoming, so same-node reshuffles and
// returning objects are never vetoed. bytes is the coordinator's
// estimate of the group's snapshot footprint; token keys the claim
// alongside the staging session, whose record owns releasing it (see
// commitSession and end). A nil error admits the migration.
func (n *Node) admitAndReserve(objs []core.OID, bytes int64, from NodeID, token uint64) error {
	draining := n.draining.Load()
	critical := n.Health() >= HealthCritical
	d := n.placementDaemonRef()
	capped := d != nil && (n.capacity > 0 || n.capBytes > 0)
	if !draining && !critical && !capped {
		return nil
	}
	// Objects already present (same-node reshuffles, returning objects)
	// re-admit through every gate below.
	incoming := 0
	for _, rec := range n.store.GetBatch(objs) {
		if rec == nil {
			incoming++
		}
	}
	if incoming == 0 {
		return nil
	}
	// A draining node refuses every inbound migration outright —
	// capacity or not — so the optimiser daemons and rival coordinators
	// cannot refill it while a drain job empties it.
	if draining {
		return n.placementVeto("node %s is draining: migration of %d objects refused", n.id, incoming)
	}
	// A critical node refuses inbound migrations the same way a
	// draining one does — its own health engine has judged it unfit to
	// take more load, capacity headroom notwithstanding. This is the
	// authoritative, target-side half of the health gate: a coordinator
	// whose gossiped view lags (or predates) the transition is
	// back-pressured here instead of trusted.
	if critical {
		atomic.AddInt64(&n.stats.HealthVetoes, 1)
		return n.placementVeto("node %s is critical: migration of %d objects refused", n.id, incoming)
	}
	if !capped {
		return nil
	}
	key := placement.ClaimKey{From: from, Token: token}
	claim := placement.Claim{Objects: int64(incoming), Bytes: bytes}
	if !n.resv.Admit(key, claim, d.cfg.OverloadRatio, n.selfSample) {
		hosted, hostedBytes := n.store.HostedStats()
		res := n.resv.Reserved()
		return n.placementVeto(
			"node %s is at capacity (%d hosted + %d reserved, %d incoming, capacity %d objects / %d bytes; %d+%d incoming bytes of %d reserved): migration refused",
			n.id, hosted, res.Objects, incoming, n.capacity, n.capBytes,
			hostedBytes, bytes, res.Bytes)
	}
	atomic.AddInt64(&n.stats.PlacementReservations, 1)
	return nil
}

// placementVeto counts one refused admission; format and args say why.
// The caller announces the veto (EventPlacement "veto").
func (n *Node) placementVeto(format string, args ...interface{}) error {
	atomic.AddInt64(&n.stats.PlacementVetoes, 1)
	return wire.Errorf(wire.CodeDenied, format, args...)
}

// releaseReservation drops the ledger claim keyed (from, token), if
// one exists — called wherever a record's session ends: commit (after
// the install has landed in the hosted counts), abort, and expiry.
func (n *Node) releaseReservation(from NodeID, token uint64) {
	n.resv.Release(placement.ClaimKey{From: from, Token: token})
}

// shedPlan ranks the node's hosted objects for shedding, biggest and
// least-wanted first (jobs.ColdFirst — the drain planner's ranking), so
// the pass drains the closures that cost the most capacity and are
// wanted the least. Pure planning — no pauses, no RPCs — so it is cheap
// enough to rerun every pass (and to benchmark: BenchmarkShedPlan).
func (d *placementDaemon) shedPlan() []jobs.Closure {
	return jobs.ColdFirst(d.node.inventory(0))
}

// shedPass is the veto's push half: while the node's own utilisation
// sits above ShedRatio, migrate the coldest closures towards the peer
// with the most headroom. Each shed re-reads the local sample (and
// re-ranks) before the next, and ShedTarget refuses any peer whose
// projected utilisation would reach ShedRatio — together with the
// per-closure cooldown this is what keeps two draining nodes from
// ping-ponging a group. Budgeted per pass exactly like the origin pass.
func (d *placementDaemon) shedPass() {
	n := d.node
	over := func() bool {
		return placement.Utilisation(n.selfSample(), 0, 0) > d.cfg.ShedRatio
	}
	if d.cfg.ShedRatio <= 0 || !over() {
		return
	}
	atomic.AddInt64(&n.stats.PlacementScans, 1)
	for budget := d.cfg.BudgetPerPass; budget > 0 && over(); budget-- {
		plan := d.shedPlan()
		anchors := make([]core.OID, len(plan))
		for i, cand := range plan {
			anchors[i] = cand.Anchor
		}
		shed := n.optimise(d.ctx, pass{
			cool:     &d.cool,
			alliance: d.cfg.Alliance,
			budget:   1, // re-read utilisation before shedding more
			anchors:  anchors,
			elect: func(g placement.Group) (placement.Decision, bool) {
				return placement.ShedTarget(g, d.view, d.cfg.ShedRatio)
			},
			// No peer with headroom for this closure; smaller ones
			// later in the plan may still fit.
			declinedFor: d.cfg.Cooldown,
			moved: func(anchor core.OID, to NodeID, ids []core.OID, g placement.Group) {
				atomic.AddInt64(&n.stats.PlacementSheds, 1)
				atomic.AddInt64(&n.stats.PlacementShedBytes, g.Bytes)
				n.placementMoved("shed", anchor, to, ids)
			},
		})
		if shed == 0 {
			return // nothing sheddable this pass
		}
	}
}
