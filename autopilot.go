package objmig

// The autopilot is the live runtime's answer to the paper's dynamic
// policies (compare-nodes and compare-and-reinstantiate, §3.3/§4.3).
// Those policies observe *move-request* pressure and only ever run
// when an application opens move-blocks; the autopilot observes raw
// *invocation* pressure via internal/affinity and migrates objects
// towards their heaviest callers on its own, so a deployment whose
// clients never issue migration primitives still converges objects
// onto the nodes that use them.
//
// Every node runs its own autopilot over the objects it currently
// hosts — decisions stay at the object's location, exactly like the
// paper's Fig. 3 run-time support. The scoring mirrors the paper's two
// dynamic strategies:
//
//   - PolicyCompareNodes: migrate towards the leading caller when it
//     strictly dominates every rival pressure source (local serves and
//     the runner-up caller), scaled by a hysteresis factor so two
//     near-equal callers never make the object ping-pong.
//   - PolicyCompareReinstantiate: additionally require the leader to
//     hold a clear majority (strictly more than half) of all observed
//     pressure — the paper's reinstantiation rule.
//
// Per-object cooldowns and a per-tick migration budget bound the churn
// the autopilot may cause; group transfers ride the same migrateGroup
// machinery as every explicit migration, so fixing, placement locks
// and attachment closures keep their semantics.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"objmig/internal/affinity"
	"objmig/internal/core"
	"objmig/internal/placement"
	"objmig/internal/wire"
)

// AutopilotConfig tunes a node's autopilot. The zero value selects the
// documented defaults.
type AutopilotConfig struct {
	// Interval is the scan period. Default 50ms.
	Interval time.Duration
	// Policy selects the scoring rule: PolicyCompareNodes (default)
	// migrates towards a strictly leading caller; to
	// PolicyCompareReinstantiate the leader must also hold a clear
	// majority of all observed pressure. Other kinds are rejected.
	Policy PolicyKind
	// MinTotal is the hotness floor: objects with fewer observed
	// accesses than this (since the last decays) are never considered.
	// Default 16.
	MinTotal int64
	// Hysteresis is how many times the leading caller's pressure must
	// exceed the strongest rival (local serves or the runner-up
	// caller) before a migration is worth its cost. Values below 1
	// are raised to 1 (the leader must still strictly win); zero
	// selects the default 2.
	Hysteresis float64
	// Cooldown is the per-object minimum time between autopilot
	// migrations, the second ping-pong guard. Default 10× Interval.
	Cooldown time.Duration
	// BudgetPerTick caps group migrations issued per scan. Default 4.
	BudgetPerTick int
	// DecayEvery halves the affinity counters every N scans (the
	// counters' half-life is N×Interval). 0 selects the default 8; a
	// negative value disables decay (tests).
	DecayEvery int
	// Alliance is the cooperation context whose attachment closure
	// travels with an elected object, so co-accessed groups move
	// together — the same semantics as MigrateIn. The default
	// NoAlliance walks the global context, exactly like a plain
	// Migrate.
	Alliance AllianceID
}

// withDefaults fills the zero fields.
func (c AutopilotConfig) withDefaults() AutopilotConfig {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Policy == 0 {
		c.Policy = PolicyCompareNodes
	}
	if c.MinTotal <= 0 {
		c.MinTotal = 16
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 2
	} else if c.Hysteresis < 1 {
		c.Hysteresis = 1
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * c.Interval
	}
	if c.BudgetPerTick <= 0 {
		c.BudgetPerTick = 4
	}
	if c.DecayEvery == 0 {
		c.DecayEvery = 8
	}
	return c
}

// autopilot is one node's running daemon.
type autopilot struct {
	node *Node
	cfg  AutopilotConfig

	stop chan struct{}
	done chan struct{}

	scans int

	cool cooldowns
}

// EnableAutopilot starts the node's affinity tracker and autopilot
// daemon. It fails if the autopilot is already enabled, the node is
// closed, or the config names a policy other than the two dynamic
// comparing strategies.
func (n *Node) EnableAutopilot(cfg AutopilotConfig) error {
	if n.closed.Load() {
		return ErrClosed
	}
	cfg = cfg.withDefaults()
	if cfg.Policy != PolicyCompareNodes && cfg.Policy != PolicyCompareReinstantiate {
		return fmt.Errorf("objmig: autopilot policy must be compare-nodes or compare-reinstantiate, got %v", cfg.Policy)
	}
	n.apMu.Lock()
	defer n.apMu.Unlock()
	// Re-check under the lock: Close's DisableAutopilot also takes
	// apMu, so an enable that observes closed==false here is ordered
	// before Close's shutdown sweep and will be stopped by it.
	if n.closed.Load() {
		return ErrClosed
	}
	if n.ap != nil {
		return fmt.Errorf("objmig: autopilot already enabled on %s", n.id)
	}
	ap := &autopilot{
		node: n,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		cool: newCooldowns(cfg.Cooldown),
	}
	n.ap = ap
	n.affUsers++
	n.aff.SetEnabled(true)
	n.spawn(ap.run)
	return nil
}

// DisableAutopilot stops the daemon and the affinity tracker. It
// blocks until any in-flight scan (and the migration it may be
// driving) has wound down; the scan's context is cancelled so the wait
// is short. Safe to call when the autopilot is not running.
func (n *Node) DisableAutopilot() {
	n.apMu.Lock()
	ap := n.ap
	n.ap = nil
	if ap != nil {
		// Inside the critical section, so a concurrent re-enable's
		// SetEnabled(true) cannot be overwritten after it installs
		// its daemon. The tracker stays on while the placement daemon
		// still feeds on it.
		n.affUsers--
		if n.affUsers <= 0 {
			n.aff.SetEnabled(false)
		}
	}
	n.apMu.Unlock()
	if ap == nil {
		return
	}
	close(ap.stop)
	<-ap.done
}

// AutopilotEnabled reports whether the autopilot is running.
func (n *Node) AutopilotEnabled() bool {
	n.apMu.Lock()
	defer n.apMu.Unlock()
	return n.ap != nil
}

// run is the daemon loop.
func (a *autopilot) run() {
	defer close(a.done)
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			a.tick()
		}
	}
}

// tick performs one scan: decay if due, rank hot objects, migrate the
// best candidates within the budget.
func (a *autopilot) tick() {
	n := a.node
	a.scans++
	n.stats.autopilotScans.Add(1)
	if a.cfg.DecayEvery > 0 && a.scans%a.cfg.DecayEvery == 0 {
		n.aff.Decay()
	}
	a.cool.reap(time.Now())

	hot := n.aff.Hot(a.cfg.MinTotal)
	if len(hot) == 0 {
		return
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Total != hot[j].Total {
			return hot[i].Total > hot[j].Total
		}
		return hot[i].Obj.Less(hot[j].Obj)
	})

	// The scan's context dies with the daemon, so Close never waits
	// out a full migration timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer cancelOnStop(a.stop, cancel)()

	// With placement enabled the election routes through the engine:
	// group-scored, load-discounted, overload-vetoed. Without it the
	// classic per-object election below runs unchanged.
	pl := n.placementDaemonRef()
	if pl != nil {
		n.stats.placementScans.Add(1)
	}
	visited := make(map[core.OID]bool)

	budget := a.cfg.BudgetPerTick
	for _, h := range hot {
		if budget <= 0 || ctx.Err() != nil {
			return
		}
		if _, hosted := n.store.Hosted(h.Obj); !hosted {
			continue // gossip about an object somebody else hosts
		}
		if pl != nil {
			if h.Obj.Origin == n.id && len(h.Callers) == 0 {
				// Origin-accumulated gossip with no remote pressure at
				// all: nothing to elect (mirrors the classic path).
				continue
			}
			if !visited[h.Obj] && a.electGroup(ctx, pl, h.Obj, visited) {
				budget--
			}
			continue
		}
		target, ok := a.elect(h)
		if !ok {
			continue
		}
		// Cooldown stamps use a fresh clock — a slow migration earlier
		// in the loop must not backdate (and thereby void) them.
		if a.cool.on(h.Obj, time.Now()) {
			n.stats.autopilotDeferred.Add(1)
			continue
		}
		moved, err := a.migrate(ctx, h.Obj, target)
		if err != nil {
			// Fixed, placed, busy, or the target is unreachable: back
			// off for one cooldown instead of hammering every tick.
			a.cool.set(h.Obj, time.Now())
			n.stats.autopilotDeferred.Add(1)
			continue
		}
		budget--
		n.stats.autopilotMigrations.Add(1)
		n.stats.autopilotObjectsMoved.Add(int64(len(moved)))
		// migrateGroup already lifted the moved objects' counters out
		// of the tracker (Take) for the origin gossip; only the
		// cooldown stamps are left to write.
		now := time.Now()
		for _, oid := range moved {
			a.cool.set(oid, now)
		}
		refs := make([]Ref, len(moved))
		for i, oid := range moved {
			refs[i] = Ref{OID: oid}
		}
		n.emit(Event{Kind: EventAutopilot, Obj: Ref{OID: h.Obj}, Target: target,
			Outcome: "migrate", Objects: refs})
	}
}

// electGroup is the engine-backed election: the candidate's attachment
// closure is resolved first, its affinity aggregated per caller node,
// and the placement engine scores the closure as a unit against the
// cluster load view — so one hot member cannot drag a group whose
// combined affinity points elsewhere, and an overloaded target is
// vetoed before a single pause is issued. Every scored member is
// marked visited so a tick never re-scores the same closure through
// another hot member. Reports whether a migration was issued.
func (a *autopilot) electGroup(ctx context.Context, d *placementDaemon, root core.OID, visited map[core.OID]bool) bool {
	n := a.node
	if a.cool.on(root, time.Now()) {
		n.stats.autopilotDeferred.Add(1)
		return false
	}
	members, err := n.closureOf(ctx, root, a.cfg.Alliance)
	if err != nil {
		a.cool.set(root, time.Now())
		n.stats.autopilotDeferred.Add(1)
		return false
	}
	for oid := range members {
		visited[oid] = true
	}
	opt := d.cfg.engineOptions()
	opt.Hysteresis = a.cfg.Hysteresis
	opt.RequireMajority = a.cfg.Policy == PolicyCompareReinstantiate
	dec, ok := placement.Score(n.groupAffinity(members), d.view, opt)
	if !ok {
		// Declined: re-deriving the closure every tick for a group
		// that keeps scoring "stay" is wasted (possibly remote) work.
		// Back off for a fraction of the full cooldown so fresh
		// pressure can still flip the verdict quickly.
		short := a.cfg.Cooldown / 4
		if short < a.cfg.Interval {
			short = a.cfg.Interval
		}
		a.cool.setUntil(root, time.Now().Add(short))
		return false
	}
	moved, err := n.migrateClosureSoft(ctx, root, members, dec.Target)
	if err != nil {
		a.cool.set(root, time.Now())
		n.stats.autopilotDeferred.Add(1)
		return false
	}
	n.stats.autopilotMigrations.Add(1)
	n.stats.autopilotObjectsMoved.Add(int64(len(moved)))
	n.stats.placementMigrations.Add(1)
	n.stats.placementObjectsMoved.Add(int64(len(moved)))
	now := time.Now()
	refs := make([]Ref, len(moved))
	for i, oid := range moved {
		a.cool.set(oid, now)
		refs[i] = Ref{OID: oid}
	}
	n.emit(Event{Kind: EventAutopilot, Obj: Ref{OID: root}, Target: dec.Target,
		Outcome: "migrate", Objects: refs})
	n.emit(Event{Kind: EventPlacement, Obj: Ref{OID: root}, Target: dec.Target,
		Outcome: "migrate", Objects: refs})
	return true
}

// elect applies the configured comparing strategy to one object's
// observed pressure and returns the migration target, if any.
func (a *autopilot) elect(h affinity.ObjLoad) (NodeID, bool) {
	if len(h.Callers) == 0 {
		return "", false // only local pressure: already optimally placed
	}
	leader := h.Callers[0]
	rival := h.Local
	if len(h.Callers) > 1 && h.Callers[1].Count > rival {
		rival = h.Callers[1].Count
	}
	// The leader must strictly dominate every rival pressure source,
	// scaled by the hysteresis factor (compare-nodes, §3.3: "keep
	// objects at those nodes from where the most requests are issued").
	if leader.Count <= rival || float64(leader.Count) < a.cfg.Hysteresis*float64(rival) {
		return "", false
	}
	if a.cfg.Policy == PolicyCompareReinstantiate {
		// Reinstantiation's clear-majority rule (§4.3): strictly more
		// than half of all observed pressure.
		if 2*leader.Count <= h.Total {
			return "", false
		}
	}
	return leader.Node, true
}

// cooldowns is the per-object "not again before" table an optimiser
// daemon consults so one object is not moved (or retried) every tick.
type cooldowns struct {
	period time.Duration
	mu     sync.Mutex
	until  map[core.OID]time.Time
}

func newCooldowns(period time.Duration) cooldowns {
	return cooldowns{period: period, until: make(map[core.OID]time.Time)}
}

// on reports whether the object was stamped too recently.
func (c *cooldowns) on(obj core.OID, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	until, ok := c.until[obj]
	if ok && now.Before(until) {
		return true
	}
	if ok {
		delete(c.until, obj)
	}
	return false
}

// set stamps the object's next earliest move, one period from now.
func (c *cooldowns) set(obj core.OID, now time.Time) {
	c.setUntil(obj, now.Add(c.period))
}

// setUntil stamps an explicit deadline (the engine's short
// declined-score back-off uses a fraction of the full period).
func (c *cooldowns) setUntil(obj core.OID, until time.Time) {
	c.mu.Lock()
	c.until[obj] = until
	c.mu.Unlock()
}

// reap drops expired stamps. Objects that migrated away are never
// looked up again (the hosted check skips them before the cooldown), so
// without this sweep the table would grow by one entry per object the
// daemon ever moved.
func (c *cooldowns) reap(now time.Time) {
	c.mu.Lock()
	for obj, until := range c.until {
		if !now.Before(until) {
			delete(c.until, obj)
		}
	}
	c.mu.Unlock()
}

// migrate drives one autopilot group migration through the standard
// machinery: the object's attachment closure (in the configured
// alliance context) travels with it, exactly as an explicit MigrateIn
// would move it. Fixed or placed members veto the whole transfer — the
// autopilot is an optimiser, never an override.
func (a *autopilot) migrate(ctx context.Context, obj core.OID, target NodeID) ([]core.OID, error) {
	n := a.node
	members, err := n.closureOf(ctx, obj, a.cfg.Alliance)
	if err != nil {
		return nil, err
	}
	admit := func(s *wire.Snapshot) error {
		if s.Pol.Lock.Held {
			return wire.Errorf(wire.CodeDenied, "autopilot: member %s is placed", s.ID)
		}
		if s.Pol.Fixed {
			return wire.Errorf(wire.CodeFixed, "autopilot: member %s is fixed", s.ID)
		}
		return nil
	}
	return n.migrateGroup(ctx, members, target, obj, admit, nil, n.nextTrace())
}

// AffinityCaller is one remote caller's observed pressure in
// Node.Affinity's report.
type AffinityCaller struct {
	Node  NodeID // the calling node
	Count int64  // decayed invocation count attributed to it
}

// ObjectAffinity is one object's observed access pressure at this
// node: local serves plus remote callers in descending order.
type ObjectAffinity struct {
	Obj     Ref              // the observed object
	Local   int64            // serves for local callers
	Total   int64            // local plus all remote pressure
	Callers []AffinityCaller // remote callers, heaviest first
}

// Affinity reports the node's current affinity observations (objects
// with any recorded pressure), for operators and tests. Empty unless
// the autopilot is (or was) enabled.
func (n *Node) Affinity() []ObjectAffinity {
	loads := n.aff.Hot(1)
	out := make([]ObjectAffinity, len(loads))
	for i, l := range loads {
		oa := ObjectAffinity{Obj: Ref{OID: l.Obj}, Local: l.Local, Total: l.Total}
		oa.Callers = make([]AffinityCaller, len(l.Callers))
		for j, c := range l.Callers {
			oa.Callers[j] = AffinityCaller{Node: c.Node, Count: c.Count}
		}
		out[i] = oa
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Obj.OID.Less(out[j].Obj.OID)
	})
	return out
}

// mergeAffinityGossip folds HomeUpdate-piggy-backed observations into
// the local tracker.
func (n *Node) mergeAffinityGossip(obs []wire.AffinityObs) {
	if len(obs) == 0 || !n.aff.Enabled() {
		return
	}
	conv := make([]affinity.Obs, len(obs))
	for i, o := range obs {
		conv[i] = affinity.Obs{Obj: o.Obj, From: o.From, Count: o.Count}
	}
	n.aff.Merge(conv)
}
