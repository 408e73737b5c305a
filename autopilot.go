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
// paper's Fig. 3 run-time support. The unit of every decision is the
// attachment closure: its members' pressure is summed per caller node
// and scored by internal/placement, whose rule mirrors the paper's two
// dynamic strategies:
//
//   - PolicyCompareNodes: migrate towards the leading caller when it
//     strictly dominates every rival pressure source (local serves and
//     the runner-up caller), scaled by a hysteresis factor so two
//     near-equal callers never make the closure ping-pong.
//   - PolicyCompareReinstantiate: additionally require the leader to
//     hold a clear majority (strictly more than half) of all observed
//     pressure — the paper's reinstantiation rule.
//
// Per-object cooldowns and a per-tick migration budget bound the churn
// the autopilot may cause; group transfers ride the same migrateGroup
// machinery as every explicit migration, so fixing, placement locks
// and attachment closures keep their semantics.
//
// The scan itself — optimise, below — is shared with the placement
// daemon's origin and shed passes (placement.go): a daemon describes
// what it wants scanned in a pass and optimise does the rest.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
	daemon
	node *Node
	cfg  AutopilotConfig

	scans int

	cool cooldowns
	// view is what the election scores against while no placement
	// daemon runs. Nothing ever feeds it: with no load sample the
	// engine has no veto evidence and elects on affinity alone.
	view *placement.View
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
	ap := &autopilot{node: n, cfg: cfg, cool: newCooldowns(cfg.Cooldown), view: placement.NewView(0)}
	return startDaemon(n, "autopilot", &n.ap, ap, func() { n.useAffinity(+1) }, periodic{cfg.Interval, ap.tick})
}

// DisableAutopilot stops the daemon and the affinity tracker (which
// stays on while the placement daemon still feeds on it). It blocks
// until any in-flight scan (and the migration it may be driving) has
// wound down; the scan's context is cancelled so the wait is short.
// Safe to call when the autopilot is not running.
func (n *Node) DisableAutopilot() {
	stopDaemon(n, &n.ap, func() { n.useAffinity(-1) })
}

// AutopilotEnabled reports whether the autopilot is running.
func (n *Node) AutopilotEnabled() bool { return runningDaemon(n, &n.ap) != nil }

// tick performs one scan: decay if due, then hand the hot objects that
// have remote callers, hottest first, to the shared optimiser scan.
func (a *autopilot) tick() {
	n := a.node
	a.scans++
	atomic.AddInt64(&n.stats.AutopilotScans, 1)
	if a.cfg.DecayEvery > 0 && a.scans%a.cfg.DecayEvery == 0 {
		n.aff.Decay()
	}
	var anchors []core.OID
	for _, h := range n.aff.Hot(a.cfg.MinTotal) {
		// Only local pressure: already optimally placed, and a node full
		// of locally-used hot objects must not walk a closure per object
		// per tick to find that out.
		if len(h.Callers) > 0 {
			anchors = append(anchors, h.Obj)
		}
	}
	if len(anchors) == 0 {
		return
	}

	// The closure aggregate is always scored by the placement engine.
	// While the placement daemon runs the election sees its cluster view
	// (load-discounted, overload-vetoed); otherwise the autopilot's own
	// view stays empty, and with no load sample the engine is the pure
	// comparing strategy.
	view, opt := a.view, placement.Options{}
	pl := n.placementDaemonRef()
	if pl != nil {
		atomic.AddInt64(&n.stats.PlacementScans, 1)
		view, opt = pl.view, pl.cfg.engineOptions()
	}
	opt.Hysteresis = a.cfg.Hysteresis
	opt.RequireMajority = a.cfg.Policy == PolicyCompareReinstantiate

	deferred := func(core.OID) { atomic.AddInt64(&n.stats.AutopilotDeferred, 1) }
	n.optimise(a.ctx, pass{
		cool:     &a.cool,
		alliance: a.cfg.Alliance,
		budget:   a.cfg.BudgetPerTick,
		anchors:  anchors,
		elect: func(g placement.Group) (placement.Decision, bool) {
			return placement.Score(g, view, opt)
		},
		// Re-deriving the closure every tick for a group that keeps
		// scoring "stay" is wasted (possibly remote) work. Back off for
		// a fraction of the full cooldown so fresh pressure can still
		// flip the verdict quickly.
		declinedFor: max(a.cfg.Cooldown/4, a.cfg.Interval),
		cooling:     deferred,
		failed:      deferred,
		moved: func(anchor core.OID, to NodeID, ids []core.OID, _ placement.Group) {
			atomic.AddInt64(&n.stats.AutopilotMigrations, 1)
			atomic.AddInt64(&n.stats.AutopilotObjectsMoved, int64(len(ids)))
			n.emit(Event{Kind: EventAutopilot, Obj: Ref{OID: anchor}, Target: to,
				Outcome: "migrate", Objects: oidRefs(ids)})
			if pl != nil {
				n.placementMoved("migrate", anchor, to, ids)
			}
		},
	})
}

// pass describes one optimiser scan: which closures a daemon wants
// considered, how it elects a target for one, and what it records about
// the outcome. Everything else — the steps of a scan and their
// bookkeeping — is optimise's.
type pass struct {
	cool     *cooldowns
	alliance AllianceID // context of the closure that travels with an anchor
	budget   int        // migrations the scan may issue
	anchors  []core.OID // candidates, best first

	// elect scores one closure's aggregate pressure and names the node
	// it should move to, or reports that it stays.
	elect func(placement.Group) (placement.Decision, bool)
	// declinedFor is the back-off stamped on an anchor whose closure
	// elected to stay; 0 re-scores it on the next scan.
	declinedFor time.Duration

	cooling func(anchor core.OID) // skipped on cooldown; nil = not recorded
	failed  func(anchor core.OID) // walk or transfer failed, cooldown stamped; nil = not recorded
	moved   func(anchor core.OID, to NodeID, ids []core.OID, g placement.Group)
}

// optimise is the one scan every optimiser daemon runs — the autopilot
// tick, the origin pre-placement pass, the shed pass. Anchor by anchor,
// within the budget: resolve the attachment closure, aggregate its
// affinity per caller node, let the pass elect a target for the closure
// as a unit — so one hot member cannot drag a group whose combined
// pressure points elsewhere — and migrate it there unless a fixed or
// placed member objects. Every member of a scored closure is marked
// visited, so a scan never re-scores the same closure through another
// member. ctx is the daemon's: the scan's own timeout derives from it,
// so stopping the daemon cancels the scan and Close never waits out a
// full migration timeout. It returns the number of migrations issued.
func (n *Node) optimise(ctx context.Context, p pass) int {
	if len(p.anchors) == 0 || p.budget <= 0 {
		return 0
	}
	// Objects that migrated away are never looked up again (the hosted
	// check skips them before the cooldown), so without this sweep the
	// table would grow by one entry per object the daemon ever moved.
	p.cool.reap(time.Now())

	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()

	// failed: an unreachable member, a fixed or placed one, a busy
	// closure or a refusing target. Back off for one cooldown instead
	// of hammering (and re-walking, possibly over RPC) every scan.
	failed := func(anchor core.OID) {
		p.cool.set(anchor, time.Now())
		if p.failed != nil {
			p.failed(anchor)
		}
	}

	issued := 0
	visited := make(map[core.OID]bool)
	for _, anchor := range p.anchors {
		if issued >= p.budget || ctx.Err() != nil {
			break
		}
		if visited[anchor] {
			continue
		}
		if _, hosted := n.store.Get(anchor); !hosted {
			continue // gossip about an object somebody else hosts
		}
		// Cooldown checks and stamps each read a fresh clock — a slow
		// migration earlier in the loop must not backdate (and thereby
		// void) them.
		if p.cool.on(anchor, time.Now()) {
			if p.cooling != nil {
				p.cooling(anchor)
			}
			continue
		}
		members, err := n.closureOf(ctx, anchor, p.alliance)
		if err != nil {
			failed(anchor)
			continue
		}
		for oid := range members {
			visited[oid] = true
		}
		g := n.groupAffinity(members)
		atomic.AddInt64(&n.stats.PlacementScores, 1)
		dec, ok := p.elect(g)
		if !ok {
			if p.declinedFor > 0 {
				p.cool.setUntil(anchor, time.Now().Add(p.declinedFor))
			}
			continue
		}
		ids, err := n.migrateGroup(ctx, relocation{root: anchor, target: dec.Target, trace: n.nextTrace()}, members)
		if err != nil {
			failed(anchor)
			continue
		}
		issued++
		// migrateGroup already lifted the moved objects' counters out
		// of the tracker (Take) for the origin gossip; only the
		// cooldown stamps are left to write.
		now := time.Now()
		for _, oid := range ids {
			p.cool.set(oid, now)
		}
		p.moved(anchor, dec.Target, ids, g)
	}
	return issued
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

// setUntil stamps an explicit deadline (a pass's declined-score
// back-off may be shorter than the full period).
func (c *cooldowns) setUntil(obj core.OID, until time.Time) {
	c.mu.Lock()
	c.until[obj] = until
	c.mu.Unlock()
}

// reap drops expired stamps.
func (c *cooldowns) reap(now time.Time) {
	c.mu.Lock()
	for obj, until := range c.until {
		if !now.Before(until) {
			delete(c.until, obj)
		}
	}
	c.mu.Unlock()
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
// with any recorded pressure, hottest first), for operators and tests.
// Empty unless the autopilot is (or was) enabled.
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
