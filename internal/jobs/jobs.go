// Package jobs is the migration control plane's planning core: pure,
// deterministic planners that turn a cluster load view plus closure
// inventories into ordered move lists, and the small state machine the
// runtime's job executor drives through them.
//
// The split mirrors the rest of the codebase: this package owns the
// *what* (which closures move where, in which order, respecting the
// same utilisation veto the placement engine's admission runs) and
// stays free of RPCs, clocks and locks so every plan is table-testable;
// the live runtime (jobs.go in the root package) owns the *how* —
// walking real closures, pausing, streaming, retrying and emitting
// progress. A Plan is therefore a projection, not a promise: the
// executor re-validates every move against the live cluster before
// acting on it.
package jobs

import (
	"sort"

	"objmig/internal/core"
	"objmig/internal/placement"
)

// State is a job's lifecycle position. A job is planned once, runs at
// most once at a time, and ends in exactly one of the three terminal
// states.
type State int

const (
	// Planned: the move list exists; nothing has been touched.
	Planned State = iota + 1
	// Running: the executor is driving waves.
	Running
	// Done: every move completed (or was verifiably already done).
	Done
	// Cancelled: the operator stopped the job at a wave boundary;
	// completed waves stand, nothing else was touched.
	Cancelled
	// Failed: at least one move exhausted its retries, or the plan
	// left anchors unplaced. Completed moves stand.
	Failed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Planned:
		return "planned"
	case Running:
		return "running"
	case Done:
		return "done"
	case Cancelled:
		return "cancelled"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state ends the job.
func (s State) Terminal() bool {
	return s == Done || s == Cancelled || s == Failed
}

// Closure is one migratable unit in a planner's input: an attachment
// closure (or a single object standing in for one — the executor walks
// the real closure at move time) hosted on Host.
type Closure struct {
	Anchor  core.OID    // the closure root
	Host    core.NodeID // where it lives in the snapshot
	Objects int         // member count (>= 1)
	Bytes   int64       // approximate resident bytes
	// Pressure is the observed access pressure (the affinity
	// tracker's total); planners drain coldest-biggest first, the
	// same bytes-per-pressure ranking the shed pass uses.
	Pressure int64
}

// Move is one planned group migration: the closure anchored at Anchor
// travels from From to To as a unit.
type Move struct {
	Anchor  core.OID
	From    core.NodeID
	To      core.NodeID
	Objects int
	Bytes   int64
	// Score is the target's headroom score at planning time
	// (1 − projected utilisation after receiving the closure) — the
	// same quantity placement.ShedTarget reports for a shed election.
	Score float64
}

// Plan is a planner's verdict: the ordered move list plus the anchors
// no veto-respecting target could take.
type Plan struct {
	Moves    []Move
	Unplaced []core.OID
}

// Checkpoint is the serializable resume point of a job: the full plan
// and the first wave that has not yet completed. A coordinator that
// crashes mid-wave resumes by re-running from NextWave — moves of the
// interrupted wave whose closures already sit at their target are
// detected and skipped by the executor, so replaying a wave is
// idempotent.
type Checkpoint struct {
	Kind     string // "drain", "rebalance" or "pin"
	WaveSize int
	NextWave int
	Moves    []Move
}

// Waves partitions moves into consecutive waves of at most size moves
// each (size < 1 selects 1). The executor runs one wave concurrently,
// then barriers: cancel and resume both operate on wave boundaries.
func Waves(moves []Move, size int) [][]Move {
	if size < 1 {
		size = 1
	}
	var out [][]Move
	for len(moves) > 0 {
		n := size
		if n > len(moves) {
			n = len(moves)
		}
		out = append(out, moves[:n])
		moves = moves[n:]
	}
	return out
}

// Delta is one node's projected utilisation change under a plan — the
// preview surface's before/after rows.
type Delta struct {
	Node   core.NodeID
	Before float64
	After  float64
}

// ProjectDeltas applies the moves to the view and reports each
// sampled node's utilisation before and after, sorted by node. Pure
// arithmetic: nothing is paused, claimed or reserved.
func ProjectDeltas(moves []Move, view []placement.Sample) []Delta {
	p := newProjection(view)
	before := make(map[core.NodeID]float64, len(p.order))
	for _, node := range p.order {
		before[node] = placement.Utilisation(*p.samples[node], 0, 0)
	}
	for _, m := range moves {
		p.apply(m.From, m.To, m.Objects, m.Bytes)
	}
	out := make([]Delta, 0, len(p.order))
	for _, node := range p.order {
		out = append(out, Delta{
			Node:   node,
			Before: before[node],
			After:  placement.Utilisation(*p.samples[node], 0, 0),
		})
	}
	return out
}

// projection is a mutable copy of the view that planners charge
// assigned moves against, so a plan never collectively overshoots a
// receiver the way N independent elections would.
type projection struct {
	samples map[core.NodeID]*placement.Sample
	order   []core.NodeID // sorted, for deterministic iteration
}

func newProjection(view []placement.Sample) *projection {
	p := &projection{samples: make(map[core.NodeID]*placement.Sample, len(view))}
	for _, s := range view {
		if s.Node == "" {
			continue
		}
		// Last sample wins per node; callers pass deduplicated views.
		if _, ok := p.samples[s.Node]; !ok {
			p.order = append(p.order, s.Node)
		}
		cp := s
		p.samples[s.Node] = &cp
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
	return p
}

// apply charges a move: the closure's footprint leaves from (if
// sampled) and lands on to (if sampled).
func (p *projection) apply(from, to core.NodeID, objects int, bytes int64) {
	if s, ok := p.samples[from]; ok {
		s.Objects -= int64(objects)
		s.Bytes -= bytes
		if s.Objects < 0 {
			s.Objects = 0
		}
		if s.Bytes < 0 {
			s.Bytes = 0
		}
	}
	if s, ok := p.samples[to]; ok {
		s.Objects += int64(objects)
		s.Bytes += bytes
	}
}

// util is a node's projected utilisation with an incoming closure.
func (p *projection) util(node core.NodeID, objects int, bytes int64) float64 {
	s, ok := p.samples[node]
	if !ok {
		return 0
	}
	return placement.Utilisation(*s, objects, bytes)
}

// elect picks the receiver for one closure: the sampled node (never
// from, never excluded) whose projected utilisation after receiving
// the closure is lowest, with any node whose projection would exceed
// ratio vetoed — the same headroom-first, receiver-guarded election as
// placement.ShedTarget, with the veto boundary matching admission's
// (placement.Overloaded vetoes strictly above the ratio, so a plan
// never refuses a move admission would accept). Ties break towards
// the lexically smaller node (iteration order is sorted and the
// comparison strict), so identical inputs elect identically. Nodes
// without samples are skipped: no headroom evidence, no move. Nodes
// that are not healthy (degraded or critical) are never elected: a
// plan must not route load onto a node the health engine is already
// flagging.
func (p *projection) elect(c Closure, from core.NodeID, exclude map[core.NodeID]bool, ratio float64) (core.NodeID, float64, bool) {
	var best core.NodeID
	bestUtil := 0.0
	for _, node := range p.order {
		if node == from || exclude[node] {
			continue
		}
		if p.samples[node].Health >= placement.HealthDegraded {
			continue
		}
		u := p.util(node, c.Objects, c.Bytes)
		if u > ratio {
			continue
		}
		if best == "" || u < bestUtil {
			best, bestUtil = node, u
		}
	}
	if best == "" {
		return "", 0, false
	}
	return best, 1 - bestUtil, true
}

// ColdFirst orders closures biggest-coldest first — bytes per unit of
// pressure descending, anchors ascending on ties — so a drain (and the
// placement daemon's shed pass, which ranks with it too) frees the most
// capacity for the least disruption early. The input is not modified.
func ColdFirst(closures []Closure) []Closure {
	out := append([]Closure(nil), closures...)
	sort.Slice(out, func(i, j int) bool {
		si := float64(out[i].Bytes+1) / float64(out[i].Pressure+1)
		sj := float64(out[j].Bytes+1) / float64(out[j].Pressure+1)
		if si != sj {
			return si > sj
		}
		return out[i].Anchor.Less(out[j].Anchor)
	})
	return out
}

// PlanDrain empties node from: every closure hosted on it is assigned
// to the sampled peer with the most headroom, charging each assignment
// against the projection so the plan cannot collectively overshoot a
// receiver. ratio (<= 0 selects 1) is the receiver guard: no peer is
// pushed past it. Closures no peer can take are reported
// Unplaced. Deterministic: same inputs, same plan.
func PlanDrain(from core.NodeID, closures []Closure, view []placement.Sample, ratio float64) Plan {
	if ratio <= 0 {
		ratio = 1
	}
	p := newProjection(view)
	var plan Plan
	for _, c := range ColdFirst(closures) {
		if c.Host != from {
			continue
		}
		to, score, ok := p.elect(c, from, nil, ratio)
		if !ok {
			plan.Unplaced = append(plan.Unplaced, c.Anchor)
			continue
		}
		p.apply(from, to, c.Objects, c.Bytes)
		plan.Moves = append(plan.Moves, Move{
			Anchor: c.Anchor, From: from, To: to,
			Objects: c.Objects, Bytes: c.Bytes, Score: score,
		})
	}
	return plan
}

// PlanRebalance relieves every node whose utilisation exceeds ratio
// (<= 0 selects 1): donors are processed worst-first and shed their
// coldest closures to the least-utilised receivers until they fit
// under the ratio. Receivers are guarded exactly as in PlanDrain, so
// a rebalance converges instead of ping-ponging load. Closures on a
// donor that no receiver can take are reported Unplaced. Critical
// nodes are drain-priority donors: they join the donor set whatever
// their utilisation, are processed before every merely-overloaded
// donor, and are emptied outright rather than relieved to the ratio —
// a sick node's load belongs elsewhere until it recovers.
func PlanRebalance(closures []Closure, view []placement.Sample, ratio float64) Plan {
	if ratio <= 0 {
		ratio = 1
	}
	p := newProjection(view)

	byHost := make(map[core.NodeID][]Closure)
	for _, c := range closures {
		byHost[c.Host] = append(byHost[c.Host], c)
	}
	critical := func(node core.NodeID) bool {
		return p.samples[node].Health >= placement.HealthCritical
	}
	// Donors: sampled nodes above the ratio plus every critical node,
	// critical first, then worst utilisation first (ties towards the
	// lexically smaller node). Receivers can never be pushed past the
	// ratio, so the donor set is fixed up front.
	var donors []core.NodeID
	for _, node := range p.order {
		if critical(node) || p.util(node, 0, 0) > ratio {
			donors = append(donors, node)
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if ci, cj := critical(donors[i]), critical(donors[j]); ci != cj {
			return ci
		}
		ui, uj := p.util(donors[i], 0, 0), p.util(donors[j], 0, 0)
		if ui != uj {
			return ui > uj
		}
		return donors[i] < donors[j]
	})

	var plan Plan
	for _, donor := range donors {
		drainAll := critical(donor)
		for _, c := range ColdFirst(byHost[donor]) {
			if !drainAll && p.util(donor, 0, 0) <= ratio {
				break // donor fits: relieved
			}
			to, score, ok := p.elect(c, donor, nil, ratio)
			if !ok {
				plan.Unplaced = append(plan.Unplaced, c.Anchor)
				continue
			}
			p.apply(donor, to, c.Objects, c.Bytes)
			plan.Moves = append(plan.Moves, Move{
				Anchor: c.Anchor, From: donor, To: to,
				Objects: c.Objects, Bytes: c.Bytes, Score: score,
			})
		}
	}
	return plan
}

// PlanPin moves every closure not already on target onto it, in
// anchor order, charging the projection as it goes; once the target's
// projected utilisation would exceed ratio (<= 0 selects 1) the
// remaining anchors are reported Unplaced — a pin respects the same
// admission veto every other migration does. A target without a
// sample is taken at face value (no evidence of overload, pure pin).
func PlanPin(target core.NodeID, closures []Closure, view []placement.Sample, ratio float64) Plan {
	if ratio <= 0 {
		ratio = 1
	}
	p := newProjection(view)
	ordered := append([]Closure(nil), closures...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Anchor.Less(ordered[j].Anchor) })

	var plan Plan
	for _, c := range ordered {
		if c.Host == target {
			continue
		}
		_, sampled := p.samples[target]
		u := p.util(target, c.Objects, c.Bytes)
		if sampled && u > ratio {
			plan.Unplaced = append(plan.Unplaced, c.Anchor)
			continue
		}
		p.apply(c.Host, target, c.Objects, c.Bytes)
		plan.Moves = append(plan.Moves, Move{
			Anchor: c.Anchor, From: c.Host, To: target,
			Objects: c.Objects, Bytes: c.Bytes, Score: 1 - u,
		})
	}
	return plan
}

// Retarget re-elects a vetoed move's receiver against a live view,
// excluding the nodes that already refused it. This is the executor's
// recovery path for a stale plan: a target that admitted on planning
// data may veto at migration time, and retrying it against the same
// stale view would hammer a full node — the re-election must run on
// fresh samples with the refuser excluded.
func Retarget(m Move, view []placement.Sample, exclude map[core.NodeID]bool, ratio float64) (core.NodeID, bool) {
	if ratio <= 0 {
		ratio = 1
	}
	p := newProjection(view)
	c := Closure{Anchor: m.Anchor, Host: m.From, Objects: m.Objects, Bytes: m.Bytes}
	to, _, ok := p.elect(c, m.From, exclude, ratio)
	return to, ok
}
