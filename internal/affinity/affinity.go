// Package affinity tracks per-object, per-caller access pressure at a
// node: how often each object hosted here is used, and from where. The
// live runtime's autopilot (see the root package) scans these counters
// to migrate objects towards their heaviest callers — the runtime twin
// of the paper's dynamic compare-the-nodes policies, which in the
// simulator observe open move-requests rather than raw invocations.
//
// The tracker sits on the invoke/serve hot path, so its design is all
// about the cost of Record:
//
//   - Counters are lock-striped by OID hash; a Record takes one shard
//     read-lock to resolve the object's counter block.
//   - Inside a block the local-serve count is a plain atomic and the
//     per-caller counts live in an immutable copy-on-write map of
//     atomics, so the steady state (object known, caller known) is a
//     read-lock, two map reads and one atomic add — no allocation.
//   - A disabled tracker short-circuits on one atomic load, so nodes
//     that never enable the autopilot pay a nanosecond per invoke.
//
// Decay is generational rather than per-entry timers: Decay() halves
// every counter and drops objects whose pressure reached zero, so old
// traffic fades at a rate set by how often the autopilot calls it.
package affinity

import (
	"sort"
	"sync"
	"sync/atomic"

	"objmig/internal/core"
)

// StripeCount is the number of lock stripes (a power of two).
const StripeCount = 64

// Tracker accumulates access-affinity counters for one node. The zero
// value is not usable; call New.
type Tracker struct {
	self    core.NodeID
	enabled atomic.Bool
	stripes [StripeCount]stripe
}

type stripe struct {
	mu   sync.RWMutex
	objs map[core.OID]*counters
}

// callerMap is an immutable snapshot of per-caller counters. Lookups
// run lock-free against the current snapshot; adding a caller installs
// a fresh copy.
type callerMap map[core.NodeID]*atomic.Int64

// counters is one object's counter block.
type counters struct {
	local  atomic.Int64 // serves for callers on this node
	remote atomic.Pointer[callerMap]
	mu     sync.Mutex // serialises copy-on-write caller inserts
}

// New returns a disabled tracker for the given node. Record is a no-op
// until SetEnabled(true).
func New(self core.NodeID) *Tracker {
	t := &Tracker{self: self}
	for i := range t.stripes {
		t.stripes[i].objs = make(map[core.OID]*counters)
	}
	return t
}

// SetEnabled switches recording on or off. Disabling does not clear
// accumulated counters (Reset does).
func (t *Tracker) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether the tracker is recording.
func (t *Tracker) Enabled() bool { return t.enabled.Load() }

// stripeIndex hashes an OID onto a stripe (the shared core.HashOID,
// masked).
func stripeIndex(id core.OID) int {
	return int(core.HashOID(id) & (StripeCount - 1))
}

// Record notes one access to obj issued from the given node. An empty
// caller is unattributable and ignored; the tracker's own node counts
// as a local serve. Steady-state cost is two map reads and an atomic
// add with no allocation.
func (t *Tracker) Record(obj core.OID, from core.NodeID) {
	if !t.enabled.Load() {
		return
	}
	if from == "" {
		return
	}
	st := &t.stripes[stripeIndex(obj)]
	st.mu.RLock()
	c := st.objs[obj]
	st.mu.RUnlock()
	if c == nil {
		c = st.insert(obj)
	}
	if from == t.self {
		c.local.Add(1)
		return
	}
	if m := c.remote.Load(); m != nil {
		if ctr := (*m)[from]; ctr != nil {
			ctr.Add(1)
			return
		}
	}
	c.add(from, 1)
}

// RecordLocal notes one access to obj served for a caller on this node.
func (t *Tracker) RecordLocal(obj core.OID) { t.Record(obj, t.self) }

// insert resolves or creates the counter block for obj.
func (st *stripe) insert(obj core.OID) *counters {
	st.mu.Lock()
	defer st.mu.Unlock()
	if c, ok := st.objs[obj]; ok {
		return c
	}
	c := &counters{}
	st.objs[obj] = c
	return c
}

// add bumps a caller's counter, installing the caller with a
// copy-on-write map update when it is new.
func (c *counters) add(from core.NodeID, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.remote.Load()
	if old != nil {
		if ctr := (*old)[from]; ctr != nil {
			ctr.Add(delta)
			return
		}
	}
	var next callerMap
	if old == nil {
		next = make(callerMap, 1)
	} else {
		next = make(callerMap, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	ctr := &atomic.Int64{}
	ctr.Store(delta)
	next[from] = ctr
	c.remote.Store(&next)
}

// CallerLoad is one remote caller's observed pressure on an object.
type CallerLoad struct {
	Node  core.NodeID // the calling node
	Count int64       // decayed invocation count attributed to it
}

// ObjLoad is the tracker's view of one object: local serves, remote
// callers in descending pressure order, and the total.
type ObjLoad struct {
	Obj     core.OID     // the observed object
	Local   int64        // serves for local callers
	Callers []CallerLoad // remote callers, heaviest first
	Total   int64        // local plus all remote pressure
}

// load snapshots one counter block.
func loadOf(obj core.OID, c *counters) ObjLoad {
	l := ObjLoad{Obj: obj, Local: c.local.Load()}
	l.Total = l.Local
	if m := c.remote.Load(); m != nil {
		l.Callers = make([]CallerLoad, 0, len(*m))
		for node, ctr := range *m {
			v := ctr.Load()
			if v == 0 {
				continue
			}
			l.Callers = append(l.Callers, CallerLoad{Node: node, Count: v})
			l.Total += v
		}
		sort.Slice(l.Callers, func(i, j int) bool {
			if l.Callers[i].Count != l.Callers[j].Count {
				return l.Callers[i].Count > l.Callers[j].Count
			}
			return l.Callers[i].Node < l.Callers[j].Node
		})
	}
	return l
}

// Hot returns every tracked object whose total pressure is at least
// min, hottest first (ties broken by OID for determinism), each with
// its callers sorted by descending count (ties broken by node ID). The
// result is a snapshot; counters keep moving.
func (t *Tracker) Hot(min int64) []ObjLoad {
	var out []ObjLoad
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.RLock()
		for obj, c := range st.objs {
			if l := loadOf(obj, c); l.Total >= min {
				out = append(out, l)
			}
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Obj.Less(out[j].Obj)
	})
	return out
}

// CallerNodes returns the distinct remote caller nodes observed
// across all tracked objects, sorted. This is the load-gossip
// heartbeat's peer-discovery query: unlike Hot it builds no
// per-object snapshots — one set accumulation over the stripes.
func (t *Tracker) CallerNodes() []core.NodeID {
	seen := make(map[core.NodeID]bool)
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.RLock()
		for _, c := range st.objs {
			if m := c.remote.Load(); m != nil {
				for node := range *m {
					seen[node] = true
				}
			}
		}
		st.mu.RUnlock()
	}
	out := make([]core.NodeID, 0, len(seen))
	for node := range seen {
		out = append(out, node)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Load returns the tracker's view of a single object.
func (t *Tracker) Load(obj core.OID) ObjLoad {
	st := &t.stripes[stripeIndex(obj)]
	st.mu.RLock()
	c := st.objs[obj]
	st.mu.RUnlock()
	if c == nil {
		return ObjLoad{Obj: obj}
	}
	return loadOf(obj, c)
}

// Total returns just the object's total pressure (local plus all
// remote callers), without materialising the per-caller breakdown —
// the allocation-free read the shed planner runs per hosted object.
func (t *Tracker) Total(obj core.OID) int64 {
	st := &t.stripes[stripeIndex(obj)]
	st.mu.RLock()
	c := st.objs[obj]
	st.mu.RUnlock()
	if c == nil {
		return 0
	}
	total := c.local.Load()
	if m := c.remote.Load(); m != nil {
		for _, ctr := range *m {
			total += ctr.Load()
		}
	}
	return total
}

// Decay halves every counter and forgets objects whose total pressure
// reached zero. Calling it at a fixed period gives the counters an
// exponential half-life without any per-entry timestamps. Increments
// racing a decay may be folded into the halving; the counters are a
// heuristic, not an audit log.
func (t *Tracker) Decay() {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for obj, c := range st.objs {
			total := c.local.Load() / 2
			c.local.Store(total)
			if m := c.remote.Load(); m != nil {
				for _, ctr := range *m {
					v := ctr.Load() / 2
					ctr.Store(v)
					total += v
				}
			}
			if total == 0 {
				delete(st.objs, obj)
			}
		}
		st.mu.Unlock()
	}
}

// Obs is one transferable (object, caller, count) observation — the
// gossip currency piggy-backed on home updates when objects migrate.
type Obs struct {
	Obj   core.OID    // the observed object
	From  core.NodeID // the caller the pressure is attributed to
	Count int64       // decayed invocation count at lift time
}

// Take removes the listed objects from the tracker and returns their
// observations (local serves reported under the tracker's own node).
// It is called when objects migrate away: the counters no longer
// describe this node's serves, but they are still valuable gossip.
// A disabled tracker returns nil.
func (t *Tracker) Take(ids []core.OID) []Obs {
	if !t.enabled.Load() {
		return nil
	}
	var out []Obs
	for _, id := range ids {
		st := &t.stripes[stripeIndex(id)]
		st.mu.Lock()
		c := st.objs[id]
		delete(st.objs, id)
		st.mu.Unlock()
		if c == nil {
			continue
		}
		if v := c.local.Load(); v > 0 {
			out = append(out, Obs{Obj: id, From: t.self, Count: v})
		}
		if m := c.remote.Load(); m != nil {
			nodes := make([]core.NodeID, 0, len(*m))
			for node := range *m {
				nodes = append(nodes, node)
			}
			sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			for _, node := range nodes {
				if v := (*m)[node].Load(); v > 0 {
					out = append(out, Obs{Obj: id, From: node, Count: v})
				}
			}
		}
	}
	return out
}

// Drop forgets the listed objects without reporting them (the object
// departed and its observations travelled some other way).
func (t *Tracker) Drop(ids []core.OID) {
	for _, id := range ids {
		st := &t.stripes[stripeIndex(id)]
		st.mu.Lock()
		delete(st.objs, id)
		st.mu.Unlock()
	}
}

// Merge folds received observations into the tracker (affinity gossip
// from a departing host). Observations about this node's own callers
// count as local serves. A disabled tracker ignores gossip.
func (t *Tracker) Merge(obs []Obs) {
	if !t.enabled.Load() {
		return
	}
	for _, o := range obs {
		if o.Count <= 0 || o.From == "" {
			continue
		}
		st := &t.stripes[stripeIndex(o.Obj)]
		st.mu.RLock()
		c := st.objs[o.Obj]
		st.mu.RUnlock()
		if c == nil {
			c = st.insert(o.Obj)
		}
		if o.From == t.self {
			c.local.Add(o.Count)
			continue
		}
		c.add(o.From, o.Count)
	}
}

// Reset clears every counter (tests and tooling).
func (t *Tracker) Reset() {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		st.objs = make(map[core.OID]*counters)
		st.mu.Unlock()
	}
}
