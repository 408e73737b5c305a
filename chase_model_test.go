package objmig

// A model check of the chase rule. The search runs the real
// chase.follow — the one decision route makes on a redirect or a
// not-found — in a small world: an object created at O that migrates up
// to k times between O, A, B and the chaser X, each migration in its
// phases (pause, install at the target, commit at the source, the
// advisory to the origin, its ack), with aborts, stale learns at former
// hosts, forwards aged out before their ack, and a chase whose first
// hint is any node. The world's tables follow internal/store's rules
// (Departed, arrived, HomeUpdate, ConfirmDeparted, Learn, Whereabouts;
// InvalidateAt touches only the hint cache, which the model leaves out)
// and the chase follows route's loop around follow, each reply in
// flight while the world moves on. A breadth-first search visits every
// interleaving and asserts that the chase ends at the object, or with
// the location lost only while a departure whose forward aged out is
// unknown to the origin, within chaseModelHops(k) remote calls, and
// that it is never stuck.
//
//	go test -run '^TestChaseModel$' -v .

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The nodes of the model; X runs the chase.
const (
	cmO = iota
	cmA
	cmB
	cmX
	cmNodes
)

const (
	cmMaxK   = 3 // migrations per interleaving
	cmLearns = 2 // stale learns per interleaving
)

var cmNames = [cmNodes]NodeID{"O", "A", "B", "X"}

// chaseModelHops is the hop bound the search asserts for k migrations:
// a stale first hint and the origin after it, and per migration the
// call that meets its redirect and, when the departure's forward was
// retired (acked or aged out) before the chase got there, the origin
// once more. The search reaches it for every k it runs; ROADMAP's k + 2
// needs forwards that outlive their ack.
func chaseModelHops(k int) int { return max(2, 2*k+1) }

// cmLoc is a location entry: a forward, or at O the home entry.
type cmLoc struct {
	ok  bool
	to  int8
	gen uint8
}

type cmNode struct {
	rec uint8 // cmNone, cmActive or cmPaused
	gen uint8 // the record's generation
	loc cmLoc
}

const (
	cmNone uint8 = iota
	cmActive
	cmPaused
)

// Migration phases; 0 is none or finished.
const (
	migPaused    uint8 = iota + 1 // the source paused the object
	migInstalled                  // the target hosts it, the source is still paused
	migCommitted                  // the source departed; the advisory is in flight
	migAdvised                    // the origin applied it; the ack is in flight
)

type cmMig struct {
	phase    uint8
	from, to int8
	gen      uint8
}

// Chase phases.
const (
	chIdle uint8 = iota
	chRunning
	chParked   // the attempt waits on a paused record
	chAnswered // the reply is on its way back to route
	chDone
)

// Replies.
const (
	rServed uint8 = iota + 1
	rMoved
	rNotFound
)

type cmChase struct {
	phase uint8
	at    int8 // the host the next attempt asks, or the one that answers
	seen  uint64
	hops  uint8
	reply uint8 // chAnswered: what at answered
	to    cmLoc // rMoved: the redirect
	known uint8 // chAnswered: the newest departure the origin knew of then
	lost  bool  // ended with the location lost
}

// cmWorld is one state of the model; it is its own search key.
type cmWorld struct {
	nodes   [cmNodes]cmNode
	migs    [cmMaxK]cmMig
	arrived [cmMaxK + 1]int8 // 1 + the host each generation was installed at; 0 before
	started uint8
	learns  uint8
	agedGen uint8 // the newest departure whose forward aged out before its ack
	ch      cmChase
}

// cmMove is one transition, kept for the trace of a violation.
type cmMove struct {
	kind string
	a, b int8
}

func (m cmMove) String() string {
	switch m.kind {
	case "migrate":
		return fmt.Sprintf("migration %d towards %s", m.a, cmNames[m.b])
	case "learn":
		return fmt.Sprintf("%s learns the object is at %s", cmNames[m.a], cmNames[m.b])
	case "start":
		return fmt.Sprintf("X starts a chase, first hint %s", cmNames[m.b])
	case "abort", "install", "commit", "advise", "ack":
		return fmt.Sprintf("%s of migration %d", m.kind, m.a)
	}
	return fmt.Sprintf("%s %s", m.kind, cmNames[m.a])
}

// departed is store.Departed at n, returning the redirect the
// departed record answers with.
func (w *cmWorld) departed(n, to int8, gen uint8) cmLoc {
	l := &w.nodes[n].loc
	switch {
	case n == cmO:
		if !l.ok || gen >= l.gen {
			*l = cmLoc{true, to, gen}
		}
		return *l
	case l.ok && gen < l.gen:
		return *l
	case to == cmO:
		*l = cmLoc{}
	default:
		*l = cmLoc{true, to, gen}
	}
	return cmLoc{true, to, gen}
}

// homeUpdate is store.HomeUpdate at the origin.
func (w *cmWorld) homeUpdate(to int8, gen uint8) {
	o := &w.nodes[cmO]
	if o.rec != cmNone && o.gen >= gen {
		return
	}
	if !o.loc.ok || gen >= o.loc.gen {
		o.loc = cmLoc{true, to, gen}
	}
}

// learn is store.Learn at n (the cache, which only seeds a first hint,
// is left out).
func (w *cmWorld) learn(n, at int8, gen uint8) {
	l := &w.nodes[n].loc
	if at == n || n == cmO || !l.ok {
		return
	}
	if gen > l.gen {
		l.to, l.gen = at, gen
	}
}

// whereabouts is store.Whereabouts at n for an object it does not host.
func (w *cmWorld) whereabouts(n int8) (cmLoc, bool) {
	l := w.nodes[n].loc
	return l, l.ok && l.to != n
}

// originGen is the newest departure the origin knows of.
func (w *cmWorld) originGen() uint8 {
	o := w.nodes[cmO]
	g := o.loc.gen
	if o.rec != cmNone && o.gen > g {
		g = o.gen
	}
	return g
}

// attempt is one turn of route's loop at the chase's next host: the
// host answers, and the reply travels back while the world moves on.
func (w *cmWorld) attempt() string {
	h := w.ch.at
	if h != cmX {
		w.ch.hops++
	}
	switch w.nodes[h].rec {
	case cmActive:
		w.answered(rServed, cmLoc{})
	case cmPaused:
		w.ch.phase = chParked
	default:
		l, moved := w.whereabouts(h)
		if moved {
			w.answered(rMoved, l)
		} else {
			w.answered(rNotFound, cmLoc{})
		}
	}
	return w.bounded()
}

func (w *cmWorld) answered(reply uint8, to cmLoc) {
	w.ch.phase, w.ch.reply, w.ch.to, w.ch.known = chAnswered, reply, to, w.originGen()
}

// receive is route's handling of the reply.
func (w *cmWorld) receive() string {
	r, l, known := w.ch.reply, w.ch.to, w.ch.known
	w.ch.reply, w.ch.to, w.ch.known = 0, cmLoc{}, 0
	if r == rServed {
		return w.reached()
	}
	return w.answer(w.ch.at, r == rMoved, l.to, l.gen, known)
}

// answer runs route's handling of a redirect or a not-found from h,
// given when the origin knew of departures up to known.
func (w *cmWorld) answer(h int8, moved bool, to int8, gen, known uint8) string {
	c := chase{origin: cmNames[cmO], seen: w.ch.seen}
	target := NodeID("")
	if moved {
		target = cmNames[to]
	}
	next := c.follow(cmNames[h], moved, target, uint64(gen))
	followed := c.seen != w.ch.seen
	w.ch.seen = c.seen
	w.ch.phase = chRunning
	switch {
	case next == "" && moved:
		if w.agedGen <= known {
			return "the chase ended as lost while the origin's chain led to the object"
		}
		w.ch.phase, w.ch.lost = chDone, true
		return w.bounded()
	case next == "":
		return "the chase ended in not-found for a live object"
	case followed:
		w.learn(cmX, to, gen)
	}
	for i, name := range cmNames {
		if name == next {
			w.ch.at = int8(i)
		}
	}
	return w.bounded()
}

// reached ends the chase at the object: route learns the host.
func (w *cmWorld) reached() string {
	c := chase{seen: w.ch.seen}
	w.learn(cmX, w.ch.at, uint8(c.gen()))
	w.ch.phase = chDone
	return w.bounded()
}

func (w *cmWorld) bounded() string {
	if bound := chaseModelHops(int(w.started)); int(w.ch.hops) > bound {
		return fmt.Sprintf("the chase took %d remote calls, over the bound of %d for %d migrations", w.ch.hops, bound, w.started)
	}
	return ""
}

// next lists every move from w, each with the state it leads to and
// the invariant it broke ("" when none).
func (w cmWorld) next(k int, visit func(m cmMove, to cmWorld, bad string)) {
	if w.ch.phase == chDone {
		return
	}
	try := func(m cmMove, f func(*cmWorld) string) {
		c := w
		bad := f(&c)
		visit(m, c, bad)
	}
	// A migration from the active host.
	if int(w.started) < k {
		for h := int8(0); h < cmNodes; h++ {
			if w.nodes[h].rec != cmActive {
				continue
			}
			for t := int8(0); t < cmNodes; t++ {
				if t == h {
					continue
				}
				try(cmMove{"migrate", int8(w.started), t}, func(c *cmWorld) string {
					c.nodes[h].rec = cmPaused
					c.migs[c.started] = cmMig{migPaused, h, t, c.nodes[h].gen + 1}
					c.started++
					return ""
				})
			}
		}
	}
	for i := range w.migs {
		m, i := w.migs[i], int8(i)
		switch m.phase {
		case migPaused:
			try(cmMove{kind: "abort", a: i}, func(c *cmWorld) string {
				c.nodes[m.from].rec = cmActive
				c.migs[i].phase = 0
				return ""
			})
			if w.nodes[m.to].rec != cmNone {
				// InstallBatch refuses a record paused by another
				// migration: this one can only abort.
				break
			}
			try(cmMove{kind: "install", a: i}, func(c *cmWorld) string {
				c.nodes[m.to] = cmNode{rec: cmActive, gen: m.gen} // arrived: its entry goes
				c.arrived[m.gen] = m.to + 1
				c.migs[i].phase = migInstalled
				return ""
			})
		case migInstalled:
			try(cmMove{kind: "commit", a: i}, func(c *cmWorld) string {
				c.nodes[m.from].rec = cmNone
				redirect := c.departed(m.from, m.to, m.gen)
				if c.ch.phase == chParked && c.ch.at == m.from {
					c.answered(rMoved, redirect)
				}
				c.migs[i].phase = migCommitted
				if m.from == cmO {
					c.homeUpdate(m.to, m.gen) // the origin advises itself
					c.migs[i].phase = 0
				}
				return ""
			})
		case migCommitted:
			try(cmMove{kind: "advise", a: i}, func(c *cmWorld) string {
				c.homeUpdate(m.to, m.gen)
				c.migs[i].phase = migAdvised
				return ""
			})
		case migAdvised:
			try(cmMove{kind: "ack", a: i}, func(c *cmWorld) string {
				if l := &c.nodes[m.from].loc; l.ok && l.to == m.to && l.gen <= m.gen {
					*l = cmLoc{}
				}
				c.migs[i].phase = 0
				return ""
			})
		}
	}
	for n := int8(cmA); n < cmNodes; n++ {
		l := w.nodes[n].loc
		if !l.ok {
			continue
		}
		try(cmMove{kind: "age out the forward at", a: n}, func(c *cmWorld) string {
			if l.gen > c.originGen() && l.gen > c.agedGen {
				c.agedGen = l.gen
			}
			c.nodes[n].loc = cmLoc{}
			return ""
		})
		if w.learns == cmLearns {
			continue
		}
		for g, at := range w.arrived {
			if at == 0 {
				continue
			}
			c := w
			c.learn(n, at-1, uint8(g))
			if c.nodes[n].loc != l {
				c.learns++
				visit(cmMove{"learn", n, at - 1}, c, "")
			}
		}
	}
	switch w.ch.phase {
	case chIdle:
		// route's first attempt: the chaser's record, its forward, or any
		// cached hint (the origin when it has none).
		hints := []int8{cmO, cmA, cmB}
		switch x := w.nodes[cmX]; {
		case x.rec != cmNone:
			hints = []int8{cmX}
		case x.loc.ok:
			hints = []int8{x.loc.to}
		}
		for _, h := range hints {
			try(cmMove{kind: "start", b: h}, func(c *cmWorld) string {
				c.ch.phase, c.ch.at = chRunning, h
				return ""
			})
		}
	case chRunning:
		try(cmMove{kind: "attempt at", a: w.ch.at}, (*cmWorld).attempt)
	case chParked:
		if w.nodes[w.ch.at].rec == cmActive { // the pause ended in an abort
			try(cmMove{kind: "served after the pause at", a: w.ch.at}, func(c *cmWorld) string {
				c.answered(rServed, cmLoc{})
				return ""
			})
		}
	case chAnswered:
		try(cmMove{kind: "reply from", a: w.ch.at}, (*cmWorld).receive)
	}
}

// cmStats is what one search saw.
type cmStats struct {
	states, transitions int
	maxHops, maxLost    int // the longest chase that reached the object, and that ended lost
	reached, lost       int
	took                time.Duration
}

// searchChases explores every interleaving with at most k migrations.
// It returns the first violation with the moves that lead to it.
func searchChases(k int) (cmStats, []cmMove, string) {
	type parent struct {
		from cmWorld
		move cmMove
	}
	var st cmStats
	start := time.Now()
	var w0 cmWorld
	w0.nodes[cmO].rec = cmActive
	w0.arrived[0] = cmO + 1
	seen := map[cmWorld]parent{w0: {}}
	queue := []cmWorld{w0}
	trace := func(w cmWorld) []cmMove {
		var ms []cmMove
		for w != w0 {
			p := seen[w]
			ms = append([]cmMove{p.move}, ms...)
			w = p.from
		}
		return ms
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		st.states++
		moves := 0
		var bad string
		var badMoves []cmMove
		w.next(k, func(m cmMove, to cmWorld, why string) {
			moves++
			st.transitions++
			if bad != "" {
				return
			}
			if why != "" {
				bad, badMoves = why, append(trace(w), m)
				return
			}
			if _, ok := seen[to]; ok {
				return
			}
			seen[to] = parent{w, m}
			queue = append(queue, to)
			if to.ch.phase == chDone {
				if to.ch.lost {
					st.lost++
					st.maxLost = max(st.maxLost, int(to.ch.hops))
				} else {
					st.reached++
					st.maxHops = max(st.maxHops, int(to.ch.hops))
				}
			}
		})
		if bad != "" {
			st.took = time.Since(start)
			return st, badMoves, bad
		}
		if moves == 0 && w.ch.phase != chDone {
			st.took = time.Since(start)
			return st, trace(w), "the chase is stuck"
		}
	}
	st.took = time.Since(start)
	return st, nil, ""
}

// TestChaseModel runs the search for up to k = 3 migrations and logs,
// per k, the states it explored and the longest chases it saw.
func TestChaseModel(t *testing.T) {
	for k := 0; k <= cmMaxK; k++ {
		st, moves, bad := searchChases(k)
		if bad != "" {
			var b strings.Builder
			for i, m := range moves {
				fmt.Fprintf(&b, "\n  %2d. %s", i+1, m)
			}
			t.Fatalf("k=%d: %s after %d moves (%d states searched):%s", k, bad, len(moves), st.states, b.String())
		}
		t.Logf("k=%d: %d states, %d transitions in %v; %d chases reached the object in at most %d hops, %d ended lost in at most %d (bound %d)",
			k, st.states, st.transitions, st.took.Round(time.Millisecond), st.reached, st.maxHops, st.lost, st.maxLost, chaseModelHops(k))
	}
}
