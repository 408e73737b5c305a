package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"objmig/internal/core"
)

func node(i int) core.NodeID { return core.NodeID(fmt.Sprintf("n%02d", i)) }

// TestViewFreshness: entries fade — a sample older than the TTL is
// absent, and Observe keeps only the newest Seq per node.
func TestViewFreshness(t *testing.T) {
	t.Parallel()
	v := NewView(50 * time.Millisecond)
	v.Observe(Sample{Node: "a", Objects: 3, Seq: 2})
	v.Observe(Sample{Node: "a", Objects: 99, Seq: 1}) // straggler: must lose
	if s, _, ok := v.Get("a"); !ok || s.Objects != 3 {
		t.Fatalf("view kept the stale sample: %+v ok=%v", s, ok)
	}
	v.Observe(Sample{Node: "a", Objects: 7, Seq: 3})
	if s, _, ok := v.Get("a"); !ok || s.Objects != 7 {
		t.Fatalf("newer sample lost: %+v ok=%v", s, ok)
	}
	time.Sleep(80 * time.Millisecond)
	if _, _, ok := v.Get("a"); ok {
		t.Fatal("sample survived past the TTL")
	}
	if n := v.Nodes(); len(n) != 0 {
		t.Fatalf("Nodes reports stale entries: %v", n)
	}
}

// TestScorePureAffinity: with no load knowledge the engine is the
// paper's compare-nodes rule on the aggregate — strict domination
// scaled by hysteresis. This is the election the autopilot runs when
// no placement daemon feeds it a view.
func TestScorePureAffinity(t *testing.T) {
	t.Parallel()
	v := NewView(0)
	cases := []struct {
		name  string
		g     Group
		want  core.NodeID
		moved bool
	}{
		{"dominant caller wins", Group{Self: "s", Members: 1,
			PerNode: map[core.NodeID]int64{"a": 10}}, "a", true},
		{"local rival under hysteresis", Group{Self: "s", Members: 1, Local: 6,
			PerNode: map[core.NodeID]int64{"a": 10}}, "", false},
		{"local rival beaten", Group{Self: "s", Members: 1, Local: 6,
			PerNode: map[core.NodeID]int64{"a": 13}}, "a", true},
		{"runner-up under hysteresis", Group{Self: "s", Members: 1,
			PerNode: map[core.NodeID]int64{"a": 10, "b": 9}}, "", false},
		{"equal callers stay", Group{Self: "s", Members: 1,
			PerNode: map[core.NodeID]int64{"a": 10, "b": 10}}, "", false},
		{"no remote pressure", Group{Self: "s", Members: 1, Local: 50}, "", false},
	}
	for _, tc := range cases {
		dec, ok := Score(tc.g, v, Options{})
		if ok != tc.moved || (ok && dec.Target != tc.want) {
			t.Errorf("%s: Score = %+v, %v; want target %q moved=%v", tc.name, dec, ok, tc.want, tc.moved)
		}
	}
}

// TestScoreGroupAggregation: one hot member must not drag a closure
// whose aggregate affinity points elsewhere — the group's combined
// pressure decides.
func TestScoreGroupAggregation(t *testing.T) {
	t.Parallel()
	v := NewView(0)
	// Member 1 is individually hottest towards "a" (10 vs 4), but the
	// closure's aggregate points to "b" (4+4+4=12 vs 10).
	g := Group{Self: "s", Members: 3,
		PerNode: map[core.NodeID]int64{"a": 10, "b": 24}}
	dec, ok := Score(g, v, Options{})
	if !ok || dec.Target != "b" {
		t.Fatalf("aggregate election: %+v, %v; want b", dec, ok)
	}
}

// TestScoreOverloadVeto: a candidate at capacity is excluded however
// dominant its affinity, and the election falls to the next best
// non-vetoed candidate when that one clears the hysteresis bar.
func TestScoreOverloadVeto(t *testing.T) {
	t.Parallel()
	v := NewView(time.Minute)
	v.Observe(Sample{Node: "hot", Objects: 10, Capacity: 10, Seq: 1}) // full
	v.Observe(Sample{Node: "alt", Objects: 0, Capacity: 100, Seq: 1})

	g := Group{Self: "s", Members: 2,
		PerNode: map[core.NodeID]int64{"hot": 1000, "alt": 90}}
	dec, ok := Score(g, v, Options{})
	if !ok || dec.Target != "alt" {
		t.Fatalf("veto election: %+v, %v; want alt", dec, ok)
	}
	if len(dec.Vetoed) != 1 || dec.Vetoed[0] != "hot" {
		t.Fatalf("vetoed list: %v, want [hot]", dec.Vetoed)
	}

	// With no viable alternative the group stays.
	g2 := Group{Self: "s", Members: 2, PerNode: map[core.NodeID]int64{"hot": 1000}}
	if dec, ok := Score(g2, v, Options{}); ok {
		t.Fatalf("overloaded sole candidate elected: %+v", dec)
	}
}

// TestScoreHeadroomDiscount: between two candidates with equal
// affinity, the one with more headroom wins; the discount alone never
// flips a decisive affinity gap into a move below hysteresis.
func TestScoreHeadroomDiscount(t *testing.T) {
	t.Parallel()
	v := NewView(time.Minute)
	v.Observe(Sample{Node: "busy", Objects: 9, Capacity: 12, Seq: 1})
	v.Observe(Sample{Node: "idle", Objects: 0, Capacity: 12, Seq: 1})
	g := Group{Self: "s", Members: 1,
		PerNode: map[core.NodeID]int64{"busy": 100, "idle": 60}}
	dec, ok := Score(g, v, Options{Hysteresis: 1})
	if !ok || dec.Target != "idle" {
		t.Fatalf("headroom discount: %+v, %v; want idle", dec, ok)
	}
}

// TestScoreOverloadedSelfStays: an overloaded *host* is never vetoed
// into moving — its local score is discounted, not zeroed, and its
// own utilisation does not double-count the group it already hosts.
// A closure its own traffic dominates must stay put even when the
// node is past capacity.
func TestScoreOverloadedSelfStays(t *testing.T) {
	t.Parallel()
	v := NewView(time.Minute)
	// Self is over capacity (12 hosted incl. the group, cap 10); a
	// lone remote caller has a sliver of the pressure.
	v.Observe(Sample{Node: "s", Objects: 12, Capacity: 10, Seq: 1})
	g := Group{Self: "s", Members: 2, Local: 1000,
		PerNode: map[core.NodeID]int64{"a": 5}}
	if dec, ok := Score(g, v, Options{}); ok {
		t.Fatalf("dominant local pressure evicted by self-overload: %+v", dec)
	}
	// Sanity: self at exactly capacity is util 1.0 with incoming 0 —
	// the discount halves the local score (weight 1/(1+1·1·fresh))
	// but a decisive local majority still holds.
	v.Observe(Sample{Node: "s", Objects: 10, Capacity: 10, Seq: 2})
	if dec, ok := Score(g, v, Options{}); ok {
		t.Fatalf("at-capacity host evicted its own hot closure: %+v", dec)
	}
}

// TestScoreRequireMajority: the reinstantiation rule on aggregates —
// the leader must hold strictly more than half of all observed
// pressure, on top of the compare-nodes bar it already cleared.
func TestScoreRequireMajority(t *testing.T) {
	t.Parallel()
	v := NewView(0)
	cases := []struct {
		name     string
		perNode  map[core.NodeID]int64
		majority bool
		moved    bool
	}{
		{"clear majority", map[core.NodeID]int64{"a": 12, "b": 5, "c": 5}, true, true},
		{"leader short of half", map[core.NodeID]int64{"a": 12, "b": 5, "c": 5, "d": 3}, true, false},
		{"same pressure under compare-nodes", map[core.NodeID]int64{"a": 12, "b": 5, "c": 5, "d": 3}, false, true},
		{"majority regained", map[core.NodeID]int64{"a": 14, "b": 5, "c": 5, "d": 3}, true, true},
	}
	for _, tc := range cases {
		g := Group{Self: "s", Members: 1, PerNode: tc.perNode}
		dec, ok := Score(g, v, Options{RequireMajority: tc.majority})
		if ok != tc.moved || (ok && dec.Target != "a") {
			t.Errorf("%s: Score = %+v, %v; want moved=%v to a", tc.name, dec, ok, tc.moved)
		}
	}
}

// TestScoreProperties is the property test: across randomized groups
// and views, (1) a closure is never split — the engine returns one
// target for the whole group, so every member of the closure maps to
// the same node; (2) the winner is never a vetoed (overloaded)
// candidate; (3) decisions are deterministic for identical inputs.
func TestScoreProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		v := NewView(time.Minute)
		nNodes := 2 + rng.Intn(6)
		for i := 0; i < nNodes; i++ {
			if rng.Intn(3) == 0 {
				continue // some nodes stay unknown to the view
			}
			v.Observe(Sample{
				Node:     node(i),
				Objects:  int64(rng.Intn(20)),
				Capacity: int64(rng.Intn(3) * 8), // 0 (uncapped), 8 or 16
				Seq:      1,
			})
		}
		members := 1 + rng.Intn(5)
		// Build per-member affinities, then aggregate them — the group
		// is scored as a unit regardless of how skewed individual
		// members are.
		agg := make(map[core.NodeID]int64)
		for m := 0; m < members; m++ {
			for i := 0; i < nNodes; i++ {
				if c := rng.Intn(30); c > 0 {
					agg[node(i)] += int64(c)
				}
			}
		}
		g := Group{Self: node(0), Members: members, Local: agg[node(0)], PerNode: agg}
		delete(g.PerNode, node(0))

		opt := Options{Hysteresis: 1 + rng.Float64()*2}
		dec, ok := Score(g, v, opt)
		dec2, ok2 := Score(g, v, opt)
		if ok != ok2 || dec.Target != dec2.Target || !reflect.DeepEqual(dec.Vetoed, dec2.Vetoed) {
			t.Fatalf("trial %d: nondeterministic decision: %+v/%v vs %+v/%v", trial, dec, ok, dec2, ok2)
		}
		if !ok {
			continue
		}
		// One target for the whole closure: the assignment every member
		// receives is the same node by construction of the API — assert
		// the decision names exactly one target and it is a real
		// candidate.
		if dec.Target == "" || dec.Target == g.Self {
			t.Fatalf("trial %d: elected %q", trial, dec.Target)
		}
		if g.PerNode[dec.Target] <= 0 {
			t.Fatalf("trial %d: winner %s has no affinity", trial, dec.Target)
		}
		// The winner is never overloaded.
		if s, _, known := v.Get(dec.Target); known && Overloaded(s, g.Members, g.Bytes, opt.OverloadRatio) {
			t.Fatalf("trial %d: winner %s is overloaded: %+v", trial, dec.Target, s)
		}
		for _, vetoed := range dec.Vetoed {
			if vetoed == dec.Target {
				t.Fatalf("trial %d: winner %s also vetoed", trial, dec.Target)
			}
		}
	}
}

// TestOverloadedPredicate pins the admission predicate the migration
// target shares with the scoring core.
func TestOverloadedPredicate(t *testing.T) {
	t.Parallel()
	full := Sample{Objects: 10, Capacity: 10}
	if Overloaded(full, 0, 0, 1) {
		t.Fatal("at exactly capacity is not overloaded")
	}
	if !Overloaded(full, 1, 0, 1) {
		t.Fatal("one past capacity must veto")
	}
	if Overloaded(Sample{Objects: 1000}, 50, 1<<30, 1) {
		t.Fatal("uncapped node vetoed")
	}
	if Overloaded(Sample{Objects: 12, Capacity: 10}, 0, 0, 1.5) {
		t.Fatal("ratio headroom ignored")
	}
	// The byte dimension vetoes independently of the object count.
	byteFull := Sample{Objects: 1, Capacity: 100, Bytes: 900, CapBytes: 1000}
	if Overloaded(byteFull, 1, 100, 1) {
		t.Fatal("at exactly byte capacity is not overloaded")
	}
	if !Overloaded(byteFull, 1, 101, 1) {
		t.Fatal("one byte past capacity must veto")
	}
	if got := Utilisation(byteFull, 0, 100); got != 1.0 {
		t.Fatalf("byte utilisation = %v, want 1.0", got)
	}
	// The worse dimension wins.
	both := Sample{Objects: 9, Capacity: 10, Bytes: 100, CapBytes: 1000}
	if got := Utilisation(both, 0, 0); got != 0.9 {
		t.Fatalf("max-dimension utilisation = %v, want 0.9", got)
	}
}

// TestScoreHealthGate: a critical candidate is vetoed however dominant
// its affinity; a degraded one keeps competing but with its score
// multiplied by DegradedPenalty, so a healthy rival with a fraction of
// the affinity can still win.
func TestScoreHealthGate(t *testing.T) {
	t.Parallel()
	v := NewView(time.Minute)
	v.Observe(Sample{Node: "sick", Capacity: 100, Seq: 1, Health: HealthCritical})
	v.Observe(Sample{Node: "alt", Capacity: 100, Seq: 1})

	g := Group{Self: "s", Members: 1,
		PerNode: map[core.NodeID]int64{"sick": 1000, "alt": 90}}
	dec, ok := Score(g, v, Options{})
	if !ok || dec.Target != "alt" {
		t.Fatalf("critical veto election: %+v, %v; want alt", dec, ok)
	}
	if len(dec.Vetoed) != 1 || dec.Vetoed[0] != "sick" {
		t.Fatalf("vetoed list: %v, want [sick]", dec.Vetoed)
	}

	// Degraded: penalty 0.25 shrinks 1000 affinity to ~250 effective —
	// a healthy 600 beats it despite the raw affinity gap.
	v2 := NewView(time.Minute)
	v2.Observe(Sample{Node: "limp", Capacity: 100, Seq: 1, Health: HealthDegraded})
	v2.Observe(Sample{Node: "fit", Capacity: 100, Seq: 1})
	g2 := Group{Self: "s", Members: 1,
		PerNode: map[core.NodeID]int64{"limp": 1000, "fit": 600}}
	dec2, ok2 := Score(g2, v2, Options{Hysteresis: 1})
	if !ok2 || dec2.Target != "fit" {
		t.Fatalf("degraded penalty election: %+v, %v; want fit", dec2, ok2)
	}

	// Without the health signal the raw affinity would have won.
	v3 := NewView(time.Minute)
	v3.Observe(Sample{Node: "limp", Capacity: 100, Seq: 1})
	v3.Observe(Sample{Node: "fit", Capacity: 100, Seq: 1})
	dec3, ok3 := Score(g2, v3, Options{Hysteresis: 1})
	if !ok3 || dec3.Target != "limp" {
		t.Fatalf("healthy control election: %+v, %v; want limp", dec3, ok3)
	}
}
