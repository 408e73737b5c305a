package placement

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"objmig/internal/core"
)

// fixedHosted returns a hosted-sample callback for a node with the
// given residency and capacities.
func fixedHosted(objects, bytes, capacity, capBytes int64) func() Sample {
	return func() Sample {
		return Sample{Node: "self", Objects: objects, Bytes: bytes,
			Capacity: capacity, CapBytes: capBytes}
	}
}

// TestLedgerAdmitClaimsHeadroom: sequential admissions consume
// headroom claim by claim; the admission that would overshoot is
// refused even though the hosted counts alone still show room.
func TestLedgerAdmitClaimsHeadroom(t *testing.T) {
	t.Parallel()
	l := NewLedger()
	hosted := fixedHosted(40, 0, 100, 0) // 60 objects of headroom
	for i := 0; i < 3; i++ {
		key := ClaimKey{From: "c", Token: uint64(i)}
		if !l.Admit(key, Claim{Objects: 20}, 1, hosted) {
			t.Fatalf("admission %d refused with headroom remaining", i)
		}
	}
	// 40 hosted + 60 reserved = exactly at capacity; one more object
	// must be refused.
	if l.Admit(ClaimKey{From: "c", Token: 9}, Claim{Objects: 1}, 1, hosted) {
		t.Fatal("admission past capacity succeeded")
	}
	if got := l.Reserved(); got.Objects != 60 {
		t.Fatalf("reserved = %+v, want 60 objects", got)
	}
}

// TestLedgerByteDimension: the byte dimension vetoes independently of
// the object count — a group that fits by count but not by bytes is
// refused, and vice versa.
func TestLedgerByteDimension(t *testing.T) {
	t.Parallel()
	l := NewLedger()
	hosted := fixedHosted(1, 900, 100, 1000)
	if l.Admit(ClaimKey{Token: 1}, Claim{Objects: 1, Bytes: 200}, 1, hosted) {
		t.Fatal("byte overshoot admitted (1 object, 200 bytes into 100 headroom)")
	}
	if !l.Admit(ClaimKey{Token: 2}, Claim{Objects: 50, Bytes: 100}, 1, hosted) {
		t.Fatal("group fitting both dimensions refused")
	}
	// The 100 reserved bytes now count: nothing further fits.
	if l.Admit(ClaimKey{Token: 3}, Claim{Objects: 1, Bytes: 1}, 1, hosted) {
		t.Fatal("admission ignored reserved bytes")
	}
}

// TestLedgerReleaseRestoresHeadroom: a released claim returns its
// footprint, and re-admission under the same key replaces rather than
// accumulates.
func TestLedgerReleaseRestoresHeadroom(t *testing.T) {
	t.Parallel()
	l := NewLedger()
	hosted := fixedHosted(0, 0, 10, 0)
	key := ClaimKey{From: "c", Token: 1}
	if !l.Admit(key, Claim{Objects: 8, Bytes: 80}, 1, hosted) {
		t.Fatal("first admission refused")
	}
	// Same key again: replaces the 8-object claim, not 8+8=16 > 10.
	if !l.Admit(key, Claim{Objects: 8, Bytes: 80}, 1, hosted) {
		t.Fatal("same-key re-admission refused (claim accumulated instead of replaced)")
	}
	c, ok := l.Release(key)
	if !ok || c.Objects != 8 || c.Bytes != 80 {
		t.Fatalf("release = %+v, %v; want the 8/80 claim", c, ok)
	}
	if _, ok := l.Release(key); ok {
		t.Fatal("double release reported a claim")
	}
	if got := l.Reserved(); got.Objects != 0 || got.Bytes != 0 {
		t.Fatalf("reserved after release = %+v, want zero", got)
	}
	if !l.Admit(ClaimKey{Token: 2}, Claim{Objects: 10}, 1, hosted) {
		t.Fatal("headroom not restored after release")
	}
}

// TestLedgerConcurrentAdmission (-race): K coordinators race one
// near-capacity ledger; the admitted claims never collectively
// overshoot the headroom, whichever interleaving the scheduler picks.
func TestLedgerConcurrentAdmission(t *testing.T) {
	t.Parallel()
	const (
		coordinators = 16
		claimObjects = 30
		claimBytes   = 300
	)
	l := NewLedger()
	// 100 objects / 1000 bytes of headroom: at most 3 of the 16 claims
	// fit in either dimension.
	hosted := fixedHosted(0, 0, 100, 1000)
	var wg sync.WaitGroup
	admitted := make([]bool, coordinators)
	for i := 0; i < coordinators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := ClaimKey{From: core.NodeID(fmt.Sprintf("c%d", i)), Token: uint64(i)}
			admitted[i] = l.Admit(key, Claim{Objects: claimObjects, Bytes: claimBytes}, 1, hosted)
		}(i)
	}
	wg.Wait()
	var wins int
	for _, ok := range admitted {
		if ok {
			wins++
		}
	}
	if wins != 3 {
		t.Fatalf("%d of %d claims admitted, headroom fits exactly 3", wins, coordinators)
	}
	if got := l.Reserved(); got.Objects != 3*claimObjects || got.Bytes != 3*claimBytes {
		t.Fatalf("reserved = %+v, want exactly the 3 admitted claims", got)
	}
}

// --- ShedTarget ---

// shedView builds a view from samples.
func shedView(samples ...Sample) *View {
	v := NewView(time.Minute)
	for _, s := range samples {
		v.Observe(s)
	}
	return v
}

// TestShedTargetPicksHeadroom: the elected peer is the one with the
// lowest projected utilisation, and peers whose projection reaches the
// shed ratio are vetoed.
func TestShedTargetPicksHeadroom(t *testing.T) {
	t.Parallel()
	g := Group{Self: "self", Members: 5, Bytes: 50}
	v := shedView(
		Sample{Node: "busy", Objects: 80, Capacity: 100, Seq: 1},  // projected 0.85 >= 0.8: vetoed
		Sample{Node: "cosy", Objects: 20, Capacity: 100, Seq: 1},  // projected 0.25
		Sample{Node: "tight", Objects: 60, Capacity: 100, Seq: 1}, // projected 0.65
		Sample{Node: "self", Objects: 95, Capacity: 100, Seq: 1},  // the overloaded host itself
	)
	dec, ok := ShedTarget(g, v, 0.8)
	if !ok || dec.Target != "cosy" {
		t.Fatalf("elected %q (ok=%v), want cosy", dec.Target, ok)
	}
	if len(dec.Vetoed) != 1 || dec.Vetoed[0] != "busy" {
		t.Fatalf("vetoed = %v, want [busy]", dec.Vetoed)
	}
}

// TestShedTargetNeverPushesPastRatio: when every peer's projection
// reaches the shed ratio there is no target — an overloaded cluster
// does not ping-pong groups between equally drowning nodes.
func TestShedTargetNeverPushesPastRatio(t *testing.T) {
	t.Parallel()
	g := Group{Self: "self", Members: 10, Bytes: 0}
	v := shedView(
		Sample{Node: "a", Objects: 75, Capacity: 100, Seq: 1}, // projected 0.85
		Sample{Node: "b", Objects: 90, Capacity: 100, Seq: 1}, // projected 1.0
	)
	if dec, ok := ShedTarget(g, v, 0.8); ok {
		t.Fatalf("elected %q with no peer under the shed ratio", dec.Target)
	} else if len(dec.Vetoed) != 2 {
		t.Fatalf("vetoed = %v, want both peers", dec.Vetoed)
	}
}

// TestShedTargetTieBreaks: equal projections prefer the peer with the
// higher affinity for the group, then the lexically smaller node.
func TestShedTargetTieBreaks(t *testing.T) {
	t.Parallel()
	g := Group{Self: "self", Members: 1,
		PerNode: map[core.NodeID]int64{"z-wanted": 9, "a-cold": 0}}
	v := shedView(
		Sample{Node: "a-cold", Objects: 10, Capacity: 100, Seq: 1},
		Sample{Node: "z-wanted", Objects: 10, Capacity: 100, Seq: 1},
	)
	dec, ok := ShedTarget(g, v, 0.8)
	if !ok || dec.Target != "z-wanted" {
		t.Fatalf("elected %q, want the affine z-wanted", dec.Target)
	}
	// No affinity anywhere: lexical order decides.
	g.PerNode = nil
	dec, ok = ShedTarget(g, v, 0.8)
	if !ok || dec.Target != "a-cold" {
		t.Fatalf("elected %q, want lexically-smaller a-cold", dec.Target)
	}
}

// TestShedTargetByteHeadroom: a byte-capped peer with no byte headroom
// is vetoed even when its object count is nearly empty.
func TestShedTargetByteHeadroom(t *testing.T) {
	t.Parallel()
	g := Group{Self: "self", Members: 1, Bytes: 500}
	v := shedView(
		Sample{Node: "thin", Objects: 1, Bytes: 600, Capacity: 100, CapBytes: 1000, Seq: 1}, // byte projection 1.1
		Sample{Node: "wide", Objects: 50, Bytes: 100, Capacity: 100, CapBytes: 1000, Seq: 1},
	)
	dec, ok := ShedTarget(g, v, 0.8)
	if !ok || dec.Target != "wide" {
		t.Fatalf("elected %q (ok=%v), want wide", dec.Target, ok)
	}
	if len(dec.Vetoed) != 1 || dec.Vetoed[0] != "thin" {
		t.Fatalf("vetoed = %v, want [thin]", dec.Vetoed)
	}
}

// --- Byte-weighted Score properties ---

// TestScoreMonotoneInFreeBytes: lowering a candidate's resident bytes
// (more byte headroom, everything else equal) never lowers its score.
func TestScoreMonotoneInFreeBytes(t *testing.T) {
	t.Parallel()
	g := Group{Self: "self", Members: 2, Bytes: 100, Local: 1,
		PerNode: map[core.NodeID]int64{"cand": 100}}
	opt := Options{Hysteresis: 1, OverloadRatio: 1}
	prev := -1.0
	for bytes := int64(900); bytes >= 0; bytes -= 100 {
		v := shedView(Sample{Node: "cand", Objects: 1, Bytes: bytes,
			Capacity: 100, CapBytes: 1000, Seq: 1})
		dec, ok := Score(g, v, opt)
		if !ok || dec.Target != "cand" {
			t.Fatalf("bytes=%d: elected %q (ok=%v), want cand", bytes, dec.Target, ok)
		}
		if dec.Score < prev {
			t.Fatalf("score fell from %v to %v as free bytes grew", prev, dec.Score)
		}
		prev = dec.Score
	}
}

// TestScoreNeverElectsByteVetoed: however hot its affinity, a
// candidate past its byte capacity is never elected.
func TestScoreNeverElectsByteVetoed(t *testing.T) {
	t.Parallel()
	g := Group{Self: "self", Members: 1, Bytes: 200, Local: 0,
		PerNode: map[core.NodeID]int64{"hot": 1 << 20, "mild": 10}}
	v := shedView(
		Sample{Node: "hot", Objects: 1, Bytes: 900, Capacity: 100, CapBytes: 1000, Seq: 1}, // projected 1.1: vetoed
		Sample{Node: "mild", Objects: 1, Bytes: 0, Capacity: 100, CapBytes: 1000, Seq: 1},
	)
	dec, ok := Score(g, v, Options{Hysteresis: 1})
	if !ok || dec.Target != "mild" {
		t.Fatalf("elected %q (ok=%v), want mild", dec.Target, ok)
	}
	for _, n := range dec.Vetoed {
		if n == dec.Target {
			t.Fatalf("elected a vetoed node %q", n)
		}
	}
	if len(dec.Vetoed) != 1 || dec.Vetoed[0] != "hot" {
		t.Fatalf("vetoed = %v, want [hot]", dec.Vetoed)
	}
}

// TestScoreDeterministicUnderPermutation: the decision must not depend
// on the order samples were observed or the map iteration order of the
// group's per-node affinity. (With the load discount active the exact
// scores also depend on sample ages — live clock readings — so the
// affinities are kept distinct enough that sub-millisecond age jitter
// cannot reorder them.)
func TestScoreDeterministicUnderPermutation(t *testing.T) {
	t.Parallel()
	samples := []Sample{
		{Node: "a", Objects: 10, Bytes: 100, Capacity: 100, CapBytes: 1000, Seq: 1},
		{Node: "b", Objects: 10, Bytes: 100, Capacity: 100, CapBytes: 1000, Seq: 1},
		{Node: "c", Objects: 50, Bytes: 990, Capacity: 100, CapBytes: 1000, Seq: 1}, // byte-vetoed
	}
	g := Group{Self: "self", Members: 3, Bytes: 90, Local: 1,
		PerNode: map[core.NodeID]int64{"a": 50, "b": 40, "c": 1000}}
	opt := Options{Hysteresis: 1}
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {1, 0, 2}}
	for _, p := range perms {
		v := NewView(time.Minute)
		for _, i := range p {
			v.Observe(samples[i])
		}
		dec, ok := Score(g, v, opt)
		if !ok || dec.Target != "a" {
			t.Fatalf("permutation %v elected %q (ok=%v), want a every time", p, dec.Target, ok)
		}
		if len(dec.Vetoed) != 1 || dec.Vetoed[0] != "c" {
			t.Fatalf("permutation %v vetoed %v, want [c]", p, dec.Vetoed)
		}
	}
}

// TestScoreLexicalTieBreak: with the load discount disabled (scores
// are pure affinity, no clock dependence) an exact tie nominates the
// lexically smaller node under every observation order — and never
// actually moves, because a tied winner fails strict domination.
func TestScoreLexicalTieBreak(t *testing.T) {
	t.Parallel()
	samples := []Sample{
		{Node: "b", Objects: 10, Bytes: 100, Capacity: 100, CapBytes: 1000, Seq: 1},
		{Node: "a", Objects: 10, Bytes: 100, Capacity: 100, CapBytes: 1000, Seq: 1},
	}
	g := Group{Self: "self", Members: 1, Bytes: 10,
		PerNode: map[core.NodeID]int64{"a": 40, "b": 40}}
	opt := Options{Hysteresis: 1, LoadDiscount: -1}
	for _, p := range [][]int{{0, 1}, {1, 0}} {
		v := NewView(time.Minute)
		for _, i := range p {
			v.Observe(samples[i])
		}
		dec, ok := Score(g, v, opt)
		if ok {
			t.Fatalf("permutation %v moved on an exact tie", p)
		}
		if dec.Target != "a" {
			t.Fatalf("permutation %v nominated %q, want the lexical winner a", p, dec.Target)
		}
	}
}

// TestShedTargetSkipsUnhealthy: shedding never elects a degraded or
// critical peer, even when it has the most headroom.
func TestShedTargetSkipsUnhealthy(t *testing.T) {
	t.Parallel()
	v := NewView(time.Minute)
	v.Observe(Sample{Node: "roomy", Objects: 0, Capacity: 100, Seq: 1, Health: HealthDegraded})
	v.Observe(Sample{Node: "tight", Objects: 60, Capacity: 100, Seq: 1})

	g := Group{Self: "s", Members: 5}
	dec, ok := ShedTarget(g, v, 1)
	if !ok || dec.Target != "tight" {
		t.Fatalf("ShedTarget = %+v, %v; want tight", dec, ok)
	}
	if len(dec.Vetoed) != 1 || dec.Vetoed[0] != "roomy" {
		t.Fatalf("vetoed = %v, want [roomy]", dec.Vetoed)
	}

	// All peers sick: no shed.
	v2 := NewView(time.Minute)
	v2.Observe(Sample{Node: "a", Capacity: 100, Seq: 1, Health: HealthCritical})
	if _, ok := ShedTarget(g, v2, 1); ok {
		t.Fatal("shed elected a critical peer")
	}
}
