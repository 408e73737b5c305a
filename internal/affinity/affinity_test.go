package affinity

import (
	"fmt"
	"sync"
	"testing"

	"objmig/internal/core"
)

func oid(origin string, seq uint64) core.OID {
	return core.OID{Origin: core.NodeID(origin), Seq: seq}
}

func enabled(self core.NodeID) *Tracker {
	t := New(self)
	t.SetEnabled(true)
	return t
}

func TestDisabledTrackerRecordsNothing(t *testing.T) {
	t.Parallel()
	tr := New("n0")
	tr.Record(oid("n0", 1), "n1")
	if got := tr.Hot(0); len(got) != 0 {
		t.Fatalf("disabled tracker recorded: %+v", got)
	}
	if obs := tr.Take([]core.OID{oid("n0", 1)}); obs != nil {
		t.Fatalf("disabled Take = %+v", obs)
	}
}

func TestRecordAndLoad(t *testing.T) {
	t.Parallel()
	tr := enabled("n0")
	o := oid("n0", 1)
	for i := 0; i < 5; i++ {
		tr.Record(o, "n1")
	}
	for i := 0; i < 3; i++ {
		tr.Record(o, "n2")
	}
	for i := 0; i < 2; i++ {
		tr.RecordLocal(o)
	}
	tr.Record(o, "") // unattributable: ignored

	l := tr.Load(o)
	if l.Local != 2 || l.Total != 10 {
		t.Fatalf("load = %+v", l)
	}
	if len(l.Callers) != 2 || l.Callers[0] != (CallerLoad{Node: "n1", Count: 5}) ||
		l.Callers[1] != (CallerLoad{Node: "n2", Count: 3}) {
		t.Fatalf("callers = %+v", l.Callers)
	}
}

func TestCallerOrderingIsDeterministic(t *testing.T) {
	t.Parallel()
	tr := enabled("n0")
	o := oid("n0", 1)
	// Equal counts: ties must break by node ID.
	tr.Record(o, "zz")
	tr.Record(o, "aa")
	tr.Record(o, "mm")
	l := tr.Load(o)
	if len(l.Callers) != 3 || l.Callers[0].Node != "aa" || l.Callers[1].Node != "mm" || l.Callers[2].Node != "zz" {
		t.Fatalf("tie order = %+v", l.Callers)
	}
}

// TestDecayHalvesAndForgets: each Decay halves every counter (integer
// division), and an object whose pressure bottoms out is dropped.
func TestDecayHalvesAndForgets(t *testing.T) {
	t.Parallel()
	tr := enabled("n0")
	o := oid("n0", 1)
	for i := 0; i < 8; i++ {
		tr.Record(o, "n1")
	}
	for i := 0; i < 3; i++ {
		tr.RecordLocal(o)
	}

	tr.Decay()
	l := tr.Load(o)
	if l.Local != 1 || len(l.Callers) != 1 || l.Callers[0].Count != 4 {
		t.Fatalf("after one decay: %+v", l)
	}
	tr.Decay() // local 0, caller 2
	tr.Decay() // caller 1
	l = tr.Load(o)
	if l.Local != 0 || l.Total != 1 {
		t.Fatalf("after three decays: %+v", l)
	}
	tr.Decay() // everything zero: entry dropped
	if got := tr.Hot(0); len(got) != 0 {
		t.Fatalf("object survived full decay: %+v", got)
	}
}

func TestHotFiltersAndSorts(t *testing.T) {
	t.Parallel()
	tr := enabled("n0")
	hot, warm, cold := oid("n0", 1), oid("n0", 3), oid("n0", 4)
	tie := oid("n0", 2) // as warm as warm: the smaller OID ranks first
	for i := 0; i < 10; i++ {
		tr.Record(hot, "n1")
	}
	for i := 0; i < 5; i++ {
		tr.Record(warm, "n2")
		tr.Record(tie, "n2")
	}
	tr.Record(cold, "n1")

	// Hottest first, OID ascending among equals, the floor applied.
	got := tr.Hot(5)
	want := []core.OID{hot, tie, warm}
	if len(got) != len(want) {
		t.Fatalf("Hot(5) = %+v", got)
	}
	for i, l := range got {
		if l.Obj != want[i] {
			t.Fatalf("Hot(5)[%d] = %v, want %v (full: %+v)", i, l.Obj, want[i], got)
		}
	}
	if got[0].Total != 10 || got[1].Total != 5 || got[2].Total != 5 {
		t.Fatalf("Hot totals = %+v", got)
	}
}

// TestTakeRemovesAndReports: Take returns the observations (local
// serves attributed to the tracker's own node) and forgets the object.
func TestTakeRemovesAndReports(t *testing.T) {
	t.Parallel()
	tr := enabled("n0")
	o := oid("n0", 1)
	tr.Record(o, "n1")
	tr.Record(o, "n1")
	tr.RecordLocal(o)

	obs := tr.Take([]core.OID{o, oid("n0", 99)})
	if len(obs) != 2 {
		t.Fatalf("obs = %+v", obs)
	}
	if obs[0] != (Obs{Obj: o, From: "n0", Count: 1}) || obs[1] != (Obs{Obj: o, From: "n1", Count: 2}) {
		t.Fatalf("obs = %+v", obs)
	}
	if l := tr.Load(o); l.Total != 0 {
		t.Fatalf("object survived Take: %+v", l)
	}
}

// TestMergeFoldsGossip: merged observations accumulate, and ones about
// this node's own callers count as local serves.
func TestMergeFoldsGossip(t *testing.T) {
	t.Parallel()
	tr := enabled("n1")
	o := oid("n0", 1)
	tr.Record(o, "n2")
	tr.Merge([]Obs{
		{Obj: o, From: "n2", Count: 4},
		{Obj: o, From: "n1", Count: 3}, // about ourselves: local
		{Obj: o, From: "", Count: 9},   // unattributable: ignored
		{Obj: o, From: "n3", Count: 0}, // empty: ignored
	})
	l := tr.Load(o)
	if l.Local != 3 || l.Total != 8 || len(l.Callers) != 1 || l.Callers[0].Count != 5 {
		t.Fatalf("after merge: %+v", l)
	}
}

func TestDropForgets(t *testing.T) {
	t.Parallel()
	tr := enabled("n0")
	o := oid("n0", 1)
	tr.Record(o, "n1")
	tr.Drop([]core.OID{o})
	if l := tr.Load(o); l.Total != 0 {
		t.Fatalf("object survived Drop: %+v", l)
	}
}

// TestConcurrentRecording hammers Record/Hot/Decay/Take from many
// goroutines; run under -race this is the tracker's thread-safety
// proof. Counts cannot be asserted exactly (decay races fold
// increments) so the test checks only for sanity and survival.
func TestConcurrentRecording(t *testing.T) {
	t.Parallel()
	tr := enabled("n0")
	const (
		workers = 8
		objects = 64
		ops     = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := core.NodeID(fmt.Sprintf("n%d", w%4))
			for i := 0; i < ops; i++ {
				o := oid("n0", uint64(i%objects))
				tr.Record(o, from)
				switch i % 500 {
				case 99:
					tr.Decay()
				case 199:
					_ = tr.Hot(1)
				case 299:
					_ = tr.Take([]core.OID{o})
				case 399:
					tr.Merge([]Obs{{Obj: o, From: "n9", Count: 2}})
				}
			}
		}(w)
	}
	wg.Wait()
	for _, l := range tr.Hot(0) {
		if l.Total < 0 || l.Local < 0 {
			t.Fatalf("negative counters: %+v", l)
		}
	}
}

// TestRecordZeroAllocSteadyState guards the hot-path contract: once an
// object and caller are known, Record must not allocate.
func TestRecordZeroAllocSteadyState(t *testing.T) {
	tr := enabled("n0")
	o := oid("n0", 1)
	tr.Record(o, "n1") // warm: object + caller installed
	tr.RecordLocal(o)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Record(o, "n1")
		tr.RecordLocal(o)
	}); n != 0 {
		t.Fatalf("steady-state Record allocates %.1f times per run", n)
	}
}
