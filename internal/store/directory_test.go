package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"objmig/internal/core"
)

// TestClosureRecordSharing: a closure-level home update must cost one
// shared record (plus member references) instead of per-object home
// entries, resolve on Hint/Home, and refresh all members on one report.
// At an old host, Learn detaches one member only.
func TestClosureRecordSharing(t *testing.T) {
	t.Parallel()
	s := New("n1")
	const members = 64
	anchor := core.OID{Origin: "n1", Seq: 1}
	ids := make([]core.OID, 0, members)
	for i := 0; i < members; i++ {
		ids = append(ids, core.OID{Origin: "n1", Seq: uint64(i + 1)})
	}
	s.HomeUpdateClosure(anchor, 1, ids, "n2")

	ls := s.LocStats()
	if ls.Home != 0 || ls.Closures != 1 || ls.ClosureRefs != members {
		t.Fatalf("LocStats = %+v, want 0 home / 1 closure / %d refs", ls, members)
	}
	// One shared record versus N per-object entries: ≥4× fewer for a
	// 64-member closure (here 1 entry vs 64).
	if got := ls.Entries(); got*4 > members {
		t.Fatalf("closure update cost %d entries for %d members", got, members)
	}
	for _, id := range ids {
		if hint := s.Hint(id); hint != "n2" {
			t.Fatalf("Hint(%s) = %s, want n2", id, hint)
		}
		if at, ok := s.Home(id); !ok || at != "n2" {
			t.Fatalf("Home(%s) = %s, %v", id, at, ok)
		}
	}
	// A single closure-level update refreshes every member at once.
	s.HomeUpdateClosure(anchor, 2, ids, "n3")
	for _, id := range ids {
		if hint := s.Hint(id); hint != "n3" {
			t.Fatalf("after closure update, Hint(%s) = %s, want n3", id, hint)
		}
	}
	if ls := s.LocStats(); ls.ClosureRefs != members || ls.Home != 0 {
		t.Fatalf("closure update did not recapture members: %+v", ls)
	}

	// An old host's record: Learn is hearsay about one object, so it
	// detaches that member only, leaving the shared record (and
	// everyone else) untouched.
	old := New("n4")
	old.DepartedClosure(anchor, 1, ids, "n2")
	old.Learn(ids[17], "n3")
	if hint := old.Hint(ids[17]); hint != "n3" {
		t.Fatalf("after Learn, Hint(%s) = %s, want n3", ids[17], hint)
	}
	if hint := old.Hint(ids[16]); hint != "n2" {
		t.Fatalf("Learn dragged a sibling: Hint(%s) = %s, want n2", ids[16], hint)
	}
	// A fresher closure departure recaptures the detached member (its
	// forward carries the old generation).
	old.DepartedClosure(anchor, 2, ids, "n5")
	if ls := old.LocStats(); ls.ClosureRefs != members || ls.Forwards != 0 {
		t.Fatalf("closure departure did not recapture members: %+v", ls)
	}
}

// TestLearnLeavesOriginToReports: the origin's home index takes only
// generation-ordered reports. A stale reply learnt after a fresher
// HomeUpdate or HomeUpdateClosure leaves Home and Hint at the reported
// host, whose stub chain leads to the object; the hearsay host may have
// retired its stub already.
func TestLearnLeavesOriginToReports(t *testing.T) {
	t.Parallel()
	s := New("n0")
	x := oid("n0", 1)
	s.HomeUpdate([]core.OID{x}, []uint64{12}, "n1")
	s.Learn(x, "n2")
	group := []core.OID{oid("n0", 2), oid("n0", 3)}
	s.HomeUpdateClosure(group[0], 7, group, "n1")
	s.Learn(group[0], "n2")
	for _, id := range append(group, x) {
		if at, ok := s.Home(id); !ok || at != "n1" {
			t.Errorf("Home(%s) = %q, %v after a stale Learn; want n1", id, at, ok)
		}
		if hint := s.Hint(id); hint != "n1" {
			t.Errorf("Hint(%s) = %q after a stale Learn; want n1", id, hint)
		}
	}
}

// TestClosureGenOrdering: stale reports (older generations) must never
// roll a closure record or a fresher per-object entry backwards, in
// either direction.
func TestClosureGenOrdering(t *testing.T) {
	t.Parallel()
	s := New("n1")
	anchor := core.OID{Origin: "n1", Seq: 1}
	ids := []core.OID{{Origin: "n1", Seq: 1}, {Origin: "n1", Seq: 2}}

	s.HomeUpdateClosure(anchor, 3, ids, "n3")
	s.HomeUpdateClosure(anchor, 2, ids, "n2") // stale: must be ignored
	if hint := s.Hint(ids[0]); hint != "n3" {
		t.Fatalf("stale closure update won: hint = %s", hint)
	}

	// A fresher per-object report detaches the member from the record.
	s.HomeUpdate(ids[:1], []uint64{4}, "n4")
	if hint := s.Hint(ids[0]); hint != "n4" {
		t.Fatalf("fresh per-object update lost: hint = %s", hint)
	}
	if hint := s.Hint(ids[1]); hint != "n3" {
		t.Fatalf("unrelated member moved: hint = %s", hint)
	}
	// ... and a stale per-object report must not detach it.
	s.HomeUpdate(ids[1:], []uint64{1}, "n9")
	if hint := s.Hint(ids[1]); hint != "n3" {
		t.Fatalf("stale per-object update won: hint = %s", hint)
	}
	// A fresher closure update recaptures the individually-updated one.
	s.HomeUpdateClosure(anchor, 5, ids, "n5")
	for _, id := range ids {
		if hint := s.Hint(id); hint != "n5" {
			t.Fatalf("closure recapture failed: hint(%s) = %s", id, hint)
		}
	}
	if ls := s.LocStats(); ls.Home != 0 || ls.ClosureRefs != 2 {
		t.Fatalf("LocStats = %+v, want all members attached", ls)
	}
}

// TestClosureShrinksWithoutDraggingStrays: the same anchor migrating
// again with a smaller member set must not drag the left-behind
// members along. The second report mints a fresh record; strays keep
// referencing the superseded one, whose location stays put. (This is
// the officeflow shape: {folder, report} travels to the editor, then
// {folder, memo} travels on to the archiver — report stays put.)
func TestClosureShrinksWithoutDraggingStrays(t *testing.T) {
	t.Parallel()
	s := New("n1")
	anchor := core.OID{Origin: "n1", Seq: 1}
	folder := core.OID{Origin: "n1", Seq: 1}
	report := core.OID{Origin: "n1", Seq: 2}
	memo := core.OID{Origin: "n1", Seq: 3}

	s.HomeUpdateClosure(anchor, 1, []core.OID{folder, report}, "n2")
	s.HomeUpdateClosure(anchor, 2, []core.OID{folder, memo}, "n3")

	if hint := s.Hint(folder); hint != "n3" {
		t.Fatalf("anchor did not follow its own migration: hint = %s", hint)
	}
	if hint := s.Hint(memo); hint != "n3" {
		t.Fatalf("travelling member lost: hint = %s", hint)
	}
	if hint := s.Hint(report); hint != "n2" {
		t.Fatalf("stray member was dragged along: Hint(report) = %s, want n2", hint)
	}
	if at, ok := s.Home(report); !ok || at != "n2" {
		t.Fatalf("Home(report) = %s, %v, want n2", at, ok)
	}
}

// TestConfirmDepartedRetiresState: once the origin acknowledged a home
// update, the old host drops the forwarding pointer, the member
// reference and the Gone stub.
func TestConfirmDepartedRetiresState(t *testing.T) {
	t.Parallel()
	s := New("n2") // foreign host for n1-origin objects
	id := core.OID{Origin: "n1", Seq: 7}
	rec := NewRecord(id, "t", &testState{})
	if err := s.Add(rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Pause(t.Context(), 1); err != nil {
		t.Fatal(err)
	}
	rec.Depart(1, "n3", func() { s.Departed(id, "n3", 1) })
	if _, ok := s.Get(id); !ok {
		t.Fatal("stub should persist until confirmed")
	}
	if _, ok := s.Forward(id); !ok {
		t.Fatal("forward should exist before confirm")
	}
	s.ConfirmDeparted([]core.OID{id}, "n3")
	if _, ok := s.Get(id); ok {
		t.Fatal("stub survived confirmation")
	}
	if _, ok := s.Forward(id); ok {
		t.Fatal("forward survived confirmation")
	}
	if ls := s.LocStats(); ls.Retired != 1 {
		t.Fatalf("Retired = %d, want 1", ls.Retired)
	}
	// Chasers still resolve: the origin fallback remains.
	if hint := s.Hint(id); hint != "n1" {
		t.Fatalf("hint after retirement = %s, want origin", hint)
	}
}

// TestCompactForwardsTTL: unconfirmed forwards (and their stubs) age
// out under the TTL; fresh ones survive.
func TestCompactForwardsTTL(t *testing.T) {
	t.Parallel()
	s := New("n2")
	old := core.OID{Origin: "n1", Seq: 1}
	fresh := core.OID{Origin: "n1", Seq: 2}
	for _, id := range []core.OID{old, fresh} {
		rec := NewRecord(id, "t", &testState{})
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
		if err := rec.Pause(t.Context(), 1); err != nil {
			t.Fatal(err)
		}
		rec.Depart(1, "n3", func() { s.Departed(id, "n3", 1) })
	}
	// Age the first entry artificially.
	sh := s.shardOf(old)
	sh.locMu.Lock()
	f := sh.forwards[old]
	f.stamp = time.Now().Add(-time.Hour)
	sh.forwards[old] = f
	sh.locMu.Unlock()

	s.SetForwardTTL(time.Minute)
	if removed := s.CompactForwards(); removed != 1 {
		t.Fatalf("CompactForwards removed %d, want 1", removed)
	}
	if _, ok := s.Forward(old); ok {
		t.Fatal("expired forward survived")
	}
	if _, ok := s.Get(old); ok {
		t.Fatal("expired stub survived")
	}
	if to, ok := s.Forward(fresh); !ok || to != "n3" {
		t.Fatal("fresh forward was reaped")
	}
	// Disabled TTL compacts nothing.
	s.SetForwardTTL(-1)
	if removed := s.CompactForwards(); removed != 0 {
		t.Fatalf("disabled TTL still removed %d", removed)
	}
}

// TestHintCacheCap: the foreign-hint cache must stay bounded no matter
// how many distinct foreign objects are learned.
func TestHintCacheCap(t *testing.T) {
	t.Parallel()
	s := New("n1")
	const cap = 256
	s.SetHintCacheCap(cap)
	for i := 0; i < cap*20; i++ {
		id := core.OID{Origin: "n9", Seq: uint64(i + 1)}
		s.Learn(id, core.NodeID(fmt.Sprintf("n%d", i%7+2)))
	}
	if ls := s.LocStats(); ls.Cache > cap {
		t.Fatalf("cache grew to %d entries, cap is %d", ls.Cache, cap)
	}
	// Re-learning an already-cached object must not evict.
	s.SetHintCacheCap(ShardCount) // one entry per shard
	id := core.OID{Origin: "n9", Seq: 1 << 40}
	s.Learn(id, "n2")
	s.Learn(id, "n3")
	if hint := s.Hint(id); hint != "n3" {
		t.Fatalf("re-learn lost the entry: hint = %s", hint)
	}
}

// TestDepartedClosureCoalesces: an old host collapsing a group
// departure holds one closure record instead of N forwards, members of
// any origin included, and retires it wholesale on confirmation.
func TestDepartedClosureCoalesces(t *testing.T) {
	t.Parallel()
	s := New("n2")
	anchor := core.OID{Origin: "n1", Seq: 1}
	ids := []core.OID{
		{Origin: "n1", Seq: 1},
		{Origin: "n1", Seq: 2},
		{Origin: "n3", Seq: 9}, // foreign member coalesces too
	}
	for _, id := range ids {
		s.Departed(id, "n4", 1) // per-object forwards first (commit order)
	}
	s.DepartedClosure(anchor, 1, ids, "n4")
	ls := s.LocStats()
	if ls.Forwards != 0 || ls.Closures != 1 || ls.ClosureRefs != len(ids) {
		t.Fatalf("LocStats = %+v, want coalesced closure", ls)
	}
	for _, id := range ids {
		if to, ok := s.Forward(id); !ok || to != "n4" {
			t.Fatalf("Forward(%s) = %s, %v", id, to, ok)
		}
	}
	s.ConfirmDeparted(ids, "n4")
	ls = s.LocStats()
	if ls.ClosureRefs != 0 {
		t.Fatalf("refs survived confirmation: %+v", ls)
	}
	s.CompactForwards() // reaps the zero-ref record (needs a TTL)
	if ls = s.LocStats(); ls.Closures != 0 {
		t.Fatalf("zero-ref closure not reaped: %+v", ls)
	}
}

// The cases below pin the per-object location semantics — home index,
// forwarding pointers, hint cache — the way the paper's system model
// assumes them ([ChC91], [JLH+88]): a name-service lookup at the
// object's origin plus forward addressing at former hosts. Departures
// report generation zero, which yields plain last-writer-wins.

func TestLocCreatedAndHint(t *testing.T) {
	t.Parallel()
	s := New("n1")
	id := oid("n1", 1)
	s.Created(id)
	if at, ok := s.Home(id); !ok || at != "n1" {
		t.Fatalf("home = %v, %v", at, ok)
	}
	if got := s.Hint(id); got != "n1" {
		t.Fatalf("hint = %v, want n1", got)
	}
}

func TestLocDepartureInstallsForwardAndUpdatesHome(t *testing.T) {
	t.Parallel()
	s := New("n1")
	id := oid("n1", 1)
	s.Created(id)
	s.Departed(id, "n2", 0)
	if to, ok := s.Forward(id); !ok || to != "n2" {
		t.Fatalf("forward = %v, %v", to, ok)
	}
	if at, _ := s.Home(id); at != "n2" {
		t.Fatalf("home after departure = %v", at)
	}
	if got := s.Hint(id); got != "n2" {
		t.Fatalf("hint = %v", got)
	}
}

func TestLocDebug(t *testing.T) {
	t.Parallel()
	s := New("n1")
	id := oid("n1", 4)
	s.Created(id)
	s.Departed(id, "n2", 0)
	out := s.Debug(id)
	for _, want := range []string{"self=n1", `home="n2"(true)`, `fwd="n2"(true)`, `cache=""(false)`} {
		if !strings.Contains(out, want) {
			t.Fatalf("Debug = %q missing %q", out, want)
		}
	}
}

func TestLocArrivalClearsForward(t *testing.T) {
	t.Parallel()
	s := New("n1")
	id := oid("n1", 1)
	s.Created(id)
	s.Departed(id, "n2", 0)
	s.Arrived(id) // came back
	if _, ok := s.Forward(id); ok {
		t.Fatal("forward survived arrival")
	}
	if at, _ := s.Home(id); at != "n1" {
		t.Fatalf("home = %v, want n1", at)
	}
}

func TestLocForeignObjectLifecycle(t *testing.T) {
	t.Parallel()
	s := New("n2")
	id := oid("n1", 7)
	// Unknown foreign object: hint falls back to its origin.
	if got := s.Hint(id); got != "n1" {
		t.Fatalf("hint = %v, want origin n1", got)
	}
	s.Learn(id, "n5")
	if got := s.Hint(id); got != "n5" {
		t.Fatalf("hint = %v, want cached n5", got)
	}
	s.InvalidateAt(id, "n5")
	if got := s.Hint(id); got != "n1" {
		t.Fatalf("hint after invalidate = %v, want n1", got)
	}
	// Hosting the foreign object, then sending it on.
	s.Arrived(id)
	s.Departed(id, "n9", 0)
	if got := s.Hint(id); got != "n9" {
		t.Fatalf("hint = %v, want forward n9", got)
	}
	if at, ok := s.Home(id); ok {
		t.Fatalf("foreign object entered home index: %v", at)
	}
}

func TestLocLearnIgnoresSelfAndEmpty(t *testing.T) {
	t.Parallel()
	s := New("n2")
	id := oid("n1", 7)
	s.Learn(id, "")
	s.Learn(id, "n2")
	if got := s.Hint(id); got != "n1" {
		t.Fatalf("hint = %v, want origin", got)
	}
}

func TestLocForwardBeatsCache(t *testing.T) {
	t.Parallel()
	s := New("n2")
	id := oid("n1", 3)
	s.Learn(id, "n5")
	s.Arrived(id)
	s.Departed(id, "n6", 0)
	if got := s.Hint(id); got != "n6" {
		t.Fatalf("hint = %v, want forward n6 over stale cache", got)
	}
}

func TestLocHomeUpdate(t *testing.T) {
	t.Parallel()
	s := New("n1")
	mine := oid("n1", 1)
	foreign := oid("nX", 2)
	s.Created(mine)
	s.HomeUpdate([]core.OID{mine, foreign}, nil, "n4")
	if at, _ := s.Home(mine); at != "n4" {
		t.Fatalf("home = %v, want n4", at)
	}
	if _, ok := s.Home(foreign); ok {
		t.Fatal("foreign object accepted into home index")
	}
	if got := s.Hint(mine); got != "n4" {
		t.Fatalf("hint = %v, want n4", got)
	}
}

func TestLocStats(t *testing.T) {
	t.Parallel()
	s := New("n1")
	s.Created(oid("n1", 1))
	s.Learn(oid("n9", 1), "n3")
	s.Arrived(oid("n9", 2))
	s.Departed(oid("n9", 2), "n4", 0)
	if ls := s.LocStats(); ls.Home != 1 || ls.Forwards != 1 || ls.Cache != 1 {
		t.Fatalf("stats = %+v", ls)
	}
}

func TestLocConcurrentAccess(t *testing.T) {
	t.Parallel()
	s := New("n1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := oid("n1", uint64(i%10))
				switch g % 4 {
				case 0:
					s.Created(id)
				case 1:
					s.Departed(id, "n2", 0)
				case 2:
					s.Hint(id)
				case 3:
					s.Arrived(id)
				}
			}
		}(g)
	}
	wg.Wait()
}
