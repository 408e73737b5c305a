package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"objmig/internal/core"
)

// TestLearnLeavesOriginToReports: the origin's home index takes only
// generation-ordered reports. A stale reply learnt after a fresher
// HomeUpdate — of one object or of a group — leaves Home and Hint at
// the reported host, whose forward chain leads to the object; the
// hearsay host may have retired its forward already.
func TestLearnLeavesOriginToReports(t *testing.T) {
	t.Parallel()
	s := New("n0")
	x := oid("n0", 1)
	s.HomeUpdate([]core.OID{x}, []uint64{12}, "n1")
	s.Learn(x, "n2", 0)
	group := []core.OID{oid("n0", 2), oid("n0", 3)}
	s.HomeUpdate(group, []uint64{7, 5}, "n1")
	s.Learn(group[0], "n2", 0)
	for _, id := range append(group, x) {
		if at, ok := s.Home(id); !ok || at != "n1" {
			t.Errorf("Home(%s) = %q, %v after a stale Learn; want n1", id, at, ok)
		}
		if hint := s.Hint(id); hint != "n1" {
			t.Errorf("Hint(%s) = %q after a stale Learn; want n1", id, hint)
		}
	}
}

// TestLearnOrderedByGeneration: hearsay rewrites a forwarding pointer
// only when it reports a strictly newer departure. An older or equal
// generation leaves the forward's target and generation as they were,
// so a stale answer can never point a forward backwards — at a node
// that redirects here, which is how two nodes come to redirect to each
// other — and a newer one shortens the chain.
func TestLearnOrderedByGeneration(t *testing.T) {
	t.Parallel()
	s := New("n1")
	id := oid("n0", 1)
	s.Departed(id, "n2", 4) // n1 sent the object on at generation 4
	for _, gen := range []uint64{0, 3, 4} {
		s.Learn(id, "n0", gen) // "it went back to its origin"
		if to, g, ok := s.Whereabouts(id); !ok || to != "n2" || g != 4 {
			t.Fatalf("after a Learn at generation %d the forward is %s@%d (%v), want n2@4", gen, to, g, ok)
		}
	}
	s.Learn(id, "n3", 5)
	if to, g, ok := s.Whereabouts(id); !ok || to != "n3" || g != 5 {
		t.Fatalf("after a newer Learn the forward is %s@%d (%v), want n3@5", to, g, ok)
	}
	if hint := s.Hint(id); hint != "n3" {
		t.Fatalf("hint = %s, want the shortened chain's n3", hint)
	}
}

// TestClosureGenOrdering: a closure that migrated as a unit is
// reported member by member, each at its own departure generation.
// Stale reports (older generations) never roll an entry backwards,
// whether they came for the whole group or for one member.
func TestClosureGenOrdering(t *testing.T) {
	t.Parallel()
	s := New("n1")
	ids := []core.OID{{Origin: "n1", Seq: 1}, {Origin: "n1", Seq: 2}}

	s.HomeUpdate(ids, []uint64{3, 3}, "n3")
	s.HomeUpdate(ids, []uint64{2, 2}, "n2") // stale: must be ignored
	if hint := s.Hint(ids[0]); hint != "n3" {
		t.Fatalf("stale group update won: hint = %s", hint)
	}

	// A fresher report for one member moves that member alone.
	s.HomeUpdate(ids[:1], []uint64{4}, "n4")
	if hint := s.Hint(ids[0]); hint != "n4" {
		t.Fatalf("fresh per-object update lost: hint = %s", hint)
	}
	if hint := s.Hint(ids[1]); hint != "n3" {
		t.Fatalf("unrelated member moved: hint = %s", hint)
	}
	// ... and a stale per-object report must not move the other.
	s.HomeUpdate(ids[1:], []uint64{1}, "n9")
	if hint := s.Hint(ids[1]); hint != "n3" {
		t.Fatalf("stale per-object update won: hint = %s", hint)
	}
	// A group report carries each member's own generation: the member
	// that travelled alone (4) and the one that did not (3) both
	// follow the group's next trip.
	s.HomeUpdate(ids, []uint64{5, 4}, "n5")
	for _, id := range ids {
		if hint := s.Hint(id); hint != "n5" {
			t.Fatalf("group update lost: hint(%s) = %s", id, hint)
		}
	}
	if ls := s.LocStats(); ls.Home != len(ids) {
		t.Fatalf("LocStats = %+v, want one home entry per member", ls)
	}
}

// TestClosureShrinksWithoutDraggingStrays: the same anchor migrating
// again with a smaller member set must not drag the left-behind
// members along: each report names only the members that travelled.
// (This is the officeflow shape: {folder, report} travels to the
// editor, then {folder, memo} travels on to the archiver — report
// stays put.)
func TestClosureShrinksWithoutDraggingStrays(t *testing.T) {
	t.Parallel()
	s := New("n1")
	folder := core.OID{Origin: "n1", Seq: 1}
	report := core.OID{Origin: "n1", Seq: 2}
	memo := core.OID{Origin: "n1", Seq: 3}

	s.HomeUpdate([]core.OID{folder, report}, []uint64{1, 1}, "n2")
	s.HomeUpdate([]core.OID{folder, memo}, []uint64{2, 1}, "n3")

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
// update, the old host drops the forwarding pointer — its one entry for
// the departure, since the record left the table at commit.
func TestConfirmDepartedRetiresState(t *testing.T) {
	t.Parallel()
	s := New("n2") // foreign host for n1-origin objects
	id := core.OID{Origin: "n1", Seq: 7}
	if err := s.Add(NewRecord(id, "t", &testState{})); err != nil {
		t.Fatal(err)
	}
	depart(t, s, id, 1, "n3")
	if _, ok := s.Get(id); ok {
		t.Fatal("the departed record stayed in the table")
	}
	if _, ok := s.Forward(id); !ok {
		t.Fatal("forward should exist before confirm")
	}
	s.ConfirmDeparted([]core.OID{id}, []uint64{1}, "n3")
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

// TestConfirmDepartedMatchesGeneration: the acknowledgement of a report
// retires only the departure it reported. An object leaves for n3 at
// generation 1, comes back, and leaves for n3 again at generation 3;
// the late ack of the generation-1 report must leave the newer forward
// standing (the origin may not know of that departure yet), and the
// generation-3 ack retires it.
func TestConfirmDepartedMatchesGeneration(t *testing.T) {
	t.Parallel()
	s := New("n2")
	id := core.OID{Origin: "n1", Seq: 9}
	for _, gen := range []uint64{1, 3} {
		if err := s.InstallBatch([]*Record{NewRecord(id, "t", &testState{})}, gen); err != nil {
			t.Fatal(err)
		}
		depart(t, s, id, gen, "n3")
	}
	if n := s.ConfirmDeparted([]core.OID{id}, []uint64{1}, "n3"); n != 0 {
		t.Fatalf("the generation-1 ack retired %d forwards", n)
	}
	if to, ok := s.Forward(id); !ok || to != "n3" {
		t.Fatalf("forward after the stale ack = %q, %v; want n3", to, ok)
	}
	if n := s.ConfirmDeparted([]core.OID{id}, []uint64{3}, "n3"); n != 1 {
		t.Fatalf("the generation-3 ack retired %d forwards, want 1", n)
	}
	if _, ok := s.Forward(id); ok {
		t.Fatal("forward survived the ack of its own departure")
	}
}

// TestDepartToOriginLeavesNoForward: a departure towards the object's
// origin keeps no forward — the origin fallback already names it, and no
// home report would ever confirm the forward — and clears an older one.
func TestDepartToOriginLeavesNoForward(t *testing.T) {
	t.Parallel()
	s := New("n2")
	id := core.OID{Origin: "n1", Seq: 4}
	if err := s.InstallBatch([]*Record{NewRecord(id, "t", &testState{})}, 2); err != nil {
		t.Fatal(err)
	}
	s.Departed(id, "n3", 1) // an earlier departure's forward, replayed
	depart(t, s, id, 2, "n1")
	if to, ok := s.Forward(id); ok {
		t.Fatalf("forward = %q after a departure to the origin", to)
	}
	if hint := s.Hint(id); hint != "n1" {
		t.Fatalf("hint = %q, want the origin", hint)
	}
}

// TestCompactForwardsTTL: unconfirmed forwards age out under the TTL;
// fresh ones survive.
func TestCompactForwardsTTL(t *testing.T) {
	t.Parallel()
	s := New("n2")
	old := core.OID{Origin: "n1", Seq: 1}
	fresh := core.OID{Origin: "n1", Seq: 2}
	for _, id := range []core.OID{old, fresh} {
		if err := s.Add(NewRecord(id, "t", &testState{})); err != nil {
			t.Fatal(err)
		}
		depart(t, s, id, 1, "n3")
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
	if to, ok := s.Forward(fresh); !ok || to != "n3" {
		t.Fatal("fresh forward was reaped")
	}
	if ls := s.LocStats(); ls.Retired != 1 {
		t.Fatalf("Retired = %d, want 1", ls.Retired)
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
		s.Learn(id, core.NodeID(fmt.Sprintf("n%d", i%7+2)), 0)
	}
	if ls := s.LocStats(); ls.Cache > cap {
		t.Fatalf("cache grew to %d entries, cap is %d", ls.Cache, cap)
	}
	// Re-learning an already-cached object must not evict.
	s.SetHintCacheCap(ShardCount) // one entry per shard
	id := core.OID{Origin: "n9", Seq: 1 << 40}
	s.Learn(id, "n2", 0)
	s.Learn(id, "n3", 0)
	if hint := s.Hint(id); hint != "n3" {
		t.Fatalf("re-learn lost the entry: hint = %s", hint)
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
	s.Learn(id, "n5", 0)
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
	s.Learn(id, "", 0)
	s.Learn(id, "n2", 0)
	if got := s.Hint(id); got != "n1" {
		t.Fatalf("hint = %v, want origin", got)
	}
}

func TestLocForwardBeatsCache(t *testing.T) {
	t.Parallel()
	s := New("n2")
	id := oid("n1", 3)
	s.Learn(id, "n5", 0)
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
	s.Learn(oid("n9", 1), "n3", 0)
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
