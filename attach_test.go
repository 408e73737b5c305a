package objmig

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func refIDs(refs []Ref) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return out
}

func TestAttachMigratesTogether(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Attach: AttachUnrestricted})
	a := mustCreate(t, nodes[0])
	b := mustCreate(t, nodes[0])

	if err := nodes[0].Attach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}
	ok, err := nodes[2].Attached(ctx, a, b, NoAlliance)
	if err != nil || !ok {
		t.Fatalf("Attached = %v, %v", ok, err)
	}
	if err := nodes[0].Migrate(ctx, a, "n1"); err != nil {
		t.Fatal(err)
	}
	// Both travelled.
	if at := whereIs(t, ctx, nodes[0], a); at != "n1" {
		t.Fatalf("a at %v", at)
	}
	if at := whereIs(t, ctx, nodes[0], b); at != "n1" {
		t.Fatalf("b at %v, want n1 (attached)", at)
	}
	// Detach; now they part ways.
	if err := nodes[1].Detach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Migrate(ctx, a, "n2"); err != nil {
		t.Fatal(err)
	}
	if at := whereIs(t, ctx, nodes[0], a); at != "n2" {
		t.Fatalf("a at %v", at)
	}
	if at := whereIs(t, ctx, nodes[0], b); at != "n1" {
		t.Fatalf("b at %v, want n1 (detached)", at)
	}
}

func TestAttachTransitiveClosureMoves(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Attach: AttachUnrestricted})
	a := mustCreate(t, nodes[0])
	b := mustCreate(t, nodes[0])
	c := mustCreate(t, nodes[0])
	// Chain a-b-c: attachment is transitive, moving a moves all.
	if err := nodes[0].Attach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Attach(ctx, b, c, NoAlliance); err != nil {
		t.Fatal(err)
	}
	ws, err := nodes[0].WorkingSet(ctx, a, NoAlliance)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("working set = %v, want 3 members", refIDs(ws))
	}
	if err := nodes[0].Migrate(ctx, a, "n1"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Ref{a, b, c} {
		if at := whereIs(t, ctx, nodes[0], r); at != "n1" {
			t.Fatalf("%s at %v, want n1", r, at)
		}
	}
}

func TestATransitiveRestrictsMigration(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Attach: AttachATransitive})
	editor := nodes[0].NewAlliance()
	archiver := nodes[0].NewAlliance()

	s1a := mustCreate(t, nodes[0]) // editor's front object
	s1b := mustCreate(t, nodes[0]) // archiver's front object
	shared := mustCreate(t, nodes[0])
	own := mustCreate(t, nodes[0]) // editor-only member

	if err := nodes[0].Attach(ctx, s1a, shared, editor); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Attach(ctx, s1a, own, editor); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Attach(ctx, s1b, shared, archiver); err != nil {
		t.Fatal(err)
	}

	// The editor's working set is scoped to its alliance.
	ws, err := nodes[0].WorkingSet(ctx, s1a, editor)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{s1a.String(), shared.String(), own.String()}
	got := refIDs(ws)
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	if len(got) != 3 || !wantSet[got[0]] || !wantSet[got[1]] || !wantSet[got[2]] {
		t.Fatalf("editor working set = %v, want %v", got, want)
	}

	// Migrating in the editor alliance takes shared but NOT s1b, even
	// though shared is attached to s1b in the archiver alliance.
	if err := nodes[0].MigrateIn(ctx, editor, s1a, "n1"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Ref{s1a, shared, own} {
		if at := whereIs(t, ctx, nodes[0], r); at != "n1" {
			t.Fatalf("%s at %v, want n1", r, at)
		}
	}
	if at := whereIs(t, ctx, nodes[0], s1b); at != "n0" {
		t.Fatalf("s1b dragged to %v; A-transitivity violated", at)
	}
}

func TestMoveInDragsAllianceWorkingSet(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Policy: PolicyPlacement, Attach: AttachATransitive})
	al := nodes[0].NewAlliance()
	root := mustCreate(t, nodes[0])
	member := mustCreate(t, nodes[0])
	outsider := mustCreate(t, nodes[0])
	if err := nodes[0].Attach(ctx, root, member, al); err != nil {
		t.Fatal(err)
	}
	other := nodes[0].NewAlliance()
	if err := nodes[0].Attach(ctx, root, outsider, other); err != nil {
		t.Fatal(err)
	}

	err := nodes[1].MoveIn(ctx, al, root, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("move not granted")
		}
		if len(b.Moved) != 2 {
			t.Errorf("moved %v, want the 2 alliance members", refIDs(b.Moved))
		}
		if at := whereIs(t, ctx, nodes[1], member); at != "n1" {
			t.Errorf("member at %v", at)
		}
		if at := whereIs(t, ctx, nodes[1], outsider); at != "n0" {
			t.Errorf("outsider dragged to %v", at)
		}
		// The whole placed working set is locked: moving the MEMBER
		// from another node is denied while the block runs.
		return nodes[2].MoveIn(ctx, al, member, func(ctx context.Context, b2 *Block) error {
			if b2.Granted {
				t.Error("working-set member was stolen despite the group lock")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the end-request the group locks are released.
	err = nodes[2].MoveIn(ctx, al, member, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("move after end not granted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveAttachment(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Attach: AttachExclusive})
	a := mustCreate(t, nodes[0])
	b := mustCreate(t, nodes[0])
	c := mustCreate(t, nodes[0])

	if err := nodes[0].Attach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Attach(ctx, a, c, NoAlliance); !errors.Is(err, ErrExclusive) {
		t.Fatalf("second partner for a: %v, want ErrExclusive", err)
	}
	if err := nodes[1].Attach(ctx, c, b, NoAlliance); !errors.Is(err, ErrExclusive) {
		t.Fatalf("second partner for b: %v, want ErrExclusive", err)
	}
	// The failed attach must not leave a half-edge behind: c is free.
	d := mustCreate(t, nodes[0])
	if err := nodes[0].Attach(ctx, c, d, NoAlliance); err != nil {
		t.Fatalf("c should still be free: %v", err)
	}
}

func TestSelfAttachRejected(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 1, Config{})
	a := mustCreate(t, nodes[0])
	if err := nodes[0].Attach(ctx, a, a, NoAlliance); err == nil {
		t.Fatal("self-attach accepted")
	}
}

func TestEdgesSurviveMigration(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Attach: AttachUnrestricted})
	a := mustCreate(t, nodes[0])
	b := mustCreate(t, nodes[0])
	if err := nodes[0].Attach(ctx, a, b, 7); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Migrate(ctx, a, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Migrate(ctx, a, "n2"); err != nil {
		t.Fatal(err)
	}
	ok, err := nodes[0].Attached(ctx, a, b, 7)
	if err != nil || !ok {
		t.Fatalf("edge lost in migration: %v, %v", ok, err)
	}
	ws, err := nodes[2].WorkingSet(ctx, b, NoAlliance)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("working set after migrations = %v", refIDs(ws))
	}
}

func TestCollocateNow(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	a := mustCreate(t, nodes[0])
	b, err := nodes[1].Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Attach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].CollocateNow(ctx, a, b); err != nil {
		t.Fatal(err)
	}
	if at := whereIs(t, ctx, nodes[0], b); at != "n0" {
		t.Fatalf("b at %v, want n0", at)
	}
}

func TestWorkingSetDeterministic(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 1, Config{Attach: AttachUnrestricted})
	refs := make([]Ref, 5)
	for i := range refs {
		refs[i] = mustCreate(t, nodes[0])
	}
	for i := 1; i < len(refs); i++ {
		if err := nodes[0].Attach(ctx, refs[0], refs[i], NoAlliance); err != nil {
			t.Fatal(err)
		}
	}
	a, err := nodes[0].WorkingSet(ctx, refs[0], NoAlliance)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nodes[0].WorkingSet(ctx, refs[2], NoAlliance)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("working set differs by root: %v vs %v", refIDs(a), refIDs(b))
	}
}

// TestWorkingSetWaitsOutPause: the closure walk parks on a member that
// another migration holds paused, from the member's host and from a
// node that asks over the wire, and returns at the Unpause; a cancelled
// context ends the wait with the context's error.
func TestWorkingSetWaitsOutPause(t *testing.T) {
	t.Parallel()
	const hold = 100 * time.Millisecond
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	group := attachedGroup(t, nodes[0], 2)
	for _, n := range nodes {
		unpaused := pauseFor(t, nodes[0], group[1], hold)
		set, err := n.WorkingSet(ctx, group[0], NoAlliance)
		select {
		case at := <-unpaused:
			if late := time.Since(at); late >= 50*time.Millisecond {
				t.Errorf("from %s: the walk returned %v after the Unpause", n.ID(), late)
			}
		default:
			t.Fatalf("from %s: the walk returned %v, %v while the member was paused", n.ID(), set, err)
		}
		if err != nil || len(set) != len(group) {
			t.Fatalf("from %s: WorkingSet = %v, %v; want both members", n.ID(), set, err)
		}

		pauseFor(t, nodes[0], group[1], time.Hour)
		cctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(20*time.Millisecond, cancel)
		if set, err := n.WorkingSet(cctx, group[0], NoAlliance); !errors.Is(err, context.Canceled) {
			t.Fatalf("from %s: cancelled walk = %v, %v; want context.Canceled", n.ID(), set, err)
		}
		rec, _ := nodes[0].store.Get(group[1].OID)
		rec.Unpause(foreignPause)
	}
}
