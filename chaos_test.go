package objmig

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/wire"
)

// TestMigrateToClosedNodeAborts: migrating towards a dead node must
// fail cleanly and leave the object fully usable where it was.
func TestMigrateToClosedNodeAborts(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	ref := mustCreate(t, nodes[0])
	if _, err := Call[int, int](ctx, nodes[0], ref, "Add", 5); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Migrate(ctx, ref, "n1"); err == nil {
		t.Fatal("migration to a closed node succeeded")
	}
	// The pause was rolled back: the object answers immediately.
	if v, err := Call[struct{}, int](ctx, nodes[2], ref, "Get", struct{}{}); err != nil || v != 5 {
		t.Fatalf("object unusable after aborted migration: %d, %v", v, err)
	}
	if at := whereIs(t, ctx, nodes[0], ref); at != "n0" {
		t.Fatalf("object at %v, want n0", at)
	}
	// And it can still migrate to a live node.
	if err := nodes[0].Migrate(ctx, ref, "n2"); err != nil {
		t.Fatal(err)
	}
}

// TestInvokeOnClosedHostFails: calls to an object whose host died fail
// with an error instead of hanging.
func TestInvokeOnClosedHostFails(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nodes := testCluster(t, 2, Config{})
	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err == nil {
		t.Fatal("call to a dead host succeeded")
	}
}

// TestClosedNodeRejectsInbound: a closed node answers inbound requests
// with ErrClosed instead of processing them.
func TestClosedNodeRejectsInbound(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a, err := NewNode(Config{ID: "a", Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterType(newCounterType()); err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{ID: "b", Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ref, err := a.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	// Mark a closed but keep its listener half-open long enough for a
	// request to arrive: Close tears the server down, so the call
	// surfaces as a transport failure or ErrClosed — never success.
	_ = a.Close()
	if _, err := Call[int, int](ctx, b, ref, "Add", 1); err == nil {
		t.Fatal("closed node served a request")
	}
}

// TestChaos drives a four-node cluster with concurrent invocations,
// migrations, move-blocks, attachments and fixes, then checks global
// invariants: no lost or duplicated updates, agreeing location views,
// and collocated working sets after a final settling migration.
func TestChaos(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos test is slow")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	nodes := testCluster(t, 4, Config{Policy: PolicyPlacement, Attach: AttachATransitive})

	const (
		objects = 6
		workers = 8
		ops     = 150 // per worker
	)
	refs := make([]Ref, objects)
	var expected [objects]atomic.Int64
	for i := range refs {
		refs[i] = mustCreate(t, nodes[i%len(nodes)])
	}
	al := nodes[0].NewAlliance()

	allowed := func(err error) bool {
		return err == nil ||
			errors.Is(err, ErrDenied) ||
			errors.Is(err, ErrFixed) ||
			errors.Is(err, ErrExclusive) ||
			errors.Is(err, ErrUnreachable)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 99))
			n := nodes[w%len(nodes)]
			for i := 0; i < ops; i++ {
				if ctx.Err() != nil {
					return
				}
				obj := r.Intn(objects)
				ref := refs[obj]
				switch r.Intn(10) {
				case 0, 1, 2, 3: // invoke
					if _, err := Call[int, int](ctx, n, ref, "Add", 1); err != nil {
						if errors.Is(err, ErrUnreachable) {
							continue // not executed; don't count
						}
						errs <- fmt.Errorf("worker %d add: %w", w, err)
						return
					}
					expected[obj].Add(1)
				case 4, 5: // migrate
					tgt := nodes[r.Intn(len(nodes))].ID()
					if err := n.Migrate(ctx, ref, tgt); !allowed(err) {
						errs <- fmt.Errorf("worker %d migrate: %w", w, err)
						return
					}
				case 6, 7: // move-block with calls inside
					err := n.MoveIn(ctx, al, ref, func(ctx context.Context, b *Block) error {
						for j := 0; j < 3; j++ {
							if _, err := Call[int, int](ctx, n, ref, "Add", 1); err != nil {
								if errors.Is(err, ErrUnreachable) {
									continue
								}
								return err
							}
							expected[obj].Add(1)
						}
						return nil
					})
					if !allowed(err) {
						errs <- fmt.Errorf("worker %d move: %w", w, err)
						return
					}
				case 8: // fix/unfix pulse
					if err := n.Fix(ctx, ref); !allowed(err) {
						errs <- fmt.Errorf("worker %d fix: %w", w, err)
						return
					}
					if err := n.Unfix(ctx, ref); !allowed(err) {
						errs <- fmt.Errorf("worker %d unfix: %w", w, err)
						return
					}
				case 9: // attach/detach pulse between two objects
					other := refs[(obj+1)%objects]
					if err := n.Attach(ctx, ref, other, al); !allowed(err) {
						errs <- fmt.Errorf("worker %d attach: %w", w, err)
						return
					}
					if err := n.Detach(ctx, ref, other, al); !allowed(err) {
						errs <- fmt.Errorf("worker %d detach: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("chaos run timed out")
	}

	// Invariant 1: no update was lost or duplicated.
	for i, ref := range refs {
		v, err := Call[struct{}, int](ctx, nodes[0], ref, "Get", struct{}{})
		if err != nil {
			t.Fatalf("final get %d: %v", i, err)
		}
		if int64(v) != expected[i].Load() {
			t.Fatalf("object %d: value %d, expected %d", i, v, expected[i].Load())
		}
	}
	// Invariant 2: every node agrees on every object's location.
	for i, ref := range refs {
		var first NodeID
		for j, n := range nodes {
			at, err := n.Locate(ctx, ref)
			if err != nil {
				t.Fatalf("locate %d from n%d: %v", i, j, err)
			}
			if j == 0 {
				first = at
			} else if at != first {
				t.Fatalf("object %d: n0 says %v, n%d says %v", i, first, j, at)
			}
		}
	}
	// Invariant 3: after a settling migration, every residual working
	// set is collocated.
	for _, ref := range refs {
		if err := nodes[0].MigrateIn(ctx, al, ref, "n0"); !allowed(err) {
			t.Fatalf("settle: %v", err)
		}
	}
	for i, ref := range refs {
		ws, err := nodes[0].WorkingSet(ctx, ref, al)
		if err != nil {
			t.Fatalf("working set %d: %v", i, err)
		}
		var at NodeID
		for k, m := range ws {
			loc, err := nodes[0].Locate(ctx, m)
			if err != nil {
				t.Fatalf("locate member: %v", err)
			}
			if k == 0 {
				at = loc
			} else if loc != at {
				t.Fatalf("object %d working set split: %v vs %v", i, at, loc)
			}
		}
	}
}

// TestChaosCoordinatorCrashReleasesReservation: a coordinator that
// claims admission headroom with its opening frame and then dies before
// streaming a single snapshot must not leak its claim. The target's
// migration's record expires, discarding the orphaned session and
// releasing the reservation with it, so the headroom returns to its pre-claim level
// and later migrations admit again.
func TestChaosCoordinatorCrashReleasesReservation(t *testing.T) {
	t.Parallel()
	cl := NewLocalCluster()
	src, err := NewNode(Config{ID: "src", Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Close() })
	if err := src.RegisterType(newCounterType()); err != nil {
		t.Fatal(err)
	}
	tgt, err := NewNode(Config{
		ID: "tgt", Cluster: cl, Capacity: 4,
		Migrate: MigrateConfig{Lease: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tgt.Close() })
	if err := tgt.EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}

	oids := make([]core.OID, 5)
	for i := range oids {
		oids[i] = mustCreate(t, src).OID
	}

	// The "coordinator" opens a session claiming 2 objects / 100 bytes
	// of headroom and then crashes: no chunk, no commit, no abort ever
	// arrives.
	if _, err := tgt.handleInstall(&wire.InstallReq{
		Token: 77, From: src.ID(), Members: oids[:2], Bytes: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if res := tgt.resv.Reserved(); res.Objects != 2 || res.Bytes != 100 {
		t.Fatalf("reserved = %+v, want 2 objects / 100 bytes", res)
	}
	// While the claim is live it defends the capacity: a 3-object group
	// would make 5 of 4 and is vetoed.
	if _, err := tgt.handleInstall(&wire.InstallReq{
		Token: 78, From: src.ID(), Members: oids[2:],
	}); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("pre-expiry admission: %v, want capacity refusal", err)
	}

	// The record's expiry discards the orphaned session and its claim.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if res := tgt.resv.Reserved(); res.Objects == 0 && res.Bytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservation still held after the lease: %+v", tgt.resv.Reserved())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if exp := tgt.Stats().StreamSessionsExpired; exp < 1 {
		t.Fatalf("StreamSessionsExpired = %d, want >= 1", exp)
	}
	// Headroom is back: the 3-object group that was vetoed now admits.
	if _, err := tgt.handleInstall(&wire.InstallReq{
		Token: 79, From: src.ID(), Members: oids[2:],
	}); err != nil {
		t.Fatalf("post-expiry admission: %v", err)
	}
	if res := tgt.resv.Reserved(); res.Objects != 3 {
		t.Fatalf("post-expiry admission reserved %+v, want 3 objects", res)
	}
}
