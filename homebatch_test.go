package objmig

import (
	"context"
	"testing"
	"time"

	"objmig/internal/transport"
	"objmig/internal/wire"
)

// TestCloseFlushesHomeUpdates: an advisory still waiting in its batch
// window leaves when the node closes — the origin knows the new home by
// the time Close returns — and the batch's timer, firing after Close,
// finds nothing left to send.
func TestCloseFlushesHomeUpdates(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	b := nodes[1].homeBatch
	b.mu.Lock()
	b.maxDelay = time.Hour
	b.mu.Unlock()

	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	// n1 → n2: the origin n0 is neither coordinator nor target, so the
	// advisory waits in n1's batch.
	if err := nodes[1].Migrate(ctx, ref, "n2"); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	key := homeKey{origin: "n0", at: "n2"}
	late := b.pend[key]
	b.mu.Unlock()
	if late == nil {
		t.Fatal("no batch pending at n1 for (n0, n2)")
	}
	if at, _ := nodes[0].store.Home(ref.OID); at != "n1" {
		t.Fatalf("origin home = %v before the window closed, want n1", at)
	}

	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	if at, ok := nodes[0].store.Home(ref.OID); !ok || at != "n2" {
		t.Fatalf("origin home after Close = %v, %v; want n2", at, ok)
	}
	sent := nodes[1].Stats().HomeUpdateBatches
	b.flush(key, late) // what the batch's timer runs when it fires
	if got := nodes[1].Stats().HomeUpdateBatches; got != sent {
		t.Fatalf("a timer firing after Close sent %d batches", got-sent)
	}
}

// TestFailedSendsAreRetried: a home update and a commit whose first
// frame is lost are re-sent in the background, so the origin still
// learns the new home and the old host still departs its members. The
// re-send waits on a timer, not on a goroutine: Close does not sit out
// the spacing.
func TestFailedSendsAreRetried(t *testing.T) {
	t.Parallel()

	// dropFirst starts three nodes whose first kind frame to addr is
	// dropped once arm is called; dropped closes when it was.
	dropFirst := func(t *testing.T, kind wire.Kind, addr string) (nodes []*Node, arm func(), dropped chan struct{}) {
		net := transport.NewNetwork()
		tap := &sendTap{Transport: net.Transport(), kind: kind, to: addr}
		dropped = make(chan struct{})
		nodes = testClusterOn(t, &Cluster{tr: tap, mem: net}, 3, Config{})
		return nodes, func() { tap.armFail(func() { close(dropped) }) }, dropped
	}
	requireDropped := func(t *testing.T, dropped chan struct{}) {
		t.Helper()
		select {
		case <-dropped:
		case <-time.After(5 * time.Second):
			t.Fatal("the tapped frame was never sent")
		}
	}
	// commitFails migrates a root at n0 with an attached member at n1
	// to n2, the commit to n1 dropped; the install at n2 stands.
	commitFails := func(t *testing.T, ctx context.Context) (nodes []*Node, far Ref) {
		nodes, arm, dropped := dropFirst(t, wire.KCommit, "n1")
		root := mustCreate(t, nodes[0])
		far = mustCreate(t, nodes[1])
		if err := nodes[0].Attach(ctx, root, far, NoAlliance); err != nil {
			t.Fatal(err)
		}
		arm()
		if err := nodes[0].Migrate(ctx, root, "n2"); err == nil {
			t.Fatal("migration reported success with its commit at n1 dropped")
		}
		requireDropped(t, dropped)
		return nodes, far
	}

	t.Run("home update", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes, arm, dropped := dropFirst(t, wire.KHomeUpdate, "n0")
		ref := mustCreate(t, nodes[0])
		if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
			t.Fatal(err)
		}
		arm()
		if err := nodes[1].Migrate(ctx, ref, "n2"); err != nil {
			t.Fatal(err)
		}
		requireDropped(t, dropped)
		eventually(t, 3*time.Second, func() bool {
			at, ok := nodes[0].store.Home(ref.OID)
			return ok && at == "n2"
		}, "the origin never learned n2")
	})

	t.Run("commit", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes, far := commitFails(t, ctx)
		eventually(t, 3*time.Second, func() bool {
			_, hosted := nodes[1].hostedRecord(far.OID)
			return !hosted
		}, "n1 still hosts the member its dropped commit departed")
		if at := whereIs(t, ctx, nodes[0], far); at != "n2" {
			t.Fatalf("member at %v, want n2", at)
		}
	})

	t.Run("close with a commit retry pending", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes, _ := commitFails(t, ctx)
		// Give the retry time to be waiting out its spacing: a retry
		// that waited in a goroutine would hold Close up until it woke.
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		if err := nodes[0].Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Fatalf("Close took %v with a commit retry pending; the retry spacing is 500ms", d)
		}
	})
}
