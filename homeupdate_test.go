package objmig

import (
	"context"
	"testing"
	"time"

	"objmig/internal/transport"
	"objmig/internal/wire"
)

// TestCloseFlushesHomeUpdates: an advisory still on its way when the
// node closes holds Close up until it has left — the origin knows the
// new home by the time Close returns.
func TestCloseFlushesHomeUpdates(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	net := transport.NewNetwork()
	tap := &sendTap{Transport: net.Transport(), kind: wire.KHomeUpdate, to: "n0"}
	nodes := testClusterOn(t, &Cluster{tr: tap, mem: net}, 3, Config{})

	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	// n1 → n2: the origin n0 is neither coordinator nor target, so n1
	// sends it the advisory, which the tap holds in flight.
	held, release := make(chan struct{}), make(chan struct{})
	tap.arm(func() { close(held); <-release })
	if err := nodes[1].Migrate(ctx, ref, "n2"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the advisory to the origin was never sent")
	}
	closed := make(chan error, 1)
	go func() { closed <- nodes[1].Close() }()
	select {
	case err := <-closed:
		close(release)
		t.Fatalf("Close returned (%v) with an advisory in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if at, ok := nodes[0].store.Home(ref.OID); !ok || at != "n2" {
		t.Fatalf("origin home after Close = %v, %v; want n2", at, ok)
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

// TestGroupGenerationOutranksClosureReport: a closure report carries
// the group's highest departure generation for every member, so a
// member that travelled with an older generation must not fall behind
// it. After the group moves and the member then moves alone, the
// origin must accept the member's own report — not keep the closure's
// host, whose stub retires on the ack.
func TestGroupGenerationOutranksClosureReport(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 4, Config{})
	a, b := mustCreate(t, nodes[0]), mustCreate(t, nodes[0])
	// a travels more than b, so a's generation runs ahead.
	for _, hop := range []NodeID{"n1", "n3", "n1"} {
		if err := nodes[0].Migrate(ctx, a, hop); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].Migrate(ctx, b, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Attach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}
	// n1 moves the closure to n2: the origin n0 hears one closure report.
	if err := nodes[1].Migrate(ctx, a, "n2"); err != nil {
		t.Fatal(err)
	}
	eventually(t, 3*time.Second, func() bool {
		at, ok := nodes[0].store.Home(b.OID)
		return ok && at == "n2"
	}, "the origin never learned the closure's new home")
	if err := nodes[2].Detach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Migrate(ctx, b, "n3"); err != nil {
		t.Fatal(err)
	}
	eventually(t, 3*time.Second, func() bool {
		at, ok := nodes[0].store.Home(b.OID)
		return ok && at == "n3"
	}, "the origin kept the closure's host for b")
	if at := whereIs(t, ctx, nodes[0], b); at != "n3" {
		t.Fatalf("b located at %v from its origin, want n3", at)
	}
}
