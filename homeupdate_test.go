package objmig

import (
	"context"
	"fmt"
	"sync"
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
			_, hosted := nodes[1].store.Get(far.OID)
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

// TestGroupMemberMovesAloneAfterGroup: members of a group carry their
// own departure generations, which differ when one member travelled
// more than another. After the group moves and the lower-generation
// member then moves alone, the origin must accept that member's own
// report — not keep the group's host, whose forward retires on the ack.
func TestGroupMemberMovesAloneAfterGroup(t *testing.T) {
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
	// n1 moves the closure to n2: the origin n0 hears one report for
	// both members, a at its generation and b at its lower one.
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
	originsNameHosts(t, nodes, []Ref{a, b})
}

// originsNameHosts waits until every object is hosted on exactly one
// node and its origin's home index names that node. A current report
// that the origin dropped while the old host retired its forward on
// the ack shows up here first: the origin keeps naming a host that no
// longer leads to the object.
func originsNameHosts(t *testing.T, nodes []*Node, refs []Ref) {
	t.Helper()
	byID := make(map[NodeID]*Node, len(nodes))
	for _, n := range nodes {
		byID[n.ID()] = n
	}
	mismatch := func() string {
		for _, r := range refs {
			var hosts []NodeID
			for _, n := range nodes {
				if _, ok := n.store.Get(r.OID); ok {
					hosts = append(hosts, n.ID())
				}
			}
			origin := byID[r.OID.Origin].store
			if home, _ := origin.Home(r.OID); len(hosts) != 1 || home != hosts[0] {
				return fmt.Sprintf("%s hosted at %v, its origin says %s", r.OID, hosts, origin.Debug(r.OID))
			}
		}
		return ""
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		m := mismatch()
		if m == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdNext arms tap to hold the next tapped frame in flight until the
// returned release is called; it waits until the frame was caught.
// release is idempotent and also runs when the test ends, so the held
// advisory never blocks the node's Close.
func holdNext(t *testing.T, tap *sendTap, send func()) (release func()) {
	t.Helper()
	held, free := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(free) }) }
	t.Cleanup(release)
	tap.arm(func() { close(held); <-free })
	send()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the tapped frame was never sent")
	}
	return release
}

// TestAckRetiresOnlyItsDeparture: the origin's ack of a report retires
// the reporting host's forward only for the departure it reported.
// Advisories travel on their own goroutines, so a late ack of an older
// report "at n2" can land after the same host sent the object to n2
// again. Were the newer forward retired by it, n1 would hold nothing
// while the origin, not yet told of the newer departure, still names
// n1: every chase through the origin would be sent back to n1.
func TestAckRetiresOnlyItsDeparture(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	net := transport.NewNetwork()
	tap := &sendTap{Transport: net.Transport(), kind: wire.KHomeUpdate, to: "n0"}
	nodes := testClusterOn(t, &Cluster{tr: tap, mem: net}, 4, Config{})
	ref := mustCreate(t, nodes[0])
	migrate := func(from *Node, to NodeID) {
		t.Helper()
		if err := from.Migrate(ctx, ref, to); err != nil {
			t.Fatal(err)
		}
	}
	migrate(nodes[0], "n1") // the origin coordinates: no advisory
	// n1 → n2: n1's report of this departure is held.
	releaseOld := holdNext(t, tap, func() { migrate(nodes[1], "n2") })
	// n2 → n1: its report reaches the origin, whose ack retires n2's
	// forward.
	migrate(nodes[2], "n1")
	eventually(t, 3*time.Second, func() bool {
		_, fwd := nodes[2].store.Forward(ref.OID)
		return !fwd
	}, "the origin never acknowledged n2's report")
	// n1 → n2 again: the newer report is held, the older one let go.
	releaseNew := holdNext(t, tap, func() { migrate(nodes[1], "n2") })
	defer releaseNew()
	releaseOld()

	// Until the newer report lands, n1 must keep leading to the object:
	// its own chase goes straight to n2, never round the origin and back.
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		got, err := measure(nodes[1], func() error {
			at, err := nodes[1].Locate(ctx, ref)
			if err == nil && at != "n2" {
				err = fmt.Errorf("located at %s", at)
			}
			return err
		})
		if err != nil || got.hops != 1 {
			t.Fatalf("locate from n1: %v after %d hops, want n2 in one", err, got.hops)
		}
	}
	// A cold caller goes origin → n1 → n2.
	got, err := measure(nodes[3], func() error {
		at, err := nodes[3].Locate(ctx, ref)
		if err == nil && at != "n2" {
			err = fmt.Errorf("located at %s", at)
		}
		return err
	})
	if err != nil || got.hops > 3 {
		t.Fatalf("locate from n3: %v after %d hops, want n2 in at most 3", err, got.hops)
	}
}

// TestReturnToOriginLeavesNothing: an object that goes back to its
// origin leaves its former host with no record and no forward. No home
// report confirms such a departure (the origin is its own home index),
// so a forward written there would live until the TTL.
func TestReturnToOriginLeavesNothing(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Migrate(ctx, ref, "n0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[1].store.Get(ref.OID); ok {
		t.Fatal("n1 keeps a record of the object it sent home")
	}
	if to, ok := nodes[1].store.Forward(ref.OID); ok {
		t.Fatalf("n1 keeps a forward to %s for the object it sent home", to)
	}
	if at := whereIs(t, ctx, nodes[1], ref); at != "n0" {
		t.Fatalf("object at %s, want n0", at)
	}
}
