package objmig

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/transport"
	"objmig/internal/wire"
)

// routedOp is one primitive delivered through the routed-request core.
// Every op here leaves a fixed object where it is, so one object can be
// addressed by op after op: a move is denied, a migrate re-installs the
// object at its own host, the edge ops touch an alliance no closure
// walk follows. host is the node the object truly lives on.
type routedOp struct {
	label string // the op label route stamps on an exhausted chase
	run   func(ctx context.Context, n *Node, oid core.OID, host NodeID) error
}

// routeGhost is an attachment partner that exists nowhere; the edge ops
// record and drop a half-edge to it inside routeAlliance.
var routeGhost = core.OID{Origin: "n0", Seq: 1 << 50}

const routeAlliance = core.AllianceID(7)

var routedOps = []routedOp{
	{"invoke", func(ctx context.Context, n *Node, oid core.OID, _ NodeID) error {
		_, err := Call[struct{}, int](ctx, n, Ref{OID: oid}, "Get", struct{}{})
		return err
	}},
	{"locate", func(ctx context.Context, n *Node, oid core.OID, host NodeID) error {
		at, err := n.Locate(ctx, Ref{OID: oid})
		if err == nil && at != host {
			return errors.New("located at " + string(at) + ", want " + string(host))
		}
		return err
	}},
	{"move", func(ctx context.Context, n *Node, oid core.OID, host NodeID) error {
		resp, prevAt, err := n.moveRequest(ctx, &wire.MoveReq{Obj: oid, From: n.id, Block: n.nextBlock()})
		if err == nil && (resp.Outcome != wire.MoveDenied || prevAt != host) {
			return errors.New("move of a fixed object was not denied at its host")
		}
		return err
	}},
	{"end", func(ctx context.Context, n *Node, oid core.OID, _ NodeID) error {
		return n.endBlock(ctx, Ref{OID: oid}, NoAlliance, n.nextBlock(), nil)
	}},
	{"migrate", func(ctx context.Context, n *Node, oid core.OID, host NodeID) error {
		return n.Refix(ctx, Ref{OID: oid}, host)
	}},
	{"edges", func(ctx context.Context, n *Node, oid core.OID, host NodeID) error {
		_, at, err := n.edgesOf(ctx, oid)
		if err == nil && at != host {
			return errors.New("edges answered by " + string(at) + ", want " + string(host))
		}
		return err
	}},
	{"attach", func(ctx context.Context, n *Node, oid core.OID, _ NodeID) error {
		return n.edgeAdd(ctx, oid, routeGhost, routeAlliance)
	}},
	{"detach", func(ctx context.Context, n *Node, oid core.OID, _ NodeID) error {
		return n.edgeDel(ctx, oid, routeGhost, routeAlliance)
	}},
	{"fixed?", func(ctx context.Context, n *Node, oid core.OID, _ NodeID) error {
		fixed, err := n.IsFixed(ctx, Ref{OID: oid})
		if err == nil && !fixed {
			return errors.New("fixed object reported unfixed")
		}
		return err
	}},
	{"fix", func(ctx context.Context, n *Node, oid core.OID, _ NodeID) error {
		return n.Fix(ctx, Ref{OID: oid})
	}},
}

// routeCluster is three in-memory nodes under a dynamic policy (so the
// end-request is routed rather than the local-only shortcut) with
// A-transitive attachment (so the edge ops' alliance stays out of every
// closure walk).
func routeCluster(t *testing.T, cfg Config) []*Node {
	t.Helper()
	cfg.Policy = PolicyCompareNodes
	cfg.Attach = AttachATransitive
	return testCluster(t, 3, cfg)
}

// fixedAt creates an object on n0 and fixes it at host.
func fixedAt(t *testing.T, ctx context.Context, nodes []*Node, host NodeID) core.OID {
	t.Helper()
	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Refix(ctx, ref, host); err != nil {
		t.Fatalf("fix %s at %s: %v", ref.OID, host, err)
	}
	return ref.OID
}

// chaseDelta is what one routed request cost its caller.
type chaseDelta struct{ hops, hits, misses int64 }

// measure runs fn and reports the caller's chase accounting for it.
func measure(n *Node, fn func() error) (chaseDelta, error) {
	before := n.Stats()
	err := fn()
	after := n.Stats()
	return chaseDelta{
		hops:   after.ChaseHops - before.ChaseHops,
		hits:   after.HintHits - before.HintHits,
		misses: after.HintMisses - before.HintMisses,
	}, err
}

var (
	oneHopHit   = chaseDelta{hops: 1, hits: 1}
	twoHopsMiss = chaseDelta{hops: 2, misses: 1}
)

// forwardCycle leaves oid hosted nowhere, with n0 and n1 redirecting
// to each other: n0's home index names n1 at the generation that took
// the object there, n1's forward names n0 at a later one — hearsay
// claiming the object went home since. A chase that followed every
// redirect would bounce between the two for ever; the generations end
// it in three hops (n0, n1, n0 again with nothing newer).
func forwardCycle(t *testing.T, ctx context.Context, nodes []*Node) core.OID {
	t.Helper()
	oid := fixedAt(t, ctx, nodes, "n1") // n0's home index names n1
	rec, ok := nodes[1].store.Get(oid)
	if !ok {
		t.Fatal("object did not arrive at n1")
	}
	if err := rec.Pause(ctx, 1); err != nil {
		t.Fatal(err)
	}
	nodes[1].store.Depart([]core.OID{oid}, []uint64{rec.Gen + 1}, 1, "n2")
	nodes[1].store.Learn(oid, "n0", rec.Gen+2)
	return oid
}

// TestRoutedOps drives every primitive through the one routing rule and
// holds each to the same behaviour and the same chase accounting: one
// ChaseHops per RPC, a one-hop success is a hint hit, anything longer a
// miss.
func TestRoutedOps(t *testing.T) {
	t.Parallel()

	t.Run("stale hint falls back to the origin", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := routeCluster(t, Config{})
		caller := nodes[2]
		for _, op := range routedOps {
			oid := fixedAt(t, ctx, nodes, "n0")
			caller.store.Learn(oid, "n1", 0) // n1 never heard of the object
			got, err := measure(caller, func() error { return op.run(ctx, caller, oid, "n0") })
			if err != nil {
				t.Fatalf("%s: %v", op.label, err)
			}
			if got != twoHopsMiss {
				t.Errorf("%s: accounting = %+v, want %+v", op.label, got, twoHopsMiss)
			}
			if hint := caller.store.Hint(oid); hint != "n0" {
				t.Errorf("%s: hint after the chase = %s, want n0 (the refuted n1 invalidated)", op.label, hint)
			}
		}
	})

	t.Run("redirect is learnt and followed", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := routeCluster(t, Config{})
		caller := nodes[2]
		for _, op := range routedOps {
			oid := fixedAt(t, ctx, nodes, "n1")
			run := func() error { return op.run(ctx, caller, oid, "n1") }
			// Cold: the origin redirects, the host answers.
			got, err := measure(caller, run)
			if err != nil {
				t.Fatalf("%s: %v", op.label, err)
			}
			if got != twoHopsMiss {
				t.Errorf("%s: cold accounting = %+v, want %+v", op.label, got, twoHopsMiss)
			}
			if hint := caller.store.Hint(oid); hint != "n1" {
				t.Errorf("%s: hint after the chase = %s, want n1", op.label, hint)
			}
			// Warm: straight to the host.
			if got, err = measure(caller, run); err != nil || got != oneHopHit {
				t.Errorf("%s: warm accounting = %+v, %v, want %+v", op.label, got, err, oneHopHit)
			}
		}
	})

	// Whatever op reached a migrated object first, every other op then
	// goes straight to the host: the ops share one location memory.
	t.Run("any op warms the hint for every other", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := routeCluster(t, Config{})
		caller := nodes[2]
		for _, first := range routedOps {
			oid := fixedAt(t, ctx, nodes, "n1")
			if err := first.run(ctx, caller, oid, "n1"); err != nil {
				t.Fatalf("%s: %v", first.label, err)
			}
			for _, next := range routedOps {
				if next.label == first.label {
					continue
				}
				got, err := measure(caller, func() error { return next.run(ctx, caller, oid, "n1") })
				if err != nil || got != oneHopHit {
					t.Errorf("%s after %s: accounting = %+v, %v, want %+v", next.label, first.label, got, err, oneHopHit)
				}
			}
		}
	})

	// A reply that says where the object went outranks the host that
	// gave it: the op after a migrate goes to the target, not back to the
	// old host for a redirect.
	t.Run("a relocating reply teaches the new host", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := routeCluster(t, Config{})
		caller := nodes[2]
		for _, next := range routedOps {
			oid := mustCreate(t, nodes[0]).OID
			got, err := measure(caller, func() error { return caller.Refix(ctx, Ref{OID: oid}, "n1") })
			if err != nil || got != oneHopHit {
				t.Fatalf("migrate n0 -> n1: accounting = %+v, %v, want %+v", got, err, oneHopHit)
			}
			got, err = measure(caller, func() error { return next.run(ctx, caller, oid, "n1") })
			if err != nil || got != oneHopHit {
				t.Errorf("%s after the migrate: accounting = %+v, %v, want %+v", next.label, got, err, oneHopHit)
			}
		}
	})

	t.Run("never-hosted object is not found", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := routeCluster(t, Config{})
		for _, op := range routedOps {
			// At the origin the answer is local; elsewhere the origin
			// gives it in one hop.
			for _, tc := range []struct {
				caller *Node
				hops   int64
			}{{nodes[0], 0}, {nodes[2], 1}} {
				got, err := measure(tc.caller, func() error { return op.run(ctx, tc.caller, routeGhost, "n0") })
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("%s from %s: err = %v, want ErrNotFound", op.label, tc.caller.id, err)
				}
				if got.hops != tc.hops {
					t.Errorf("%s from %s: %d hops, want %d", op.label, tc.caller.id, got.hops, tc.hops)
				}
			}
		}
	})

	t.Run("a forwarding cycle ends as lost and names the op", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := routeCluster(t, Config{})
		caller := nodes[2]
		oid := forwardCycle(t, ctx, nodes)
		for _, op := range routedOps {
			start := time.Now()
			got, err := measure(caller, func() error { return op.run(ctx, caller, oid, "") })
			took := time.Since(start)
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("%s: err = %v, want ErrUnreachable", op.label, err)
			}
			if want := "(" + op.label + ": location lost"; !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not carry %q", op.label, err, want)
			}
			if want := (chaseDelta{hops: 3, misses: 1}); got != want {
				t.Errorf("%s: accounting = %+v, want %+v", op.label, got, want)
			}
			if took >= 10*time.Millisecond {
				t.Errorf("%s: the chase took %v, want < 10ms", op.label, took)
			}
		}
	})

	t.Run("a cancelled context ends the chase first", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := routeCluster(t, Config{})
		caller := nodes[2]
		oid := forwardCycle(t, ctx, nodes)
		for _, op := range routedOps {
			// Cancelled before the first attempt: no hop is spent.
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			got, err := measure(caller, func() error { return op.run(cctx, caller, oid, "") })
			if !errors.Is(err, context.Canceled) || got.hops != 0 {
				t.Errorf("%s: err = %v after %d hops, want context.Canceled after none", op.label, err, got.hops)
			}
		}
	})
}

// TestLocationLostEndsAtOnce: a former host's forward ages out before
// the origin hears of the departure it records, so nothing names the
// object's host. A bystander's chase goes origin → former host
// (not-found) → origin, whose answer is no newer than the one it
// followed, and ends with a definite error at once; once the report
// lands the object is found again.
func TestLocationLostEndsAtOnce(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	net := transport.NewNetwork()
	tap := &sendTap{Transport: net.Transport(), kind: wire.KHomeUpdate, to: "n0"}
	nodes := testClusterOn(t, &Cluster{tr: tap, mem: net}, 4, Config{})
	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	release := holdNext(t, tap, func() {
		if err := nodes[1].Migrate(ctx, ref, "n2"); err != nil {
			t.Fatal(err)
		}
	})
	nodes[1].store.SetForwardTTL(time.Nanosecond)
	if nodes[1].store.CompactForwards() != 1 {
		t.Fatal("n1's forward did not age out")
	}
	bystander := nodes[3]
	start := time.Now()
	_, err := Call[struct{}, int](ctx, bystander, ref, "Get", struct{}{})
	took := time.Since(start)
	if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "(invoke: location lost") {
		t.Fatalf("invoke with the location lost: %v, want ErrUnreachable naming the op", err)
	}
	t.Logf("lost after %v: %v", took, err)
	if took >= 50*time.Millisecond {
		t.Fatalf("the lost chase took %v, want < 50ms", took)
	}
	release()
	eventually(t, 5*time.Second, func() bool {
		at, ok := nodes[0].store.Home(ref.OID)
		return ok && at == "n2"
	}, "the origin never heard of the departure to n2")
	if _, err := Call[struct{}, int](ctx, bystander, ref, "Get", struct{}{}); err != nil {
		t.Fatalf("invoke after the report landed: %v", err)
	}
}

// TestStaleHintChaseDoesNotWait: a stale hint refuted by a node that
// never heard of the object sends the chase to the origin at once. One
// millisecond's wait per chase would cost these 200 chases at least
// 200 ms.
func TestStaleHintChaseDoesNotWait(t *testing.T) {
	ctx := ctxShort(t)
	nodes := routeCluster(t, Config{})
	caller := nodes[2]
	oid := fixedAt(t, ctx, nodes, "n0")
	const chases = 200
	var took time.Duration
	for i := 0; i < chases; i++ {
		caller.store.Learn(oid, "n1", 0) // n1 never heard of the object
		got, err := measure(caller, func() error {
			start := time.Now()
			_, err := caller.Locate(ctx, Ref{OID: oid})
			took += time.Since(start)
			return err
		})
		if err != nil || got != twoHopsMiss {
			t.Fatalf("chase %d: accounting = %+v, %v, want %+v", i, got, err, twoHopsMiss)
		}
	}
	t.Logf("%d stale-hint chases: %v", chases, took)
	if took >= 100*time.Millisecond {
		t.Fatalf("%d stale-hint chases took %v, want < 100ms", chases, took)
	}
}

// TestFormerHostGivesOneAnswer: a former host keeps one entry for a
// departure — its forward — so every primitive gets the same answer
// there. The object goes n0 → n1 → n2 → n3 with n1's report to the
// origin held (so its forward stays), and a Learn at n1 then shortens
// the chain to n3: an invoke and a locate sent to n1 are both
// redirected to n3.
func TestFormerHostGivesOneAnswer(t *testing.T) {
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
	migrate(nodes[0], "n1")
	defer holdNext(t, tap, func() { migrate(nodes[1], "n2") })()
	migrate(nodes[2], "n3")
	nodes[1].store.Learn(ref.OID, "n3", 3)

	if _, ok := nodes[1].store.Get(ref.OID); ok {
		t.Fatal("n1's table still holds a record of the departed object")
	}
	caller := nodes[0]
	err := caller.call(ctx, "n1", wire.KInvoke,
		&wire.InvokeReq{Obj: ref.OID, Method: "Get", From: caller.id}, &wire.InvokeResp{})
	var redirect *wire.RemoteError
	if !errors.As(err, &redirect) || redirect.Code != wire.CodeMoved {
		t.Fatalf("invoke at n1: %v, want a redirect", err)
	}
	var loc wire.LocateResp
	if err := caller.call(ctx, "n1", wire.KLocate, &wire.LocateReq{Obj: ref.OID}, &loc); err != nil {
		t.Fatalf("locate at n1: %v", err)
	}
	if redirect.To != "n3" || loc.At != "n3" {
		t.Fatalf("n1 redirects an invoke to %s and a locate to %s, want n3 for both", redirect.To, loc.At)
	}
}
