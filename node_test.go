package objmig

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"objmig/internal/wire"
)

// counterState is the test object: a gob-encodable struct, possibly
// holding Refs to other objects.
type counterState struct {
	Value int
	Tag   string
	Peer  Ref
}

// newCounterType builds the test type. Each test builds its own to
// keep tests independent.
func newCounterType() *Type[counterState] {
	t := NewType[counterState]("counter")
	HandleFunc(t, "Add", func(c *Ctx, s *counterState, delta int) (int, error) {
		s.Value += delta
		return s.Value, nil
	})
	HandleFunc(t, "Get", func(c *Ctx, s *counterState, _ struct{}) (int, error) {
		return s.Value, nil
	})
	HandleFunc(t, "Where", func(c *Ctx, s *counterState, _ struct{}) (NodeID, error) {
		return c.Node().ID(), nil
	})
	HandleFunc(t, "SetTag", func(c *Ctx, s *counterState, tag string) (struct{}, error) {
		s.Tag = tag
		return struct{}{}, nil
	})
	HandleFunc(t, "GetTag", func(c *Ctx, s *counterState, _ struct{}) (string, error) {
		return s.Tag, nil
	})
	HandleFunc(t, "SetPeer", func(c *Ctx, s *counterState, peer Ref) (struct{}, error) {
		s.Peer = peer
		return struct{}{}, nil
	})
	HandleFunc(t, "AskPeer", func(c *Ctx, s *counterState, _ struct{}) (int, error) {
		// Nested invocation from inside a method.
		return NestedCall[struct{}, int](c, s.Peer, "Get", struct{}{})
	})
	HandleFunc(t, "Fail", func(c *Ctx, s *counterState, _ struct{}) (struct{}, error) {
		return struct{}{}, errors.New("deliberate failure")
	})
	HandleFunc(t, "Panic", func(c *Ctx, s *counterState, _ struct{}) (struct{}, error) {
		panic("deliberate panic")
	})
	HandleFunc(t, "Slow", func(c *Ctx, s *counterState, d time.Duration) (struct{}, error) {
		select {
		case <-time.After(d):
		case <-c.Context().Done():
		}
		return struct{}{}, nil
	})
	return t
}

// testCluster spins count nodes on a fresh local cluster with the
// counter type registered, and tears them down with the test (or
// benchmark — anything that can clean up after itself).
func testCluster(t testing.TB, count int, cfg Config) []*Node {
	t.Helper()
	return testClusterOn(t, NewLocalCluster(), count, cfg)
}

// testClusterOn is testCluster on a fabric the test built itself (a
// tapped transport, say).
func testClusterOn(t testing.TB, cl *Cluster, count int, cfg Config) []*Node {
	t.Helper()
	nodes := make([]*Node, count)
	for i := range nodes {
		c := cfg
		c.ID = NodeID(fmt.Sprintf("n%d", i))
		c.Cluster = cl
		n, err := NewNode(c)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
	return nodes
}

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func mustCreate(t *testing.T, n *Node) Ref {
	t.Helper()
	ref, err := n.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func whereIs(t *testing.T, ctx context.Context, n *Node, ref Ref) NodeID {
	t.Helper()
	at, err := Call[struct{}, NodeID](ctx, n, ref, "Where", struct{}{})
	if err != nil {
		t.Fatalf("Where: %v", err)
	}
	return at
}

func TestLocalCreateAndInvoke(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 1, Config{})
	ref := mustCreate(t, nodes[0])

	v, err := Call[int, int](ctx, nodes[0], ref, "Add", 5)
	if err != nil || v != 5 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	v, err = Call[int, int](ctx, nodes[0], ref, "Add", 2)
	if err != nil || v != 7 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	if at := whereIs(t, ctx, nodes[0], ref); at != "n0" {
		t.Fatalf("Where = %v", at)
	}
}

func TestRemoteInvoke(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	ref := mustCreate(t, nodes[0])

	// n2 has never heard of the object; it must resolve it through
	// the origin embedded in the Ref.
	v, err := Call[int, int](ctx, nodes[2], ref, "Add", 3)
	if err != nil || v != 3 {
		t.Fatalf("remote Add = %d, %v", v, err)
	}
	// And the state is shared: n1 sees n2's update.
	v, err = Call[struct{}, int](ctx, nodes[1], ref, "Get", struct{}{})
	if err != nil || v != 3 {
		t.Fatalf("remote Get = %d, %v", v, err)
	}
}

func TestInvokeErrors(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	ref := mustCreate(t, nodes[0])

	if _, err := Call[struct{}, struct{}](ctx, nodes[1], ref, "Nope", struct{}{}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	if _, err := Call[struct{}, struct{}](ctx, nodes[1], ref, "Fail", struct{}{}); err == nil {
		t.Fatal("Fail returned no error")
	}
	if _, err := Call[struct{}, struct{}](ctx, nodes[1], ref, "Panic", struct{}{}); err == nil {
		t.Fatal("panicking method returned no error")
	}
	// The object survives a panicking method.
	if v, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err != nil || v != 1 {
		t.Fatalf("Add after panic = %d, %v", v, err)
	}
	// Zero and unknown references.
	if _, err := Call[int, int](ctx, nodes[0], Ref{}, "Add", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("zero ref: %v", err)
	}
	ghost := Ref{OID: ref.OID}
	ghost.OID.Seq = 9999
	if _, err := Call[int, int](ctx, nodes[1], ghost, "Add", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost ref: %v", err)
	}
}

func TestMigrateAndForwarding(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	ref := mustCreate(t, nodes[0])
	if _, err := Call[int, int](ctx, nodes[0], ref, "Add", 10); err != nil {
		t.Fatal(err)
	}

	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if at := whereIs(t, ctx, nodes[0], ref); at != "n1" {
		t.Fatalf("after migrate, Where = %v", at)
	}
	// State travelled.
	if v, err := Call[struct{}, int](ctx, nodes[2], ref, "Get", struct{}{}); err != nil || v != 10 {
		t.Fatalf("Get after migrate = %d, %v", v, err)
	}
	// Chain: n1 -> n2 -> n0; stale hints must chase through
	// forwarding pointers and the home index.
	if err := nodes[2].Migrate(ctx, ref, "n2"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Migrate(ctx, ref, "n0"); err != nil {
		t.Fatal(err)
	}
	if at := whereIs(t, ctx, nodes[1], ref); at != "n0" {
		t.Fatalf("after chain, Where = %v", at)
	}
	if v, err := Call[int, int](ctx, nodes[2], ref, "Add", 1); err != nil || v != 11 {
		t.Fatalf("Add after chain = %d, %v", v, err)
	}
	// Locate agrees from every node.
	for _, n := range nodes {
		at, err := n.Locate(ctx, ref)
		if err != nil || at != "n0" {
			t.Fatalf("%s.Locate = %v, %v", n.ID(), at, err)
		}
	}
}

func TestMigrateToObject(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	a := mustCreate(t, nodes[0])
	b, err := nodes[1].Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].MigrateToObject(ctx, a, b); err != nil {
		t.Fatalf("collocate: %v", err)
	}
	if at := whereIs(t, ctx, nodes[0], a); at != "n1" {
		t.Fatalf("a at %v, want n1", at)
	}
}

func TestConcurrentInvokesDuringMigration(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	ref := mustCreate(t, nodes[0])

	const callers = 6
	const callsEach = 30
	var wg sync.WaitGroup
	errs := make(chan error, callers*callsEach)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := nodes[i%len(nodes)]
			for j := 0; j < callsEach; j++ {
				if _, err := Call[int, int](ctx, n, ref, "Add", 1); err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	// Interleave migrations with the calls.
	for k := 0; k < 6; k++ {
		target := nodes[(k+1)%len(nodes)].ID()
		if err := nodes[0].Migrate(ctx, ref, target); err != nil && !errors.Is(err, ErrDenied) {
			t.Fatalf("migrate %d: %v", k, err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// No call may be lost: the monitor semantics serialise them all.
	v, err := Call[struct{}, int](ctx, nodes[1], ref, "Get", struct{}{})
	if err != nil || v != callers*callsEach {
		t.Fatalf("total = %d, %v; want %d", v, err, callers*callsEach)
	}
}

func TestNestedInvocation(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	a := mustCreate(t, nodes[0])
	b, err := nodes[1].Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Call[int, int](ctx, nodes[1], b, "Add", 42); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[Ref, struct{}](ctx, nodes[0], a, "SetPeer", b); err != nil {
		t.Fatal(err)
	}
	// a's method calls b across nodes.
	v, err := Call[struct{}, int](ctx, nodes[0], a, "AskPeer", struct{}{})
	if err != nil || v != 42 {
		t.Fatalf("AskPeer = %d, %v", v, err)
	}
	// Refs inside object state survive migration.
	if err := nodes[0].Migrate(ctx, a, "n1"); err != nil {
		t.Fatal(err)
	}
	v, err = Call[struct{}, int](ctx, nodes[0], a, "AskPeer", struct{}{})
	if err != nil || v != 42 {
		t.Fatalf("AskPeer after migrate = %d, %v", v, err)
	}
}

func TestFixUnfixRefix(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	ref := mustCreate(t, nodes[0])

	if err := nodes[0].Fix(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if fixed, err := nodes[2].IsFixed(ctx, ref); err != nil || !fixed {
		t.Fatalf("IsFixed = %v, %v", fixed, err)
	}
	if err := nodes[0].Migrate(ctx, ref, "n1"); !errors.Is(err, ErrFixed) {
		t.Fatalf("migrate of fixed object: %v", err)
	}
	// Refix moves it anyway and keeps it fixed at the new place.
	if err := nodes[0].Refix(ctx, ref, "n2"); err != nil {
		t.Fatalf("refix: %v", err)
	}
	if at := whereIs(t, ctx, nodes[0], ref); at != "n2" {
		t.Fatalf("after refix at %v", at)
	}
	if fixed, err := nodes[0].IsFixed(ctx, ref); err != nil || !fixed {
		t.Fatalf("IsFixed after refix = %v, %v", fixed, err)
	}
	if err := nodes[0].Unfix(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Migrate(ctx, ref, "n0"); err != nil {
		t.Fatalf("migrate after unfix: %v", err)
	}
}

func TestTypeNotRegisteredAtTarget(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a, err := NewNode(Config{ID: "a", Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(Config{ID: "b", Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.RegisterType(newCounterType()); err != nil {
		t.Fatal(err)
	}
	// b has no counter type: migration must fail cleanly and the
	// object must stay usable at a.
	ref, err := a.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(ctx, ref, "b"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("migrate to typeless node: %v", err)
	}
	if v, err := Call[int, int](ctx, a, ref, "Add", 1); err != nil || v != 1 {
		t.Fatalf("object unusable after failed migration: %d, %v", v, err)
	}
}

func TestNodeValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewNode(Config{ID: "x"}); err == nil {
		t.Fatal("missing cluster accepted")
	}
	cl := NewLocalCluster()
	if _, err := NewNode(Config{ID: "x", Cluster: cl, Policy: PolicyKind(99)}); err == nil {
		t.Fatal("bad policy accepted")
	}
	n, err := NewNode(Config{ID: "x", Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if n.Policy() != PolicyPlacement || n.AttachPolicy() != AttachATransitive {
		t.Fatalf("defaults = %v, %v", n.Policy(), n.AttachPolicy())
	}
	if err := n.RegisterType(newCounterType()); err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterType(newCounterType()); err == nil {
		t.Fatal("duplicate type registration accepted")
	}
	if _, err := n.Create("ghost-type"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("create unknown type: %v", err)
	}
	_ = n.Close()
	if _, err := n.Create("counter"); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewTCPCluster()
	mk := func(id NodeID) *Node {
		n, err := NewNode(Config{ID: id, Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	// Wire the address book both ways.
	for _, x := range []*Node{a, b, c} {
		for _, y := range []*Node{a, b, c} {
			if x != y {
				x.AddPeer(y.ID(), y.Addr())
			}
		}
	}
	ref, err := a.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := Call[int, int](ctx, c, ref, "Add", 7); err != nil || v != 7 {
		t.Fatalf("tcp Add = %d, %v", v, err)
	}
	if err := b.Migrate(ctx, ref, "c"); err != nil {
		t.Fatalf("tcp migrate: %v", err)
	}
	if at := whereIs(t, ctx, a, ref); at != "c" {
		t.Fatalf("tcp Where = %v", at)
	}
	if v, err := Call[struct{}, int](ctx, b, ref, "Get", struct{}{}); err != nil || v != 7 {
		t.Fatalf("tcp Get = %d, %v", v, err)
	}
}

func TestAlliancesAreUnique(t *testing.T) {
	t.Parallel()
	nodes := testCluster(t, 2, Config{})
	seen := map[AllianceID]bool{}
	for i := 0; i < 10; i++ {
		for _, n := range nodes {
			al := n.NewAlliance()
			if al == NoAlliance || seen[al] {
				t.Fatalf("alliance collision: %v", al)
			}
			seen[al] = true
		}
	}
}

func TestContextCancellationDuringInvoke(t *testing.T) {
	t.Parallel()
	nodes := testCluster(t, 2, Config{})
	ref := mustCreate(t, nodes[0])
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Call[time.Duration, struct{}](ctx, nodes[1], ref, "Slow", 5*time.Second)
	if err == nil {
		t.Fatal("slow call ignored the deadline")
	}
}

// TestRetiredKindsRefused: the begin/chunk/commit kinds the install
// frame absorbed keep their numbers reserved and are answered with
// CodeBadRequest — by the dispatcher, and over the wire.
func TestRetiredKindsRefused(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	for kind := wire.Kind(16); kind <= 18; kind++ {
		body, err := wire.MarshalAppend(nil, &wire.PingReq{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[1].handle(ctx, kind, body, nil); !isCode(err, wire.CodeBadRequest) {
			t.Fatalf("dispatching kind %d: %v, want CodeBadRequest", kind, err)
		}
		var resp wire.PingResp
		if err := nodes[0].call(ctx, "n1", kind, &wire.PingReq{}, &resp); !isCode(err, wire.CodeBadRequest) {
			t.Fatalf("calling kind %d: %v, want CodeBadRequest", kind, err)
		}
	}
}
