package objmig

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"objmig/internal/core"
)

func TestParseRef(t *testing.T) {
	t.Parallel()
	ref := Ref{OID: core.OID{Origin: "node-1", Seq: 42}}
	parsed, err := ParseRef(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != ref {
		t.Fatalf("parsed = %v, want %v", parsed, ref)
	}
	for _, bad := range []string{"", "noslash", "/3", "a/", "a/notanumber", "a/-1"} {
		if _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) accepted", bad)
		}
	}
}

func TestParseRefRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(origin string, seq uint64) bool {
		if origin == "" || strings.ContainsRune(origin, 0) {
			return true // skip degenerate origins
		}
		ref := Ref{OID: core.OID{Origin: NodeID(origin), Seq: seq}}
		parsed, err := ParseRef(ref.String())
		return err == nil && parsed == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefZero(t *testing.T) {
	t.Parallel()
	var r Ref
	if !r.IsZero() {
		t.Fatal("zero Ref not IsZero")
	}
	r.OID.Seq = 1
	if r.IsZero() {
		t.Fatal("non-zero Ref IsZero")
	}
}

func TestHandleFuncDuplicatePanics(t *testing.T) {
	t.Parallel()
	typ := NewType[counterState]("dup")
	HandleFunc(typ, "M", func(c *Ctx, s *counterState, _ struct{}) (struct{}, error) {
		return struct{}{}, nil
	})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate method registration did not panic")
		}
	}()
	HandleFunc(typ, "M", func(c *Ctx, s *counterState, _ struct{}) (struct{}, error) {
		return struct{}{}, nil
	})
}

func TestTypeStateRoundTrip(t *testing.T) {
	t.Parallel()
	typ := newCounterType()
	inst := &counterState{Value: 7, Tag: "x", Peer: Ref{OID: core.OID{Origin: "n", Seq: 3}}}
	data, err := typ.encodeState(inst)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := typ.decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(*counterState)
	if !ok {
		t.Fatalf("decoded %T", decoded)
	}
	if *got != *inst {
		t.Fatalf("round trip: %+v != %+v", got, inst)
	}
	// Wrong instance type is rejected, not mangled.
	if _, err := typ.encodeState("not a counter"); err == nil {
		t.Fatal("encodeState accepted a foreign instance")
	}
	if _, err := typ.decodeState([]byte("garbage")); err == nil {
		t.Fatal("decodeState accepted garbage")
	}
}

// methodNames lists the methods registered on a type.
func methodNames[S any](t *Type[S]) []string {
	out := make([]string, 0, len(t.methods))
	for n := range t.methods {
		out = append(out, n)
	}
	return out
}

func TestTypeMethodNames(t *testing.T) {
	t.Parallel()
	typ := newCounterType()
	names := methodNames(typ)
	if len(names) == 0 {
		t.Fatal("no method names")
	}
	found := false
	for _, n := range names {
		if n == "Add" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Add missing from %v", names)
	}
}

func TestRegisterTypeRejectsForeignImplementations(t *testing.T) {
	t.Parallel()
	n, err := NewNode(Config{ID: "x", Cluster: NewLocalCluster()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.RegisterType(fakeType{}); err == nil {
		t.Fatal("foreign type accepted")
	}
}

type fakeType struct{}

func (fakeType) Name() string { return "fake" }

func TestFromRemoteMapping(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])

	// Drive real remote errors through the public API and check the
	// sentinel mapping.
	if err := nodes[0].Fix(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Migrate(ctx, ref, "n1"); !errors.Is(err, ErrFixed) {
		t.Fatalf("fixed: %v", err)
	}
	if err := nodes[0].Unfix(ctx, ref); err != nil {
		t.Fatal(err)
	}
	err := nodes[0].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if err := nodes[1].Migrate(ctx, ref, "n1"); !errors.Is(err, ErrDenied) {
			t.Errorf("locked: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeStatsCounters(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])

	if _, err := Call[int, int](ctx, nodes[0], ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	s0 := nodes[0].Stats()
	if s0.InvocationsServed != 2 {
		t.Fatalf("served = %d, want 2", s0.InvocationsServed)
	}
	if s0.ObjectsHosted != 1 {
		t.Fatalf("hosted = %d, want 1", s0.ObjectsHosted)
	}
	s1 := nodes[1].Stats()
	if s1.RemoteCallsSent == 0 {
		t.Fatal("n1 sent no remote calls")
	}

	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	s0, s1 = nodes[0].Stats(), nodes[1].Stats()
	if s0.MigrationsOut != 1 || s0.ObjectsMovedOut != 1 {
		t.Fatalf("n0 migrations = %+v", s0)
	}
	if s1.ObjectsInstalled != 1 || s1.ObjectsHosted != 1 {
		t.Fatalf("n1 installs = %+v", s1)
	}
	if s0.ObjectsHosted != 0 {
		t.Fatalf("n0 still hosts %d", s0.ObjectsHosted)
	}

	// Move outcomes are counted at the deciding host.
	err := nodes[0].Move(ctx, ref, func(ctx context.Context, b *Block) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].Stats().MovesGranted; got != 1 {
		t.Fatalf("n1 granted = %d, want 1", got)
	}
}

func TestClusterLatencyVisible(t *testing.T) {
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
	for _, n := range []*Node{a, b} {
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := a.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	// Latency on a TCP cluster is a no-op by contract.
	NewTCPCluster().SetLatency(0)
	cl.SetLatency(0)
	if _, err := Call[int, int](ctx, b, ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
}

// orderReq/orderResp are a struct argument and result: their gob
// streams are compiled once and reused by every call below.
type orderReq struct {
	SKU   string
	Qty   int
	Notes []string
	Attrs map[string]string
}

type orderResp struct {
	Total   int
	Echo    orderReq
	Handled NodeID
}

// boxedReq has an interface field: gob describes the concrete type
// lazily, per message, so this type must keep the per-message codec.
type boxedReq struct {
	Label   string
	Payload interface{}
}

type boxedPayload struct {
	N    int
	Tags []string
}

func newOrderType() *Type[counterState] {
	t := NewType[counterState]("orders")
	HandleFunc(t, "Order", func(c *Ctx, s *counterState, req orderReq) (orderResp, error) {
		s.Value += req.Qty
		return orderResp{Total: s.Value, Echo: req, Handled: c.Node().ID()}, nil
	})
	HandleFunc(t, "Box", func(c *Ctx, s *counterState, req boxedReq) (boxedReq, error) {
		p, ok := req.Payload.(boxedPayload)
		if !ok {
			return boxedReq{}, errors.New("payload is not a boxedPayload")
		}
		p.N++
		return boxedReq{Label: req.Label + "!", Payload: p}, nil
	})
	return t
}

// TestTypedCallStructAndInterfaceAcrossNodes: struct arguments and
// results, and a gob.Register-ed concrete type behind an interface
// field, survive repeated local and remote calls — the struct pair on
// pooled, primed gob streams, the interface-bearing pair on the
// per-message path.
func TestTypedCallStructAndInterfaceAcrossNodes(t *testing.T) {
	t.Parallel()
	gob.Register(boxedPayload{})
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	for _, n := range nodes {
		if err := n.RegisterType(newOrderType()); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := nodes[0].Create("orders")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 20; i++ {
		from := nodes[i%2] // local and remote callers alternate
		req := orderReq{SKU: fmt.Sprint("sku-", i), Qty: i, Notes: []string{"a", fmt.Sprint(i)}}
		if i%3 == 0 {
			req.Attrs = map[string]string{"round": fmt.Sprint(i)}
		}
		total += i
		got, err := Call[orderReq, orderResp](ctx, from, ref, "Order", req)
		if err != nil {
			t.Fatalf("call %d from %s: %v", i, from.ID(), err)
		}
		want := orderResp{Total: total, Echo: req, Handled: "n0"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d from %s:\n got  %+v\n want %+v", i, from.ID(), got, want)
		}

		boxed := boxedReq{Label: fmt.Sprint("box-", i), Payload: boxedPayload{N: i, Tags: []string{"t"}}}
		back, err := Call[boxedReq, boxedReq](ctx, from, ref, "Box", boxed)
		if err != nil {
			t.Fatalf("boxed call %d from %s: %v", i, from.ID(), err)
		}
		wantBox := boxedReq{Label: boxed.Label + "!", Payload: boxedPayload{N: i + 1, Tags: []string{"t"}}}
		if !reflect.DeepEqual(back, wantBox) {
			t.Fatalf("boxed call %d from %s:\n got  %+v\n want %+v", i, from.ID(), back, wantBox)
		}
	}
	// An unregistered concrete type is gob's error, reported by Call.
	type stranger struct{ X int }
	_, err = Call[boxedReq, boxedReq](ctx, nodes[1], ref, "Box", boxedReq{Payload: stranger{1}})
	if err == nil || !strings.Contains(err.Error(), "encode argument") {
		t.Fatalf("unregistered payload: %v, want an encode-argument error", err)
	}
	// The failure poisoned nothing.
	if _, err := Call[orderReq, orderResp](ctx, nodes[1], ref, "Order", orderReq{SKU: "after"}); err != nil {
		t.Fatal(err)
	}
}
