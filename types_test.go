package objmig

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"objmig/internal/core"
	"objmig/internal/valcodec"
	"objmig/internal/wire"
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

// The leg-equivalence test's argument and result types: legScalars and
// [4]int are value-safe, the rest are not (see HandleFunc).
type legScalars struct {
	A int64
	B string
	C float64
	D bool
	E [2]uint8
}

type legHidden struct {
	X int
	y int
}

// legGob counts its own gob decodes, so a result shows how many codec
// crossings it took.
type legGob struct{ N int }

func (g legGob) GobEncode() ([]byte, error) { return []byte(strconv.Itoa(g.N)), nil }
func (g *legGob) GobDecode(b []byte) error {
	n, err := strconv.Atoi(string(b))
	g.N = n + 1
	return err
}

func newLegType() *Type[counterState] {
	t := NewType[counterState]("legs")
	HandleFunc(t, "Int64", func(c *Ctx, s *counterState, a int64) (int64, error) { return a + 1, nil })
	HandleFunc(t, "Scalars", func(c *Ctx, s *counterState, a legScalars) (legScalars, error) {
		a.A, a.B, a.C, a.D, a.E[1] = a.A*2, a.B+"!", -a.C, !a.D, a.E[0]
		return a, nil
	})
	HandleFunc(t, "Array", func(c *Ctx, s *counterState, a [4]int) ([4]int, error) {
		return [4]int{a[3], a[2], a[1], a[0]}, nil
	})
	HandleFunc(t, "String", func(c *Ctx, s *counterState, a string) (string, error) { return strings.ToUpper(a), nil })
	HandleFunc(t, "Bytes", func(c *Ctx, s *counterState, a []byte) ([]byte, error) { return append(a, '!'), nil })
	HandleFunc(t, "Map", func(c *Ctx, s *counterState, a map[string]int) (map[string]int, error) {
		a["seen"] = len(a)
		return a, nil
	})
	HandleFunc(t, "Pointer", func(c *Ctx, s *counterState, a *int) (*int, error) {
		v := *a + 1
		return &v, nil
	})
	HandleFunc(t, "Hidden", func(c *Ctx, s *counterState, a legHidden) (legHidden, error) {
		return legHidden{X: a.X + 1, y: a.y + 1}, nil
	})
	HandleFunc(t, "Empty", func(c *Ctx, s *counterState, a struct{}) (struct{}, error) { return a, nil })
	HandleFunc(t, "Gob", func(c *Ctx, s *counterState, a legGob) (legGob, error) { return a, nil })
	HandleFunc(t, "Fail", func(c *Ctx, s *counterState, a int64) (int64, error) { return 7, errors.New("boom") })
	HandleFunc(t, "Panic", func(c *Ctx, s *counterState, a int64) (int64, error) { panic("kaboom") })
	HandleFunc(t, "Scribble", func(c *Ctx, s *counterState, a []int) (int, error) {
		a[0] = -1
		return len(a), nil
	})
	return t
}

// legCalls is one typed call in both the forms a remote caller can
// send it: call is Call (the typed leg when collocated, the value
// layout or gob when remote), raw is the same call as a gob image
// through InvokeRaw, decoded as Call decodes a gob result.
type legCalls struct{ call, raw func(*Node) (any, error) }

// legCall wraps one typed call so a table can hold calls of many
// signatures.
func legCall[A, R any](ctx context.Context, ref Ref, method string, arg A) legCalls {
	return legCalls{
		call: func(n *Node) (any, error) { return Call[A, R](ctx, n, ref, method, arg) },
		raw: func(n *Node) (any, error) {
			var zero R
			img, err := encodeArg(nil, arg)
			if err != nil {
				return zero, err
			}
			out, err := n.InvokeRaw(ctx, ref, method, img)
			if err != nil {
				return zero, err
			}
			return decodeResult[R](out)
		},
	}
}

// errClass names the public sentinel err matches: callers can tell two
// errors apart by errors.Is only when their classes differ.
func errClass(err error) string {
	if err == nil {
		return "nil"
	}
	for _, s := range []error{ErrNotFound, ErrFixed, ErrDenied, ErrUnknownType, ErrUnknownMethod,
		ErrExclusive, ErrClosed, ErrUnreachable} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "other"
}

// TestInvokeRawResultOutlivesFrame: a remote InvokeRaw hands back a
// result image that is its caller's, not a view of the response frame
// it arrived in. Many further remote calls, each drawing its frames
// from the same pool and answering a tag of the same length but other
// bytes, leave it as it was.
func TestInvokeRawResultOutlivesFrame(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	host, caller := nodes[0], nodes[1]
	ref := mustCreate(t, host)
	tag := strings.Repeat("a tag long enough to fill a frame; ", 4)
	if _, err := Call[string, struct{}](ctx, caller, ref, "SetTag", tag); err != nil {
		t.Fatal(err)
	}
	arg, err := encodeArg(nil, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := caller.InvokeRaw(ctx, ref, "GetTag", arg)
	if err != nil {
		t.Fatal(err)
	}
	keep := string(out)
	for i := 0; i < 200; i++ {
		other := fmt.Sprintf("%0*d", len(tag), i)
		if _, err := Call[string, struct{}](ctx, caller, ref, "SetTag", other); err != nil {
			t.Fatal(err)
		}
		if _, err := caller.InvokeRaw(ctx, ref, "GetTag", arg); err != nil {
			t.Fatal(err)
		}
	}
	if string(out) != keep {
		t.Fatalf("InvokeRaw's result changed under later calls:\n got %q\nwant %q", out, keep)
	}
	if got, err := decodeResult[string](out); err != nil || got != tag {
		t.Fatalf("result decodes to %q, %v; want %q", got, err, tag)
	}
}

// TestCallLegsAgree: the same call sent to the hosting node (the typed
// leg for value-safe signatures, the encoded leg for the rest), from a
// remote node (the value layout for value-safe signatures, gob for the
// rest) and from a remote node as a gob image through InvokeRaw gives
// the same result and the same error class; the typed and value legs
// are registered exactly for the value-safe signatures; a callee cannot
// reach its caller's slice; and each leg counts one served invocation,
// one EventInvoke and one affinity access per call.
func TestCallLegsAgree(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	var invokes atomic.Int64
	nodes := testCluster(t, 2, Config{Observer: func(e Event) {
		if e.Kind == EventInvoke {
			invokes.Add(1)
		}
	}})
	legs := newLegType()
	for _, n := range nodes {
		if err := n.RegisterType(legs); err != nil {
			t.Fatal(err)
		}
	}
	host, caller := nodes[0], nodes[1]
	ref, err := host.Create("legs")
	if err != nil {
		t.Fatal(err)
	}
	seven := 7
	cases := []struct {
		name   string
		method string // "" when the call names no registered method
		typed  bool   // the method has a typed and a value leg
		call   legCalls
		want   any // the result; nil when the call fails
		class  string
	}{
		{"int64", "Int64", true, legCall[int64, int64](ctx, ref, "Int64", 41), int64(42), "nil"},
		{"scalars", "Scalars", true,
			legCall[legScalars, legScalars](ctx, ref, "Scalars", legScalars{A: 3, B: "b", C: 1.5, D: true, E: [2]uint8{9, 0}}),
			legScalars{A: 6, B: "b!", C: -1.5, E: [2]uint8{9, 9}}, "nil"},
		{"array", "Array", true, legCall[[4]int, [4]int](ctx, ref, "Array", [4]int{1, 2, 3, 4}), [4]int{4, 3, 2, 1}, "nil"},
		{"string", "String", true, legCall[string, string](ctx, ref, "String", "abc"), "ABC", "nil"},
		{"bytes", "Bytes", false, legCall[[]byte, []byte](ctx, ref, "Bytes", []byte("ab")), []byte("ab!"), "nil"},
		{"map", "Map", false, legCall[map[string]int, map[string]int](ctx, ref, "Map", map[string]int{"a": 1}),
			map[string]int{"a": 1, "seen": 1}, "nil"},
		{"pointer", "Pointer", false, legCall[*int, *int](ctx, ref, "Pointer", &seven), &[]int{8}[0], "nil"},
		// gob drops the unexported field both ways: the typed leg would
		// have returned y == 3.
		{"unexported field", "Hidden", false, legCall[legHidden, legHidden](ctx, ref, "Hidden", legHidden{X: 1, y: 2}),
			legHidden{X: 2}, "nil"},
		{"empty struct", "Empty", false, legCall[struct{}, struct{}](ctx, ref, "Empty", struct{}{}), struct{}{}, "nil"},
		// One decode of the argument and one of the result.
		{"GobEncoder", "Gob", false, legCall[legGob, legGob](ctx, ref, "Gob", legGob{N: 1}), legGob{N: 3}, "nil"},
		{"result with error", "Fail", true, legCall[int64, int64](ctx, ref, "Fail", 1), nil, "other"},
		{"panic", "Panic", true, legCall[int64, int64](ctx, ref, "Panic", 1), nil, "other"},
		{"unknown method", "", false, legCall[int64, int64](ctx, ref, "Nope", 1), nil, ErrUnknownMethod.Error()},
		// The registration is int64: the typed leg does not match, and
		// gob converts on the encoded one.
		{"int32 for int64", "Int64", true, legCall[int32, int32](ctx, ref, "Int64", 41), int32(42), "nil"},
	}
	for _, tc := range cases {
		if tc.method != "" {
			h, ok := legs.method(tc.method)
			if !ok || (h.local != nil) != tc.typed || (h.value != nil) != tc.typed || (h.layout != 0) != tc.typed {
				t.Errorf("%s: registered %v, typed leg %v, value leg %v (layout %x); want both %v",
					tc.name, ok, h.local != nil, h.value != nil, h.layout, tc.typed)
			}
		}
		for _, leg := range []struct {
			name string
			call func(*Node) (any, error)
			from *Node
		}{{"local", tc.call.call, host}, {"remote", tc.call.call, caller}, {"remote gob", tc.call.raw, caller}} {
			res, err := leg.call(leg.from)
			if errClass(err) != tc.class {
				t.Errorf("%s: %s leg error class %q (%v); want %q", tc.name, leg.name, errClass(err), err, tc.class)
				continue
			}
			want := tc.want
			if want == nil {
				want = reflect.Zero(reflect.TypeOf(res)).Interface()
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: %s leg returned %#v; want %#v", tc.name, leg.name, res, want)
			}
		}
	}
	if _, err := Call[int64, int64](ctx, host, ref, "Fail", 1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("local Fail: %v, want the method's error", err)
	}
	if _, err := Call[int64, int64](ctx, caller, ref, "Fail", 1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("remote Fail: %v, want the method's error", err)
	}

	for _, n := range []*Node{host, caller} {
		arg := []int{1, 2, 3}
		if got, err := Call[[]int, int](ctx, n, ref, "Scribble", arg); err != nil || got != 3 {
			t.Fatalf("Scribble from %s: %d, %v", n.ID(), got, err)
		}
		if arg[0] != 1 {
			t.Errorf("Scribble from %s reached the caller's slice: %v", n.ID(), arg)
		}
	}

	// One call on each leg: typed local, encoded local, remote value,
	// remote gob.
	host.aff.SetEnabled(true)
	for _, leg := range []struct {
		name string
		from *Node
		call func(*Node) (any, error)
	}{
		{"typed", host, legCall[int64, int64](ctx, ref, "Int64", 1).call},
		{"encoded", host, legCall[[]byte, []byte](ctx, ref, "Bytes", []byte("x")).call},
		{"remote value", caller, legCall[int64, int64](ctx, ref, "Int64", 1).call},
		{"remote gob", caller, legCall[int64, int64](ctx, ref, "Int64", 1).raw},
	} {
		served, events, load := host.Stats().InvocationsServed, invokes.Load(), host.aff.Load(ref.OID)
		if _, err := leg.call(leg.from); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		after := host.aff.Load(ref.OID)
		if d := host.Stats().InvocationsServed - served; d != 1 {
			t.Errorf("%s: InvocationsServed moved by %d, want 1", leg.name, d)
		}
		if d := invokes.Load() - events; d != 1 {
			t.Errorf("%s: %d EventInvoke, want 1", leg.name, d)
		}
		wantLocal := int64(1)
		if leg.from != host {
			wantLocal = 0
		}
		if dl, dt := after.Local-load.Local, after.Total-load.Total; dl != wantLocal || dt != 1 {
			t.Errorf("%s: affinity local +%d, total +%d; want +%d, +1", leg.name, dl, dt, wantLocal)
		}
	}
}

// The fallback test's host-side signatures, and caller-side types whose
// layouts differ from them in one way each.
type (
	layPair struct {
		A int64
		B string
	}
	laySwapped struct {
		B string
		A int64
	} // fields reordered
	layRenamed struct {
		A int64
		C string
	} // B renamed
)

func newLayoutType() *Type[counterState] {
	t := NewType[counterState]("layouts")
	HandleFunc(t, "Int64", func(c *Ctx, s *counterState, a int64) (int64, error) { return a + 1, nil })
	HandleFunc(t, "Int32", func(c *Ctx, s *counterState, a int32) (int32, error) { return a + 1, nil })
	HandleFunc(t, "Pair", func(c *Ctx, s *counterState, a layPair) (layPair, error) {
		return layPair{A: a.A * 2, B: a.B + "!"}, nil
	})
	HandleFunc(t, "Array4", func(c *Ctx, s *counterState, a [4]int) ([4]int, error) {
		return [4]int{a[3], a[2], a[1], a[0]}, nil
	})
	return t
}

// TestValueLayoutFallback: a remote Call whose value layout differs
// from the host's registration is answered exactly as its gob image is
// — same result, same error class, same counts at the host — for a
// retyped argument, reordered and renamed struct fields, another array
// length, a matching argument with another result, and an integer out
// of range for the receiver. The first such call takes one extra round
// trip, later ones none; a mismatch is refused before anything is
// counted; and a request in the registration's layout is served in it.
func TestValueLayoutFallback(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	var invokes atomic.Int64
	nodes := testCluster(t, 2, Config{Observer: func(e Event) {
		if e.Kind == EventInvoke {
			invokes.Add(1)
		}
	}})
	for _, n := range nodes {
		if err := n.RegisterType(newLayoutType()); err != nil {
			t.Fatal(err)
		}
	}
	host, caller := nodes[0], nodes[1]
	host.aff.SetEnabled(true)
	ref, err := host.Create("layouts")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the caller's location cache, so every round trip counted
	// below goes to the host.
	if _, err := Call[int64, int64](ctx, caller, ref, "Int64", 0); err != nil {
		t.Fatal(err)
	}

	type counts struct{ sent, served, events, access int64 }
	measure := func(call func(*Node) (any, error)) (any, error, counts) {
		before := counts{caller.Stats().RemoteCallsSent, host.Stats().InvocationsServed, invokes.Load(), host.aff.Load(ref.OID).Total}
		res, err := call(caller)
		return res, err, counts{caller.Stats().RemoteCallsSent - before.sent, host.Stats().InvocationsServed - before.served,
			invokes.Load() - before.events, host.aff.Load(ref.OID).Total - before.access}
	}
	for _, tc := range []struct {
		name  string
		call  legCalls
		want  any // nil when the call fails
		class string
	}{
		{"int32 for int64", legCall[int32, int32](ctx, ref, "Int64", 41), int32(42), "nil"},
		{"fields reordered", legCall[laySwapped, laySwapped](ctx, ref, "Pair", laySwapped{B: "b", A: 3}), laySwapped{B: "b!", A: 6}, "nil"},
		{"field renamed", legCall[layRenamed, layRenamed](ctx, ref, "Pair", layRenamed{A: 3, C: "c"}), layRenamed{A: 6}, "nil"},
		{"array length", legCall[[3]int, [3]int](ctx, ref, "Array4", [3]int{1, 2, 3}), nil, "other"},
		{"result differs", legCall[int64, int32](ctx, ref, "Int64", 41), int32(42), "nil"},
		{"out of range", legCall[int64, int64](ctx, ref, "Int32", 1<<40), nil, "other"},
	} {
		gobRes, gobErr, gobCounts := measure(tc.call.raw)
		for round := 0; round < 2; round++ {
			res, err, got := measure(tc.call.call)
			if errClass(err) != tc.class || errClass(gobErr) != tc.class {
				t.Errorf("%s, call %d: error classes %q (%v), gob leg %q (%v); want %q",
					tc.name, round+1, errClass(err), err, errClass(gobErr), gobErr, tc.class)
				continue
			}
			if !reflect.DeepEqual(res, gobRes) || tc.want != nil && !reflect.DeepEqual(res, tc.want) {
				t.Errorf("%s, call %d: %#v, gob leg %#v; want %#v", tc.name, round+1, res, gobRes, tc.want)
			}
			want := gobCounts
			if round == 0 {
				want.sent++ // the refused value layout
			}
			if got != want {
				t.Errorf("%s, call %d: counts %+v; want %+v (gob leg %+v)", tc.name, round+1, got, want, gobCounts)
			}
		}
	}

	// At the wire: a refused layout counts nothing, and the
	// registration's layout is served and answered in it.
	sig := sigOf[int64, int64]()
	for _, tc := range []struct {
		name   string
		layout uint64
		code   wire.ErrCode // 0 when served
	}{
		{"mismatch", sig.layout ^ 1, wire.CodeLayout},
		{"match", sig.layout, 0},
	} {
		arg := int64(41)
		req := &wire.InvokeReq{Obj: ref.OID, Method: "Int64", Arg: valcodec.Append(sig.arg, nil, &arg),
			From: caller.ID(), Layout: tc.layout}
		var resp wire.InvokeResp
		_, err, got := measure(func(n *Node) (any, error) {
			return nil, n.call(ctx, host.ID(), wire.KInvoke, req, &resp)
		})
		if tc.code != 0 {
			if !isCode(err, tc.code) {
				t.Errorf("%s: %v; want code %d", tc.name, err, tc.code)
			}
			if got != (counts{}) {
				t.Errorf("%s: counted %+v at the host; want nothing", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var res int64
		if err := valcodec.Decode(sig.res, resp.Result, &res); err != nil || res != 42 {
			t.Errorf("%s: result %d (%v) from %x; want 42 in the value layout", tc.name, res, err, resp.Result)
		}
		if got != (counts{served: 1, events: 1, access: 1}) {
			t.Errorf("%s: counts %+v; want one of each at the host", tc.name, got)
		}
	}
}

func TestValueSafe(t *testing.T) {
	t.Parallel()
	type nested struct {
		S legScalars
		A [2]string
	}
	type withPtr struct{ P *int }
	for _, tc := range []struct {
		v    any
		want bool
	}{
		{int8(0), true}, {uint64(0), true}, {complex64(0), true}, {"", true}, {Ref{}, true},
		{legScalars{}, true}, {nested{}, true}, {[0]int{}, true},
		{uintptr(0), false}, {[]int(nil), false}, {map[int]int(nil), false}, {withPtr{}, false},
		{legHidden{}, false}, {struct{}{}, false}, {[1]any{}, false}, {legGob{}, false},
		{time.Time{}, false}, // a TextMarshaler with unexported fields
		{[2]legGob{}, false}, {make(chan int), false},
	} {
		if got := valcodec.For(reflect.TypeOf(tc.v)) != nil; got != tc.want {
			t.Errorf("value-safe(%T) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
