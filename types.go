// Package objmig is a distributed-object runtime with migration control
// for non-monolithic applications, reproducing "Object Migration in
// Non-Monolithic Distributed Applications" (Ciupke, Kottmann, Walter;
// ICDCS 1996).
//
// Nodes host objects whose state is a gob-encodable Go struct. Remote
// invocations are trapped, linearised and forwarded to the object's
// current location. Objects migrate under a configurable policy: the
// conventional Emerald-style move, the paper's transient placement, or
// the dynamic comparing strategies. Attachments keep working sets
// together, and alliances restrict their transitiveness so one
// component's migrations cannot silently drag another component's
// objects around.
package objmig

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"objmig/internal/core"
	"objmig/internal/framebuf"
	"objmig/internal/gobstream"
	"objmig/internal/valcodec"
)

// NodeID identifies a node. It aliases the policy-level identifier so
// no conversions are needed anywhere in the stack.
type NodeID = core.NodeID

// AllianceID identifies an alliance (a cooperation context).
type AllianceID = core.AllianceID

// NoAlliance labels moves and attachments issued outside any alliance.
const NoAlliance = core.NoAlliance

// PolicyKind selects the node's move-policy.
type PolicyKind = core.PolicyKind

// Move-policy kinds (see internal/core for semantics).
const (
	PolicySedentary            = core.PolicySedentary
	PolicyConventional         = core.PolicyConventional
	PolicyPlacement            = core.PolicyPlacement
	PolicyCompareNodes         = core.PolicyCompareNodes
	PolicyCompareReinstantiate = core.PolicyCompareReinstantiate
)

// AttachMode selects how transitive attachments are.
type AttachMode = core.AttachMode

// Attachment modes (see internal/core for semantics).
const (
	AttachUnrestricted = core.AttachUnrestricted
	AttachATransitive  = core.AttachATransitive
	AttachExclusive    = core.AttachExclusive
)

// Ref is a global reference to a distributed object. Refs are
// comparable, gob-encodable (they may be stored inside object state)
// and stable across migrations.
type Ref struct {
	OID core.OID // the object's cluster-unique identity (origin, seq)
}

// String renders the reference as origin/seq.
func (r Ref) String() string { return r.OID.String() }

// IsZero reports whether the Ref is the zero reference.
func (r Ref) IsZero() bool { return r.OID == core.OID{} }

// ParseRef parses the origin/seq form produced by Ref.String.
func ParseRef(s string) (Ref, error) {
	i := strings.LastIndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return Ref{}, fmt.Errorf("objmig: malformed ref %q (want origin/seq)", s)
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return Ref{}, fmt.Errorf("objmig: malformed ref %q: %w", s, err)
	}
	return Ref{OID: core.OID{Origin: NodeID(s[:i]), Seq: seq}}, nil
}

// Ctx is the environment passed to object methods: the request context
// plus the hosting node, so methods can make nested invocations and
// issue migration primitives.
type Ctx struct {
	ctx  context.Context
	node *Node
	self Ref
}

// Context returns the request context.
func (c *Ctx) Context() context.Context { return c.ctx }

// Node returns the node currently hosting the object.
func (c *Ctx) Node() *Node { return c.node }

// Self returns the reference of the object being invoked.
func (c *Ctx) Self() Ref { return c.self }

// methodFunc is the encoded leg of a registered method: argument and
// result travel as gob images.
type methodFunc func(c *Ctx, inst interface{}, arg []byte) ([]byte, error)

// localMethod is the typed leg of a registered method whose argument
// and result types are both value-safe (see HandleFunc): a collocated
// Call passes the argument and takes the result by value.
type localMethod[A, R any] func(c *Ctx, inst interface{}, arg A) (R, error)

// valueMethod is the value leg of the same methods: a remote call's
// argument arrives in the value layout (internal/valcodec), and the
// result is appended to dst in it.
type valueMethod func(c *Ctx, inst interface{}, arg, dst []byte) ([]byte, error)

// handler is one registered method: enc serves every caller that
// brings a gob image; local, when non-nil, is the localMethod[A, R] a
// collocated Call with exactly that A and R runs instead; value, when
// non-nil, serves a remote call whose argument came in the value
// layout with fingerprint layout.
type handler struct {
	enc    methodFunc
	local  interface{}
	value  valueMethod
	layout uint64
}

// objectType is the erased view of Type[S] the node works with.
type objectType interface {
	Name() string
	newInstance() interface{}
	method(name string) (handler, bool)
	encodeState(inst interface{}) ([]byte, error)
	decodeState(data []byte) (interface{}, error)
}

// Type describes a registrable object type whose state is S. S must be
// a gob-encodable struct (exported fields carry the state).
type Type[S any] struct {
	name    string
	methods map[string]handler
	state   *gobstream.Stream
}

// streamOf returns the reusable gob codec of T: object state, and the
// arguments and results of every signature that is not value-safe or
// meets a host whose layout differs, travel as plain-gob images, but
// the encoders and decoders behind them are compiled once per type,
// not per message.
func streamOf[T any]() *gobstream.Stream {
	return gobstream.For(reflect.TypeOf((*T)(nil)))
}

// valueSig is the value layout of a signature whose argument and
// result types are both value-safe.
type valueSig struct {
	arg, res *valcodec.Codec
	layout   uint64 // valcodec.Pair(arg, res): what InvokeReq.Layout carries
}

// sigKey names one (A, R) instantiation, so the signature cache is
// keyed by a single type.
type sigKey[A, R any] struct{}

var sigs sync.Map // reflect.Type of sigKey[A, R] → *valueSig, nil when A or R is not value-safe

// sigOf returns the value layout of (A, R), or nil when the signature
// is not value-safe.
func sigOf[A, R any]() *valueSig {
	k := reflect.TypeOf((*sigKey[A, R])(nil))
	if s, ok := sigs.Load(k); ok {
		return s.(*valueSig)
	}
	var sig *valueSig
	a := valcodec.For(reflect.TypeOf((*A)(nil)).Elem())
	r := valcodec.For(reflect.TypeOf((*R)(nil)).Elem())
	if a != nil && r != nil {
		sig = &valueSig{arg: a, res: r, layout: valcodec.Pair(a, r)}
	}
	s, _ := sigs.LoadOrStore(k, sig)
	return s.(*valueSig)
}

var _ objectType = (*Type[struct{}])(nil)

// NewType declares an object type under the given name. Register it
// with Node.RegisterType on every node that may host instances.
func NewType[S any](name string) *Type[S] {
	return &Type[S]{name: name, methods: make(map[string]handler), state: streamOf[S]()}
}

// Name returns the registered type name.
func (t *Type[S]) Name() string { return t.name }

func (t *Type[S]) newInstance() interface{} { return new(S) }

func (t *Type[S]) method(name string) (handler, bool) {
	m, ok := t.methods[name]
	return m, ok
}

func (t *Type[S]) encodeState(inst interface{}) ([]byte, error) {
	s, ok := inst.(*S)
	if !ok {
		return nil, fmt.Errorf("objmig: type %s: instance is %T", t.name, inst)
	}
	data, err := t.state.AppendEncode(nil, s)
	if err != nil {
		return nil, fmt.Errorf("objmig: linearise %s: %w", t.name, err)
	}
	return data, nil
}

func (t *Type[S]) decodeState(data []byte) (interface{}, error) {
	s := new(S)
	if err := t.state.Decode(data, s); err != nil {
		return nil, fmt.Errorf("objmig: reinstall %s: %w", t.name, err)
	}
	return s, nil
}

// HandleFunc registers a method on the type; methods execute one at a
// time per object (objects are monitors). The method always sees a
// copy of the argument: slices and maps are fresh, unexported fields
// are zero. How the copy is made depends on the signature. A and R are
// value-safe when they are bool, sized integers, floats, complex
// numbers and strings, arrays of value-safe types, or structs of at
// least one field whose fields are all exported and value-safe — none
// of them with custom gob, binary or text marshalling; for such types
// a Go copy is all gob would make. A collocated Call of a value-safe
// signature passes argument and result by value and encodes nothing,
// and a remote one carries them in the value layout (internal/valcodec)
// instead of gob. Every other signature, and a remote caller whose
// layout differs from this registration's, uses gob images.
func HandleFunc[S, A, R any](t *Type[S], name string, fn func(c *Ctx, s *S, arg A) (R, error)) {
	if _, dup := t.methods[name]; dup {
		panic(fmt.Sprintf("objmig: method %s.%s registered twice", t.name, name))
	}
	instance := func(inst interface{}) (*S, error) {
		s, ok := inst.(*S)
		if !ok {
			return nil, fmt.Errorf("objmig: %s.%s: instance is %T", t.name, name, inst)
		}
		return s, nil
	}
	args, results := streamOf[A](), streamOf[R]()
	h := handler{enc: func(c *Ctx, inst interface{}, argBytes []byte) ([]byte, error) {
		s, err := instance(inst)
		if err != nil {
			return nil, err
		}
		var arg A
		if err := args.Decode(argBytes, &arg); err != nil {
			return nil, fmt.Errorf("objmig: %s.%s: decode argument: %w", t.name, name, err)
		}
		res, err := fn(c, s, arg)
		if err != nil {
			return nil, err
		}
		out, err := results.AppendEncode(nil, &res)
		if err != nil {
			return nil, fmt.Errorf("objmig: %s.%s: encode result: %w", t.name, name, err)
		}
		return out, nil
	}}
	if sig := sigOf[A, R](); sig != nil {
		h.local = localMethod[A, R](func(c *Ctx, inst interface{}, arg A) (R, error) {
			s, err := instance(inst)
			if err != nil {
				var zero R
				return zero, err
			}
			return fn(c, s, arg)
		})
		h.value = func(c *Ctx, inst interface{}, argBytes, dst []byte) ([]byte, error) {
			s, err := instance(inst)
			if err != nil {
				return nil, err
			}
			var arg A
			if err := valcodec.Decode(sig.arg, argBytes, &arg); err != nil {
				return nil, fmt.Errorf("objmig: %s.%s: decode argument: %w", t.name, name, err)
			}
			res, err := fn(c, s, arg)
			if err != nil {
				return nil, err
			}
			return valcodec.Append(sig.res, dst, &res), nil
		}
		h.layout = sig.layout
	}
	t.methods[name] = h
}

// Call invokes a method on a (possibly remote) object and returns its
// result. It is the typed client-side counterpart of HandleFunc. When
// A and R are value-safe (see HandleFunc) and the method was
// registered with exactly this A and R, a call on an object hosted on n
// is a procedure call under the object's monitor: arg is passed and the
// result returned by value, nothing is encoded. A remote call of a
// value-safe signature carries arg and the result in the value layout;
// a host whose registration has another layout answers so before
// running anything, and Call re-sends the gob image to it and keeps
// using gob for this (A, R, method) from n. Every other call encodes
// the argument as a gob image once, on the first attempt that needs
// it, and decodes the result, so gob's conversions (an int32 argument
// for an int64 parameter, say) keep working.
func Call[A, R any](ctx context.Context, n *Node, ref Ref, method string, arg A) (R, error) {
	var zero, res R
	typed := false
	// The signature's value layout is looked up only when an attempt
	// goes remote: a collocated call needs none.
	var sig *valueSig
	layoutOf := func() uint64 {
		if sig = sigOf[A, R](); sig != nil {
			return sig.layout
		}
		return 0
	}
	var img []byte // a pooled scratch buffer
	var imgLayout uint64
	encoded := false // img holds the image in imgLayout
	image := func(layout uint64) ([]byte, error) {
		if encoded && imgLayout == layout {
			return img, nil
		}
		if img == nil {
			img = framebuf.Get(0)
		}
		encoded = false
		if layout != 0 {
			img = valcodec.Append(sig.arg, img[:0], &arg)
		} else {
			b, err := encodeArg(img[:0], arg)
			if err != nil {
				return nil, err
			}
			img = b
		}
		imgLayout, encoded = layout, true
		return img, nil
	}
	out, outLayout, frame, err := n.invoke(ctx, ref, method, layoutOf, func(c *Ctx, inst interface{}, h handler) ([]byte, error) {
		if f, ok := h.local.(localMethod[A, R]); ok {
			r, err := f(c, inst, arg)
			res, typed = r, err == nil
			return nil, err
		}
		b, err := image(0)
		if err != nil {
			return nil, err
		}
		return h.enc(c, inst, b)
	}, image)
	// The scratch buffer is done with: a frame has copied it, or the
	// method has decoded it. A remote result is decoded out of its
	// response frame, which goes back to the pool after that.
	framebuf.Put(img)
	defer framebuf.Put(frame)
	switch {
	case err != nil:
		return zero, err
	case typed:
		return res, nil
	case outLayout != 0:
		if err := valcodec.Decode(sig.res, out, &res); err != nil {
			return zero, fmt.Errorf("objmig: decode result: %w", err)
		}
		return res, nil
	}
	return decodeResult[R](out)
}

// encodeArg and decodeResult hold the only pointers to a Call's
// argument and result that gob sees: their own copies, so Call's arg
// and res stay on its stack when the typed or the value leg runs.
func encodeArg[A any](dst []byte, arg A) ([]byte, error) {
	b, err := streamOf[A]().AppendEncode(dst, &arg)
	if err != nil {
		return nil, fmt.Errorf("objmig: encode argument: %w", err)
	}
	return b, nil
}

func decodeResult[R any](data []byte) (R, error) {
	var res R
	if err := streamOf[R]().Decode(data, &res); err != nil {
		var zero R
		return zero, fmt.Errorf("objmig: decode result: %w", err)
	}
	return res, nil
}

// NestedCall is Call for use inside object methods: it derives the
// request context from the method's Ctx. Call's value rules apply, so
// a nested call of a value-safe signature is a procedure call on an
// object hosted alongside the caller's and carries the value layout to
// any other.
func NestedCall[A, R any](c *Ctx, ref Ref, method string, arg A) (R, error) {
	return Call[A, R](c.ctx, c.node, ref, method, arg)
}
