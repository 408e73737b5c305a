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

	"objmig/internal/core"
	"objmig/internal/framebuf"
	"objmig/internal/gobstream"
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

// methodFunc is the erased form of a registered method.
type methodFunc func(c *Ctx, inst interface{}, arg []byte) ([]byte, error)

// objectType is the erased view of Type[S] the node works with.
type objectType interface {
	Name() string
	newInstance() interface{}
	method(name string) (methodFunc, bool)
	encodeState(inst interface{}) ([]byte, error)
	decodeState(data []byte) (interface{}, error)
}

// Type describes a registrable object type whose state is S. S must be
// a gob-encodable struct (exported fields carry the state).
type Type[S any] struct {
	name    string
	methods map[string]methodFunc
	state   *gobstream.Stream
}

// streamOf returns the reusable gob codec of T: arguments, results and
// object state travel as plain-gob images, but the encoders and
// decoders behind them are compiled once per type, not per message.
func streamOf[T any]() *gobstream.Stream {
	return gobstream.For(reflect.TypeOf((*T)(nil)))
}

var _ objectType = (*Type[struct{}])(nil)

// NewType declares an object type under the given name. Register it
// with Node.RegisterType on every node that may host instances.
func NewType[S any](name string) *Type[S] {
	return &Type[S]{name: name, methods: make(map[string]methodFunc), state: streamOf[S]()}
}

// Name returns the registered type name.
func (t *Type[S]) Name() string { return t.name }

func (t *Type[S]) newInstance() interface{} { return new(S) }

func (t *Type[S]) method(name string) (methodFunc, bool) {
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

// HandleFunc registers a method on the type. The argument and result
// are gob-encoded across the wire; methods execute one at a time per
// object (objects are monitors).
func HandleFunc[S, A, R any](t *Type[S], name string, fn func(c *Ctx, s *S, arg A) (R, error)) {
	if _, dup := t.methods[name]; dup {
		panic(fmt.Sprintf("objmig: method %s.%s registered twice", t.name, name))
	}
	args, results := streamOf[A](), streamOf[R]()
	t.methods[name] = func(c *Ctx, inst interface{}, argBytes []byte) ([]byte, error) {
		s, ok := inst.(*S)
		if !ok {
			return nil, fmt.Errorf("objmig: %s.%s: instance is %T", t.name, name, inst)
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
	}
}

// Call invokes a method on a (possibly remote) object and decodes its
// result. It is the typed client-side counterpart of HandleFunc.
func Call[A, R any](ctx context.Context, n *Node, ref Ref, method string, arg A) (R, error) {
	var zero R
	// The encoded argument lives in a pooled scratch buffer: InvokeRaw
	// has copied it into a frame, or the method has decoded it, by the
	// time it returns.
	argBytes, err := streamOf[A]().AppendEncode(framebuf.Get(0), &arg)
	if err != nil {
		framebuf.Put(argBytes) // the scratch buffer, unchanged
		return zero, fmt.Errorf("objmig: encode argument: %w", err)
	}
	resBytes, err := n.InvokeRaw(ctx, ref, method, argBytes)
	framebuf.Put(argBytes)
	if err != nil {
		return zero, err
	}
	var res R
	if err := streamOf[R]().Decode(resBytes, &res); err != nil {
		return zero, fmt.Errorf("objmig: decode result: %w", err)
	}
	return res, nil
}

// NestedCall is Call for use inside object methods: it derives the
// request context from the method's Ctx.
func NestedCall[A, R any](c *Ctx, ref Ref, method string, arg A) (R, error) {
	return Call[A, R](c.ctx, c.node, ref, method, arg)
}
