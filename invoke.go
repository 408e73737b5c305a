package objmig

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/framebuf"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// InvokeRaw invokes a method with a pre-encoded argument (a gob image),
// chasing forwarding pointers and location hints until the object is
// found, and returns the result's gob image. Typed callers should
// prefer Call.
func (n *Node) InvokeRaw(ctx context.Context, ref Ref, method string, arg []byte) ([]byte, error) {
	out, _, frame, err := n.invoke(ctx, ref, method, nil, func(c *Ctx, inst interface{}, h handler) ([]byte, error) {
		return h.enc(c, inst, arg)
	}, func(uint64) ([]byte, error) { return arg, nil })
	if frame != nil {
		// A remote result lies in its response frame: the caller keeps
		// a copy, and the frame goes back to the pool.
		out = bytes.Clone(out)
		framebuf.Put(frame)
	}
	return out, err
}

// invoke routes one invocation of method on ref. An attempt that finds
// the record hosted here runs local under invokeLocal; any other attempt
// is one KInvoke to the host, carrying the argument image arg returns
// for a layout: the signature's value layout (layoutOf, asked on the
// first remote attempt; nil or 0 when there is none) unless this node
// has seen a host refuse it for method, the gob image otherwise. A host
// that refuses the value layout is asked again at once with the gob
// image, and the refusal is remembered. out is the encoded result of
// whichever leg answered (nil when local returned none), in outLayout:
// the value layout, or 0 for a gob image. A remote answer's out lies in
// its response frame, which invoke returns as frame (nil after a local
// answer or an error): the caller decodes out, then puts the frame
// back with framebuf.Put.
func (n *Node) invoke(ctx context.Context, ref Ref, method string, layoutOf func() uint64,
	local func(c *Ctx, inst interface{}, h handler) ([]byte, error),
	arg func(layout uint64) ([]byte, error)) (out []byte, outLayout uint64, frame []byte, err error) {

	if ref.IsZero() {
		return nil, 0, nil, fmt.Errorf("%w: zero reference", ErrNotFound)
	}
	oid := ref.OID
	layout, resolved := uint64(0), layoutOf == nil
	// The legs are spelled out instead of going through routed: the
	// local leg must not build (and heap-allocate) a wire request, and
	// the remote leg carries invoke's own accounting.
	_, err = n.route(ctx, oid, "invoke", func(rec *store.Record, host NodeID) (NodeID, error) {
		var err error
		if rec != nil {
			outLayout = 0
			out, err = n.invokeLocal(ctx, rec, n.id, method, 0, local)
			return "", err
		}
		if !resolved {
			resolved = true
			if layout = layoutOf(); layout != 0 && n.layoutRefused(layout, method) {
				layout = 0
			}
		}
		var at NodeID
		out, at, frame, err = n.invokeRemote(ctx, host, oid, method, layout, arg)
		if layout != 0 && isCode(err, wire.CodeLayout) {
			n.refuseLayout(layout, method)
			layout = 0
			out, at, frame, err = n.invokeRemote(ctx, host, oid, method, 0, arg)
		}
		outLayout = layout
		return at, err
	})
	return out, outLayout, frame, err
}

// invokeRemote sends one KInvoke to host with the argument image of
// layout and returns the result, the answering host and the response
// frame the result lies in (nil on error).
func (n *Node) invokeRemote(ctx context.Context, host NodeID, oid core.OID, method string, layout uint64,
	arg func(layout uint64) ([]byte, error)) ([]byte, NodeID, []byte, error) {

	b, err := arg(layout)
	if err != nil {
		return nil, "", nil, err
	}
	var resp wire.InvokeResp
	atomic.AddInt64(&n.stats.RemoteCallsSent, 1)
	hopStart := time.Now()
	frame, err := n.pool.CallView(ctx, n.addrOf(host), wire.KInvoke,
		&wire.InvokeReq{Obj: oid, Method: method, Arg: b, From: n.id, Layout: layout}, &resp)
	n.tel.invokeRemote.ObserveSince(hopStart)
	return resp.Result, resp.At, frame, err
}

// layoutKey names a signature layout a host refused for a method.
type layoutKey struct {
	layout uint64
	method string
}

// layoutRefused reports whether a host has refused layout for method:
// such calls go out as gob images from then on.
func (n *Node) layoutRefused(layout uint64, method string) bool {
	m := n.refused.Load()
	return m != nil && (*m)[layoutKey{layout, method}]
}

// refuseLayout records a refusal. The set is copy-on-write: it grows
// once per mismatched signature and is read on every call.
func (n *Node) refuseLayout(layout uint64, method string) {
	n.refusedMu.Lock()
	defer n.refusedMu.Unlock()
	next := make(map[layoutKey]bool)
	if m := n.refused.Load(); m != nil {
		maps.Copy(next, *m)
	}
	next[layoutKey{layout, method}] = true
	n.refused.Store(&next)
}

// isCode reports whether err is a RemoteError with the given code.
func isCode(err error, code wire.ErrCode) bool {
	if err == nil {
		return false
	}
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == code
}

// invokeLocal executes a method on a hosted object for a caller on
// node from, serialising invocations per object and waiting out
// migrations in progress. It is the one prologue of every leg: run gets
// the method's handler and calls whichever leg it can. A remote call
// whose argument came in a value layout (layout != 0) other than the
// registration's is refused with CodeLayout before it is counted.
func (n *Node) invokeLocal(ctx context.Context, rec *store.Record, from NodeID, method string, layout uint64,
	run func(c *Ctx, inst interface{}, h handler) ([]byte, error)) (out []byte, err error) {

	if err := rec.Acquire(ctx); err != nil {
		return nil, err
	}
	defer rec.Release()
	t, ok := n.typeByName(rec.TypeName)
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownType, "type %q not registered on %s", rec.TypeName, n.id)
	}
	h, ok := t.method(method)
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownMethod, "%s.%s", rec.TypeName, method)
	}
	if layout != 0 && layout != h.layout {
		return nil, wire.Errorf(wire.CodeLayout, "%s.%s: argument layout %x, registered %x", rec.TypeName, method, layout, h.layout)
	}
	// Attribute pressure only once the call is admitted: a record that
	// departed while the caller waited must not accumulate phantom
	// counts that would poison a later return of the object.
	n.aff.Record(rec.ID, from)
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("objmig: method %s.%s panicked: %v", rec.TypeName, method, r)
		}
	}()
	atomic.AddInt64(&n.stats.InvocationsServed, 1)
	n.emit(Event{Kind: EventInvoke, Obj: Ref{OID: rec.ID}, Outcome: method})
	c := &Ctx{ctx: ctx, node: n, self: Ref{OID: rec.ID}}
	defer n.tel.invokeLocal.ObserveSince(time.Now())
	return run(c, rec.Inst, h)
}

// handleInvoke serves a remote invocation, attributing the access to
// the calling node in the affinity tracker, and appends the encoded
// response to dst. It is handleTyped and onRecord spelled out, so the
// request and response bodies stay on its stack. The argument is read
// in place: both legs decode it before the handler returns, while its
// request frame is alive. A value-layout result is appended to a pooled
// buffer, recycled once the response is encoded.
func (n *Node) handleInvoke(ctx context.Context, body, dst []byte) ([]byte, error) {
	var req wire.InvokeReq
	if err := wire.UnmarshalView(body, &req); err != nil {
		return nil, wire.Errorf(wire.CodeBadRequest, "%v", err)
	}
	rec, ok := n.store.Get(req.Obj)
	if !ok {
		return nil, n.whereabouts(req.Obj)
	}
	out, err := n.invokeLocal(ctx, rec, req.From, req.Method, req.Layout, func(c *Ctx, inst interface{}, h handler) ([]byte, error) {
		if req.Layout != 0 {
			return h.value(c, inst, req.Arg, framebuf.Get(0))
		}
		return h.enc(c, inst, req.Arg)
	})
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return nil, re
		}
		return nil, wire.Errorf(wire.CodeInternal, "%v", err)
	}
	dst, err = wire.MarshalAppend(dst, &wire.InvokeResp{Result: out, At: n.id})
	if req.Layout != 0 {
		framebuf.Put(out)
	}
	return dst, err
}

// whereabouts builds the error for an object this node does not host:
// a redirect carrying the generation of the departure it reports (see
// store.Whereabouts), not-found when nothing here knows the object.
func (n *Node) whereabouts(oid core.OID) *wire.RemoteError {
	if to, gen, ok := n.store.Whereabouts(oid); ok {
		return &wire.RemoteError{Code: wire.CodeMoved, Msg: oid.String(), To: to, Gen: gen}
	}
	return wire.Errorf(wire.CodeNotFound, "object %s unknown at %s", oid, n.id)
}

// handleLocate serves a location query with authoritative knowledge
// only: hosting, the registry's (chain-shortened) forwarding pointer,
// or the origin's home index, each with its generation. Hearsay (cached
// hints) is never served — stale caches on bystander nodes would let
// location chases cycle.
func (n *Node) handleLocate(req *wire.LocateReq) (*wire.LocateResp, error) {
	if to, gen, ok := n.store.Whereabouts(req.Obj); ok {
		return &wire.LocateResp{At: to, Gen: gen}, nil
	}
	return nil, wire.Errorf(wire.CodeNotFound, "object %s unknown at %s", req.Obj, n.id)
}

// Locate resolves the node currently hosting the object by following
// hints and forwarding pointers. An answer naming another node is a
// redirect like any other: route learns it and asks there, until a host
// names itself.
func (n *Node) Locate(ctx context.Context, ref Ref) (NodeID, error) {
	return n.route(ctx, ref.OID, "locate", func(rec *store.Record, host NodeID) (NodeID, error) {
		if rec != nil {
			return "", nil
		}
		var resp wire.LocateResp
		if err := n.call(ctx, host, wire.KLocate, &wire.LocateReq{Obj: ref.OID}, &resp); err != nil {
			return "", err
		}
		if resp.At != host {
			return "", &wire.RemoteError{Code: wire.CodeMoved, Msg: ref.OID.String(), To: resp.At, Gen: resp.Gen}
		}
		return "", nil
	})
}
