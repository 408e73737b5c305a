package objmig

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// InvokeRaw invokes a method with a pre-encoded argument, chasing
// forwarding pointers and location hints until the object is found.
// Typed callers should prefer Call.
func (n *Node) InvokeRaw(ctx context.Context, ref Ref, method string, arg []byte) ([]byte, error) {
	return n.invoke(ctx, ref, method, func(c *Ctx, inst interface{}, h handler) ([]byte, error) {
		return h.enc(c, inst, arg)
	}, func() ([]byte, error) { return arg, nil })
}

// invoke routes one invocation of method on ref. An attempt that finds
// the record hosted here runs local under invokeLocal; any other attempt
// is one KInvoke to the host, carrying the bytes arg returns. out is the
// encoded result of whichever leg answered (nil when local returned
// none).
func (n *Node) invoke(ctx context.Context, ref Ref, method string,
	local func(c *Ctx, inst interface{}, h handler) ([]byte, error),
	arg func() ([]byte, error)) (out []byte, err error) {

	if ref.IsZero() {
		return nil, fmt.Errorf("%w: zero reference", ErrNotFound)
	}
	oid := ref.OID
	// The legs are spelled out instead of going through routed: the
	// local leg must not build (and heap-allocate) a wire request, and
	// the remote leg carries invoke's own accounting.
	_, err = n.route(ctx, oid, "invoke", func(rec *store.Record, host NodeID) (NodeID, error) {
		if rec != nil {
			var err error
			out, err = n.invokeLocal(ctx, rec, n.id, method, local)
			return "", err
		}
		b, err := arg()
		if err != nil {
			return "", err
		}
		var resp wire.InvokeResp
		atomic.AddInt64(&n.stats.RemoteCallsSent, 1)
		hopStart := time.Now()
		err = n.call(ctx, host, wire.KInvoke,
			&wire.InvokeReq{Obj: oid, Method: method, Arg: b, From: n.id}, &resp)
		n.tel.invokeRemote.ObserveSince(hopStart)
		out = resp.Result
		return resp.At, err
	})
	return out, err
}

// isCode reports whether err is a RemoteError with the given code.
func isCode(err error, code wire.ErrCode) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == code
}

// invokeLocal executes a method on a hosted object for a caller on
// node from, serialising invocations per object and waiting out
// migrations in progress. It is the one prologue of both local legs:
// run gets the method's handler and calls whichever leg it can.
func (n *Node) invokeLocal(ctx context.Context, rec *store.Record, from NodeID, method string,
	run func(c *Ctx, inst interface{}, h handler) ([]byte, error)) (out []byte, err error) {

	if err := rec.Acquire(ctx); err != nil {
		return nil, err
	}
	defer rec.Release()
	// Attribute pressure only once the call is admitted: a record that
	// departed while the caller waited must not accumulate phantom
	// counts that would poison a later return of the object.
	n.aff.Record(rec.ID, from)
	t, ok := n.typeByName(rec.TypeName)
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownType, "type %q not registered on %s", rec.TypeName, n.id)
	}
	h, ok := t.method(method)
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownMethod, "%s.%s", rec.TypeName, method)
	}
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
// the calling node in the affinity tracker.
func (n *Node) handleInvoke(ctx context.Context, rec *store.Record, req *wire.InvokeReq) (*wire.InvokeResp, error) {
	out, err := n.invokeLocal(ctx, rec, req.From, req.Method, func(c *Ctx, inst interface{}, h handler) ([]byte, error) {
		return h.enc(c, inst, req.Arg)
	})
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return nil, re
		}
		return nil, wire.Errorf(wire.CodeInternal, "%v", err)
	}
	return &wire.InvokeResp{Result: out, At: n.id}, nil
}

// whereabouts builds the error for an object this node does not host:
// a redirect when anything points elsewhere, not-found otherwise.
func (n *Node) whereabouts(oid core.OID) *wire.RemoteError {
	if to, ok := n.store.Forward(oid); ok && to != n.id {
		return &wire.RemoteError{Code: wire.CodeMoved, Msg: oid.String(), To: to}
	}
	if oid.Origin == n.id {
		if at, ok := n.store.Home(oid); ok && at != n.id {
			return &wire.RemoteError{Code: wire.CodeMoved, Msg: oid.String(), To: at}
		}
	}
	// Double check: an installation may have landed between the
	// caller's record lookup and the forward lookup above (the record
	// appears before the forwarding pointer is cleared). Answer
	// "moved to me" so the caller simply retries here.
	if _, ok := n.store.Get(oid); ok {
		return &wire.RemoteError{Code: wire.CodeMoved, Msg: oid.String(), To: n.id}
	}
	return wire.Errorf(wire.CodeNotFound, "object %s unknown at %s", oid, n.id)
}

// handleLocate serves a location query with authoritative knowledge
// only: hosting, the registry's (chain-shortened) forwarding pointer,
// or the origin's home index. Hearsay (cached hints) is never served —
// stale caches on bystander nodes would let location chases cycle.
func (n *Node) handleLocate(req *wire.LocateReq) (*wire.LocateResp, error) {
	if _, ok := n.store.Get(req.Obj); ok {
		return &wire.LocateResp{At: n.id}, nil
	}
	if err := n.whereabouts(req.Obj); err.Code == wire.CodeMoved {
		return &wire.LocateResp{At: err.To}, nil
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
			return "", &wire.RemoteError{Code: wire.CodeMoved, Msg: ref.OID.String(), To: resp.At}
		}
		return "", nil
	})
}
