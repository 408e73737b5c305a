package objmig

import (
	"context"
	"fmt"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// Attach keeps a and b together from now on: whenever either object
// migrates, the other travels with it (Section 2.2, "the system
// guarantees that attached objects are kept together until they are
// explicitly detached"). The edge is labelled with the alliance so
// A-transitive systems can scope its transitivity; use NoAlliance for a
// context-free attachment.
//
// Attach does not collocate the objects immediately (they meet at the
// next migration of either); call CollocateNow for eager collocation.
func (n *Node) Attach(ctx context.Context, a, b Ref, al AllianceID) error {
	if a == b {
		return fmt.Errorf("objmig: cannot attach %s to itself", a)
	}
	if err := n.edgeAdd(ctx, a.OID, b.OID, al); err != nil {
		return err
	}
	if err := n.edgeAdd(ctx, b.OID, a.OID, al); err != nil {
		// Roll the first half back so the edge is all-or-nothing.
		_ = n.edgeDel(ctx, a.OID, b.OID, al)
		return err
	}
	return nil
}

// Detach removes the attachment of a and b in the given alliance.
func (n *Node) Detach(ctx context.Context, a, b Ref, al AllianceID) error {
	err1 := n.edgeDel(ctx, a.OID, b.OID, al)
	err2 := n.edgeDel(ctx, b.OID, a.OID, al)
	if err1 != nil {
		return err1
	}
	return err2
}

// CollocateNow migrates b's working set to wherever a currently lives.
// Use it after Attach when the working set should be assembled eagerly.
func (n *Node) CollocateNow(ctx context.Context, a, b Ref) error {
	return n.MigrateToObject(ctx, b, a)
}

// Attached reports whether a and b are attached in the given alliance.
func (n *Node) Attached(ctx context.Context, a, b Ref, al AllianceID) (bool, error) {
	edges, _, err := n.edgesOf(ctx, a.OID)
	if err != nil {
		return false, err
	}
	for _, e := range edges {
		if e.Other == b.OID && e.Alliance == al {
			return true, nil
		}
	}
	return false, nil
}

// WorkingSet returns the objects that would migrate together with ref
// for a primitive issued in the given alliance — the closure of
// Section 3.4.
func (n *Node) WorkingSet(ctx context.Context, ref Ref, al AllianceID) ([]Ref, error) {
	members, err := n.closureOf(ctx, ref.OID, al)
	if err != nil {
		return nil, err
	}
	out := make([]Ref, 0, len(members))
	for _, oid := range sortedOIDs(members) {
		out = append(out, Ref{OID: oid})
	}
	return out, nil
}

// edgeAdd records half an attachment at the host of obj.
func (n *Node) edgeAdd(ctx context.Context, obj, other core.OID, al core.AllianceID) error {
	req := &wire.EdgeAddReq{Obj: obj, Other: other, Alliance: al, Mode: n.attachMode}
	_, _, err := routed(ctx, n, obj, "attach", wire.KEdgeAdd, req, n.handleEdgeAdd, nil)
	return err
}

// edgeDel removes half an attachment at the host of obj.
func (n *Node) edgeDel(ctx context.Context, obj, other core.OID, al core.AllianceID) error {
	req := &wire.EdgeDelReq{Obj: obj, Other: other, Alliance: al}
	_, _, err := routed(ctx, n, obj, "detach", wire.KEdgeDel, req, n.handleEdgeDel, nil)
	return err
}

// handleEdgeAdd applies the attachment admission rule for the local
// endpoint and records the half-edge. The check and the mutation run
// atomically against the record, waiting out in-flight migrations.
func (n *Node) handleEdgeAdd(ctx context.Context, rec *store.Record, req *wire.EdgeAddReq) (*wire.EdgeAddResp, error) {
	if req.Obj == req.Other {
		return nil, wire.Errorf(wire.CodeBadRequest, "self-attachment of %s", req.Obj)
	}
	err := rec.EdgeOp(ctx, func() *wire.RemoteError {
		// Each endpoint enforces its own degree constraint; the
		// two-phase Attach gives the exclusive rule both sides.
		if !core.AdmitAttachRule(n.attachMode, req.Obj, req.Other,
			rec.DegreeLocked(), 0, rec.PairedWithLocked(req.Other)) {
			return wire.Errorf(wire.CodeExclusive,
				"%s already has an attachment partner", req.Obj)
		}
		rec.AddEdgeLocked(req.Other, req.Alliance)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n.emit(Event{Kind: EventAttach, Obj: Ref{OID: req.Obj}, Outcome: "attached"})
	return &wire.EdgeAddResp{}, nil
}

// handleEdgeDel removes the half-edge, atomically against the record.
func (n *Node) handleEdgeDel(ctx context.Context, rec *store.Record, req *wire.EdgeDelReq) (*wire.EdgeDelResp, error) {
	existed := false
	err := rec.EdgeOp(ctx, func() *wire.RemoteError {
		existed = rec.DelEdgeLocked(req.Other, req.Alliance)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.EdgeDelResp{Existed: existed}, nil
}

// handleEdges serves the adjacency of a hosted object. Like an edge
// mutation it waits out a migration pause and is redirected once the
// object has left, so a closure walk parks on a member another
// migration holds — holding no pause itself — and follows it if that
// migration commits.
func (n *Node) handleEdges(ctx context.Context, rec *store.Record, req *wire.EdgesReq) (*wire.EdgesResp, error) {
	var edges []wire.EdgeRec
	err := rec.EdgeOp(ctx, func() *wire.RemoteError {
		edges = rec.EdgeListLocked()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.EdgesResp{Edges: edges}, nil
}
