package objmig

import (
	"context"

	"objmig/internal/store"
	"objmig/internal/wire"
)

// Fix makes the object sedentary at its current node: every subsequent
// move- and migrate-request is denied until Unfix (the fix() primitive
// of Section 2.2).
func (n *Node) Fix(ctx context.Context, ref Ref) error {
	_, err := n.fixRequest(ctx, "fix", &wire.FixReq{Obj: ref.OID, Fix: true})
	return err
}

// Unfix clears the fixed flag.
func (n *Node) Unfix(ctx context.Context, ref Ref) error {
	_, err := n.fixRequest(ctx, "fix", &wire.FixReq{Obj: ref.OID})
	return err
}

// Refix moves a fixed (or unfixed) object to a new node and fixes it
// there — the refix() primitive.
func (n *Node) Refix(ctx context.Context, ref Ref, target NodeID) error {
	_, err := n.migrateRequest(ctx, &wire.MigrateReq{
		Obj: ref.OID, Target: target, Alliance: NoAlliance, Fix: true,
	})
	return err
}

// IsFixed reports whether the object is currently fixed. The flag
// travels with the object's policy state, so the query chases the
// object to its current host.
func (n *Node) IsFixed(ctx context.Context, ref Ref) (bool, error) {
	resp, err := n.fixRequest(ctx, "fixed?", &wire.FixReq{Obj: ref.OID, Query: true})
	if err != nil {
		return false, err
	}
	return resp.Fixed, nil
}

// fixRequest delivers a fix, unfix or fixed-flag query at the object's
// host.
func (n *Node) fixRequest(ctx context.Context, op string, req *wire.FixReq) (*wire.FixResp, error) {
	resp, _, err := routed(ctx, n, req.Obj, op, wire.KFix, req, n.handleFix, nil)
	return resp, err
}

// handleFix serves fix/unfix and the fixed-flag query.
func (n *Node) handleFix(_ context.Context, rec *store.Record, req *wire.FixReq) (*wire.FixResp, error) {
	rec.Mu.Lock()
	defer rec.Mu.Unlock()
	if err := redirectLocked(rec); err != nil {
		return nil, err
	}
	if req.Query {
		return &wire.FixResp{Fixed: rec.Pol.Fixed}, nil
	}
	rec.Pol.Fixed = req.Fix
	outcome := "unfixed"
	if req.Fix {
		outcome = "fixed"
	}
	n.emit(Event{Kind: EventFix, Obj: Ref{OID: req.Obj}, Outcome: outcome})
	return &wire.FixResp{Fixed: rec.Pol.Fixed}, nil
}
