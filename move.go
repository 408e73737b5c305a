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

// Block is the handle a move-block body receives: whether the move was
// granted, where the object is, and which objects travelled.
type Block struct {
	// Ref is the object the block was opened on.
	Ref Ref
	// Granted reports whether the move brought the object here. When
	// false the block still runs; its calls are forwarded to the
	// object's current location (the paper's "indication").
	Granted bool
	// At is the object's location after the move-request.
	At NodeID
	// Moved lists the working set that travelled with the object.
	Moved []Ref

	alliance AllianceID
	id       core.BlockID
	prevAt   NodeID
}

// Move opens a move-block on ref outside any alliance: it issues the
// move-request, runs body, and closes the block with an end-request.
// The body runs whether or not the move was granted.
func (n *Node) Move(ctx context.Context, ref Ref, body func(ctx context.Context, b *Block) error) error {
	return n.moveBlock(ctx, NoAlliance, ref, body, false)
}

// MoveIn is Move issued inside an alliance: with A-transitive
// attachment, only the alliance's attachments travel.
func (n *Node) MoveIn(ctx context.Context, al AllianceID, ref Ref, body func(ctx context.Context, b *Block) error) error {
	return n.moveBlock(ctx, al, ref, body, false)
}

// Visit is a move combined with a migrate-back: when the block ends,
// the object returns to the node it came from (Section 2.3).
func (n *Node) Visit(ctx context.Context, ref Ref, body func(ctx context.Context, b *Block) error) error {
	return n.moveBlock(ctx, NoAlliance, ref, body, true)
}

func (n *Node) moveBlock(ctx context.Context, al AllianceID, ref Ref,
	body func(ctx context.Context, b *Block) error, visit bool) error {

	block := n.nextBlock()
	resp, prevAt, err := n.moveRequest(ctx, &wire.MoveReq{
		Obj: ref.OID, From: n.id, Block: block, Alliance: al,
	})
	if err != nil {
		return err
	}
	b := &Block{
		Ref:      ref,
		Granted:  resp.Outcome != wire.MoveDenied,
		At:       resp.At,
		alliance: al,
		id:       block,
		prevAt:   prevAt,
	}
	for _, oid := range resp.Moved {
		b.Moved = append(b.Moved, Ref{OID: oid})
	}

	bodyErr := body(ctx, b)

	if endErr := n.endBlock(ctx, ref, al, block, resp.Moved); endErr != nil && bodyErr == nil {
		bodyErr = endErr
	}
	if visit && b.Granted && b.prevAt != "" && b.prevAt != n.id {
		if migErr := n.MigrateIn(ctx, al, ref, b.prevAt); migErr != nil && bodyErr == nil {
			bodyErr = fmt.Errorf("objmig: visit return: %w", migErr)
		}
	}
	return bodyErr
}

// moveRequest delivers the move-request at the object's current host and
// reports the responder — the object's previous host — with its reply.
func (n *Node) moveRequest(ctx context.Context, req *wire.MoveReq) (*wire.MoveResp, NodeID, error) {
	return routed(ctx, n, req.Obj, "move", wire.KMove, req, n.handleMove,
		func(r *wire.MoveResp) NodeID { return r.At })
}

// handleMove interprets a move-request at the object's current host —
// the run-time support of paper Fig. 3. Under conventional migration a
// busy working set is retried (the thrash the paper analyses); under
// transient placement it denies immediately.
func (n *Node) handleMove(ctx context.Context, rec *store.Record, req *wire.MoveReq) (*wire.MoveResp, error) {
	const (
		busyRetries = 50
		busyBackoff = 2 * time.Millisecond
	)
	for attempt := 0; ; attempt++ {
		resp, retry, err := n.tryMove(ctx, rec, req)
		if !retry {
			return resp, err
		}
		if attempt >= busyRetries || ctx.Err() != nil {
			return nil, wire.Errorf(wire.CodeDenied, "working set of %s stayed busy", req.Obj)
		}
		select {
		case <-ctx.Done():
			return nil, wire.Errorf(wire.CodeDenied, "working set of %s stayed busy", req.Obj)
		case <-time.After(busyBackoff):
		}
		// The object may have left and come back while we waited; the
		// next attempt must judge the record that is in the table now.
		var ok bool
		if rec, ok = n.record(req.Obj); !ok {
			return nil, n.whereabouts(req.Obj)
		}
	}
}

// tryMove performs one move attempt. retry=true means the working set
// was busy under a policy that should chase it (conventional and the
// dynamic strategies).
func (n *Node) tryMove(ctx context.Context, rec *store.Record, req *wire.MoveReq) (_ *wire.MoveResp, retry bool, _ error) {
	coreReq := core.MoveRequest{From: req.From, Block: req.Block}

	rec.Mu.Lock()
	if rec.Status == store.StatusGone {
		to := rec.MovedTo
		rec.Mu.Unlock()
		return nil, false, &wire.RemoteError{Code: wire.CodeMoved, Msg: req.Obj.String(), To: to}
	}
	if rec.Status == store.StatusPaused {
		// Another migration is in flight. Placement denies (the
		// object is spoken for); the chasing policies wait.
		rec.Mu.Unlock()
		if n.policy.Kind() == core.PolicyPlacement {
			return &wire.MoveResp{Outcome: wire.MoveDenied, Reason: core.ReasonLocked, At: n.id}, false, nil
		}
		return nil, true, nil
	}
	dec := n.policy.OnMove(&rec.Pol, n.id, coreReq)
	rec.Mu.Unlock()

	if dec.Action == core.ActionDeny {
		atomic.AddInt64(&n.stats.MovesDenied, 1)
		n.emit(Event{Kind: EventMoveDecision, Obj: Ref{OID: req.Obj}, Target: req.From, Outcome: "denied"})
		return &wire.MoveResp{Outcome: wire.MoveDenied, Reason: dec.Reason, At: n.id}, false, nil
	}

	// Granted: collocate the working set at the caller.
	members, err := n.closureOf(ctx, req.Obj, req.Alliance)
	if err != nil {
		n.moveAbort(rec, coreReq)
		return nil, false, wire.Errorf(wire.CodeInternal, "%v", err)
	}
	placement := n.policy.Kind() == core.PolicyPlacement
	admit := func(s *wire.Snapshot) error {
		lockedByOther := s.Pol.Lock.Held &&
			(s.Pol.Lock.Owner != req.From || s.Pol.Lock.Block != req.Block)
		if lockedByOther {
			return wire.Errorf(wire.CodeDenied, "working-set member %s is placed", s.ID)
		}
		if s.Pol.Fixed && s.ID != req.Obj {
			return wire.Errorf(wire.CodeFixed, "working-set member %s is fixed", s.ID)
		}
		return nil
	}
	var mutate func(*wire.Snapshot)
	if placement {
		mutate = func(s *wire.Snapshot) {
			s.Pol.Lock = core.LockState{Held: true, Owner: req.From, Block: req.Block}
		}
	}
	moved, err := n.migrateGroup(ctx, members, req.From, req.Obj, admit, mutate, n.nextTrace())
	if err != nil {
		n.moveAbort(rec, coreReq)
		if isCode(err, wire.CodeDenied) {
			if placement {
				return &wire.MoveResp{Outcome: wire.MoveDenied, Reason: core.ReasonLocked, At: n.id}, false, nil
			}
			return nil, true, nil // busy working set: chase it
		}
		if memberRaced(err) {
			// A member migrated (or its old host forgot it) between the
			// closure walk and its pause. The next attempt re-walks the
			// closure against fresh location knowledge.
			return nil, true, nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return nil, false, re
		}
		return nil, false, wire.Errorf(wire.CodeInternal, "%v", err)
	}
	outcome := wire.MoveMigrated
	name := "granted"
	if dec.Action == core.ActionStay {
		outcome = wire.MoveStayed
		name = "stayed"
		atomic.AddInt64(&n.stats.MovesStayed, 1)
	} else {
		atomic.AddInt64(&n.stats.MovesGranted, 1)
	}
	n.emit(Event{Kind: EventMoveDecision, Obj: Ref{OID: req.Obj}, Target: req.From, Outcome: name})
	return &wire.MoveResp{Outcome: outcome, At: req.From, Moved: moved}, false, nil
}

// moveAbort undoes the policy effects of a granted move whose transfer
// failed.
func (n *Node) moveAbort(rec *store.Record, req core.MoveRequest) {
	rec.Mu.Lock()
	n.policy.Abort(&rec.Pol, req)
	rec.Mu.Unlock()
}

// endBlock closes a move-block. Following the paper, the end-request
// is a local operation for the conventional and placement policies (the
// winner holds the objects locally; the loser's end is a no-op). Only
// the dynamic strategies forward it to the object, since their counters
// must stay consistent (Section 3.3's extra cost).
func (n *Node) endBlock(ctx context.Context, ref Ref, al AllianceID, block core.BlockID, members []core.OID) error {
	req := &wire.EndReq{Obj: ref.OID, From: n.id, Block: block, Alliance: al, Members: members}
	kind := n.policy.Kind()
	dynamic := kind == core.PolicyCompareNodes || kind == core.PolicyCompareReinstantiate
	if !dynamic {
		if rec, ok := n.hostedRecord(ref.OID); ok {
			_, err := n.handleEnd(ctx, rec, req)
			return fromRemote(err)
		}
		return nil // the paper's "the end-request is simply ignored"
	}
	// Dynamic policies: chase the object.
	_, _, err := routed(ctx, n, ref.OID, "end", wire.KEnd, req, n.handleEnd, nil)
	return err
}

// handleEnd processes an end-request at the object's host: release the
// block's group locks and, under comparing-and-reinstantiation, migrate
// towards a clear majority of open move-requests.
func (n *Node) handleEnd(ctx context.Context, rec *store.Record, req *wire.EndReq) (*wire.EndResp, error) {
	rec.Mu.Lock()
	if rec.Status == store.StatusGone {
		to := rec.MovedTo
		rec.Mu.Unlock()
		return nil, &wire.RemoteError{Code: wire.CodeMoved, Msg: req.Obj.String(), To: to}
	}
	coreEnd := core.EndRequest{From: req.From, Block: req.Block}
	dec := n.policy.OnEnd(&rec.Pol, n.id, coreEnd)
	rec.Mu.Unlock()
	atomic.AddInt64(&n.stats.EndRequests, 1)
	endOutcome := "noop"
	if dec.Unlocked {
		endOutcome = "unlocked"
	}
	if dec.Migrate {
		endOutcome = "reinstantiate"
	}
	n.emit(Event{Kind: EventEnd, Obj: Ref{OID: req.Obj}, Target: dec.MigrateTo, Outcome: endOutcome})

	resp := &wire.EndResp{Unlocked: dec.Unlocked, At: n.id}

	// Release the rest of the working set's group locks: exactly the
	// members the move granted (req.Members), not the closure as it
	// looks now — attachments may have changed while the block ran,
	// and recomputing would leak locks on departed members. After a
	// granted placement move the whole set lives on this node.
	if dec.Unlocked {
		for _, oid := range req.Members {
			if oid == req.Obj {
				continue
			}
			if mrec, ok := n.hostedRecord(oid); ok {
				mrec.Mu.Lock()
				n.policy.OnEnd(&mrec.Pol, n.id, coreEnd)
				mrec.Mu.Unlock()
			}
		}
	}

	if dec.Migrate {
		// Reinstantiation: hand the object to the majority. Run in
		// the background; the end-request itself stays local/cheap.
		target := dec.MigrateTo
		obj := req.Obj
		al := req.Alliance
		n.spawn(func() {
			mctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if members, err := n.closureOf(mctx, obj, al); err == nil {
				_, _ = n.migrateGroup(mctx, members, target, obj, nil, nil, n.nextTrace())
			}
		})
		resp.Migrated = true
		resp.At = target
	}
	return resp, nil
}
