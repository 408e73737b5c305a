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
		Ref:     ref,
		Granted: resp.Outcome != wire.MoveDenied,
		At:      resp.At,
		Moved:   oidRefs(resp.Moved),
	}

	bodyErr := body(ctx, b)

	if endErr := n.endBlock(ctx, ref, al, block, resp.Moved); endErr != nil && bodyErr == nil {
		bodyErr = endErr
	}
	if visit && b.Granted && prevAt != "" && prevAt != n.id {
		if migErr := n.MigrateIn(ctx, al, ref, prevAt); migErr != nil && bodyErr == nil {
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
// the run-time support of paper Fig. 3. The policy judges the request
// exactly once (the comparing strategies count it when they do); only
// the transfer it grants is retried. Under conventional migration and
// the dynamic strategies a root that another migration holds is waited
// out (the thrash the paper analyses); under transient placement it is
// denied immediately.
func (n *Node) handleMove(ctx context.Context, rec *store.Record, req *wire.MoveReq) (*wire.MoveResp, error) {
	coreReq := core.MoveRequest{From: req.From, Block: req.Block}
	placement := n.policy.Kind() == core.PolicyPlacement

	// A root paused by another migration is spoken for: placement denies
	// at once, the other policies park on the record until that
	// migration ends — its commit answers with the redirect, its abort or
	// expired lease resumes the object — so the pause lease bounds the
	// wait.
	var dec core.MoveDecision
	err := rec.Await(ctx, func() (bool, error) {
		if rec.Status == store.StatusPaused {
			dec = core.MoveDecision{Action: core.ActionDeny, Reason: core.ReasonLocked}
			return placement, nil
		}
		if err := redirectLocked(rec); err != nil {
			return true, err
		}
		dec = n.policy.OnMove(&rec.Pol, n.id, coreReq)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if dec.Action == core.ActionDeny {
		return n.deny(req, dec.Reason), nil
	}

	// Granted: collocate the working set at the caller; a placement
	// block's lock goes onto every member.
	moved, err := n.relocate(ctx, relocation{
		root: req.Obj, alliance: req.Alliance, target: req.From, trace: n.nextTrace(),
		lock: core.LockState{Held: placement, Owner: req.From, Block: req.Block},
	})
	if err != nil {
		rec.Mu.Lock()
		n.policy.Abort(&rec.Pol, coreReq) // undo the grant's policy effects
		rec.Mu.Unlock()
		if placement && isCode(err, wire.CodeDenied) {
			return n.deny(req, core.ReasonLocked), nil
		}
		return nil, err
	}
	outcome, name, count := wire.MoveMigrated, "granted", &n.stats.MovesGranted
	if dec.Action == core.ActionStay {
		outcome, name, count = wire.MoveStayed, "stayed", &n.stats.MovesStayed
	}
	atomic.AddInt64(count, 1)
	n.emit(Event{Kind: EventMoveDecision, Obj: Ref{OID: req.Obj}, Target: req.From, Outcome: name})
	return &wire.MoveResp{Outcome: outcome, At: req.From, Moved: moved}, nil
}

// deny answers a move-request with a denial, counted and announced here
// whichever check refused it: the policy, or another migration's pause.
func (n *Node) deny(req *wire.MoveReq, reason core.DenyReason) *wire.MoveResp {
	atomic.AddInt64(&n.stats.MovesDenied, 1)
	n.emit(Event{Kind: EventMoveDecision, Obj: Ref{OID: req.Obj}, Target: req.From, Outcome: "denied"})
	return &wire.MoveResp{Outcome: wire.MoveDenied, Reason: reason, At: n.id}
}

// relocation is the run-time support's one way to change an object's
// location (paper Fig. 3): "collocate the working set of root at target
// unless a member is fixed or placed". move, migrate/refix, visit's
// return, reinstantiation, the optimiser passes and migration jobs are
// its callers; lock and refix are all they vary (the table is in
// docs/architecture.md).
type relocation struct {
	root     core.OID // the object named; its attachment closure travels
	alliance core.AllianceID
	target   NodeID
	trace    uint64 // one TraceID for the relocation, re-walks included

	// lock is the placement lock tolerated on members and, when Held,
	// stamped onto every one: a placement move-block's group lock.
	lock  core.LockState
	refix bool // the root may be fixed, and arrives fixed
}

// admit is the working-set admission rule, run on the root before
// anything is walked and on every paused snapshot before it ships: a
// member placed by someone else, or fixed (a refix's root excepted),
// vetoes the whole relocation. A job gives up on CodeFixed and
// retargets on CodeDenied.
func (r *relocation) admit(id core.OID, pol *core.ObjState) error {
	if pol.Lock.Held && pol.Lock != r.lock {
		return wire.Errorf(wire.CodeDenied, "object %s is placed (locked by %s)", id, pol.Lock.Owner)
	}
	if pol.Fixed && !(r.refix && id == r.root) {
		return wire.Errorf(wire.CodeFixed, "object %s is fixed", id)
	}
	return nil
}

// mutate edits an admitted snapshot's policy state before it ships.
func (r *relocation) mutate(id core.OID, pol *core.ObjState) {
	if r.lock.Held {
		pol.Lock = r.lock
	}
	if r.refix && id == r.root {
		pol.Fixed = true
	}
}

// relocateRetries bounds how often in a row a relocation walks again
// because its working set collided with another migration.
const relocateRetries = 50

// relocate carries r out: walk root's attachment closure, transfer it
// as a unit (migrateGroup — which callers that walked and inspected the
// closure themselves call directly), and walk again at once when the
// working set collided with another migration (collided). The walk is
// where that migration is waited out: it holds no pause, parks on a
// member the other migration holds and follows it if it leaves. Any
// other refusal is final. The error is classified once: a RemoteError
// passes through, anything else is CodeInternal.
func (n *Node) relocate(ctx context.Context, r relocation) ([]core.OID, error) {
	for attempt := 0; ; attempt++ {
		members, err := n.closureOf(ctx, r.root, r.alliance)
		if err != nil {
			return nil, wire.Errorf(wire.CodeInternal, "%v", err)
		}
		moved, err := n.migrateGroup(ctx, r, members)
		if err == nil {
			return moved, nil
		}
		if collided(err) {
			if attempt < relocateRetries {
				continue
			}
			// Never the last refusal: a member's redirect is not the root's.
			return nil, wire.Errorf(wire.CodeDenied, "working set of %s stayed busy", r.root)
		}
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return nil, re
		}
		return nil, wire.Errorf(wire.CodeInternal, "%v", err)
	}
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
		if rec, ok := n.store.Get(ref.OID); ok {
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
	if err := redirectLocked(rec); err != nil {
		rec.Mu.Unlock()
		return nil, err
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
			if mrec, ok := n.store.Get(oid); ok {
				mrec.Mu.Lock()
				n.policy.OnEnd(&mrec.Pol, n.id, coreEnd)
				mrec.Mu.Unlock()
			}
		}
	}

	if dec.Migrate {
		// Reinstantiation: hand the object to the majority — an ordinary
		// relocation, so a fixed or placed member vetoes it. Run in the
		// background; the end-request itself stays local/cheap.
		r := relocation{root: req.Obj, alliance: req.Alliance, target: dec.MigrateTo, trace: n.nextTrace()}
		n.spawn(func() {
			mctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, _ = n.relocate(mctx, r)
		})
		resp.Migrated = true
		resp.At = dec.MigrateTo
	}
	return resp, nil
}
