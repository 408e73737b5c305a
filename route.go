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

// The paper has one delivery rule: every primitive is "executed at the
// current location of the object" (Fig. 3), found by origin lookup plus
// forward addressing. This file is that rule. route is the only chase
// loop in the runtime; routed and deliver are the typed legs the
// primitives hang their request and handler on.

// route finds oid's current host and runs one primitive there. The
// first attempt resolves the hosted record or the best location hint in
// a single store.Lookup and hands it to leg: rec is the hosted record
// when host is this node, and nil when the attempt must be exactly one
// RPC to host. leg reports where the object is after a success ("" means
// at the host that answered), which route learns. Every other answer is
// a redirect or a not-found, and the chase rule (chase.follow) names the
// host the next attempt asks or ends the chase; a redirect it follows is
// learnt too (see store.Learn). When the next host is this node its own
// tables answer, as another node's would. The caller's context is the
// only time bound. route returns the host that answered.
func (n *Node) route(ctx context.Context, oid core.OID, op string,
	leg func(rec *store.Record, host NodeID) (at NodeID, err error)) (NodeID, error) {

	c := chase{n: n, origin: oid.Origin}
	defer c.end(oid)
	rec, host := n.store.Lookup(oid)
	for {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		var at NodeID
		var err error
		switch {
		case rec != nil:
			at, err = leg(rec, host)
		case host == n.id:
			err = n.whereabouts(oid)
		default:
			c.hop()
			at, err = leg(nil, host)
		}
		if err == nil {
			if at == "" {
				at = host
			}
			n.store.Learn(oid, at, c.gen())
			return host, nil
		}
		// A redirect, or a not-found from a node's location tables, is an
		// answer about the location; anything else is the primitive's.
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeMoved && (re.Code != wire.CodeNotFound || rec != nil) {
			return "", fromRemote(err)
		}
		moved, seen := re.Code == wire.CodeMoved, c.seen
		next := c.follow(host, moved, re.To, re.Gen)
		switch {
		case next == "" && moved:
			return "", fmt.Errorf("%w: %s (%s: location lost at generation %d; %s)",
				ErrUnreachable, oid, op, c.gen(), n.store.Debug(oid))
		case next == "":
			return "", fromRemote(err)
		case c.seen != seen:
			n.store.Learn(oid, next, re.Gen)
		case !moved && host != n.id:
			// Stale hint: the refuted host falls back to the origin.
			n.store.InvalidateAt(oid, host)
		}
		host, rec = next, nil
		if host == n.id {
			rec, _ = n.store.Get(oid)
		}
	}
}

// routed is route for the primitives whose two legs are the same typed
// request: local runs on the hosted record, the remote leg is one call
// of kind. at, when non-nil, names where a successful reply says the
// object now is (move and migrate relocate it). It returns the reply and
// the host that produced it.
func routed[Req, Resp any](ctx context.Context, n *Node, oid core.OID, op string, kind wire.Kind, req *Req,
	local func(context.Context, *store.Record, *Req) (*Resp, error), at func(*Resp) NodeID) (*Resp, NodeID, error) {

	var resp *Resp
	host, err := n.route(ctx, oid, op, func(rec *store.Record, host NodeID) (NodeID, error) {
		var err error
		resp, err = deliver(ctx, n, host, kind, req, func(req *Req) (*Resp, error) {
			return local(ctx, rec, req)
		})
		if err != nil || at == nil {
			return "", err
		}
		return at(resp), nil
	})
	return resp, host, err
}

// deliver hands req to node h, which may be this node: the local
// handler then runs in place and no frame is encoded.
func deliver[Req, Resp any](ctx context.Context, n *Node, h NodeID, kind wire.Kind, req *Req,
	local func(*Req) (*Resp, error)) (*Resp, error) {

	if h == n.id {
		return local(req)
	}
	resp := new(Resp)
	if err := n.call(ctx, h, kind, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// onRecord is the serving side of a routed request: it resolves the
// record the request addresses and runs the primitive's handler on it.
// A node that does not host the object — a former host included —
// answers with the object's whereabouts, so every primitive gets the
// same answer there; a record that departs after the lookup is
// redirected by the handler under the record's lock.
func onRecord[Req, Resp any](ctx context.Context, n *Node, oid core.OID, req *Req,
	fn func(context.Context, *store.Record, *Req) (*Resp, error)) (*Resp, error) {

	rec, ok := n.store.Get(oid)
	if !ok {
		return nil, n.whereabouts(oid)
	}
	return fn(ctx, rec, req)
}

// redirectLocked is what a handler answers when the record onRecord
// passed it departed since: the redirect to the object's next host at
// the departure's generation, nil for a live record. Caller holds
// rec.Mu.
func redirectLocked(rec *store.Record) error {
	if rec.Status != store.StatusGone {
		return nil
	}
	return &wire.RemoteError{Code: wire.CodeMoved, Msg: rec.ID.String(), To: rec.MovedTo, Gen: rec.MovedGen}
}

// chase is one location chase: the order that ends it, and its hop
// accounting. Every redirect carries the generation of the departure it
// reports — how many migrations the object had survived on arriving at
// the named host — and follow takes only redirects newer than any it
// took before. Generations only grow along the object's path, so a
// chase can neither cycle nor run forever: it reaches the object, or a
// not-found at the origin (the object is unknown), or an origin whose
// answer is no newer than what the chase already followed (the location
// is lost, say a forward aged out before the origin heard of the
// departure).
type chase struct {
	n      *Node
	origin NodeID
	// seen ranks the newest redirect followed: 2·gen+2, one more when
	// the host named itself (an arrival racing its own lookup), so that
	// answer outranks the redirect that led there but nothing newer. 0
	// before the first.
	seen  uint64
	hops  int       // remote calls issued — the directory's cost metric
	start time.Time // first remote attempt; zero before
}

// follow is the chase rule, the one decision route makes on an answer
// that is not the object: host answered with a redirect to to at
// departure generation gen (moved), or with not-found. It returns the
// host the next attempt asks: to, when the redirect is newer than any
// followed; otherwise the origin, whose home index the generation-
// ordered reports keep. "" ends the chase — the answer came from the
// origin itself, so the object is unknown (not-found) or its location
// lost (a stale redirect). follow reads and writes nothing but c.seen,
// so the model check drives this very code.
func (c *chase) follow(host NodeID, moved bool, to NodeID, gen uint64) NodeID {
	if moved && to != "" {
		rank := 2*gen + 2
		if to == host {
			rank++
		}
		if rank > c.seen {
			c.seen = rank
			return to
		}
	}
	if host == c.origin {
		return ""
	}
	return c.origin
}

// gen is the departure generation of the newest redirect followed (0
// before any): what route knows of the object's generation at the host
// it reached.
func (c *chase) gen() uint64 { return max(c.seen/2, 1) - 1 }

// hop records one remote call of the chase. route bumps it immediately
// before each RPC so end() sees the true network cost; the first starts
// the chase's latency clock, so an operation served entirely on this
// node never reads the clock.
func (c *chase) hop() {
	if c.hops == 0 {
		c.start = time.Now()
	}
	c.hops++
}

// end folds the finished chase into the node's directory statistics:
// zero hops means the object was local (not a directory event at all),
// one hop means the first hint was right (a hit), more means chasing
// (a miss). Chases longer than chaseHopBudget also count as
// over-budget and emit an EventChase so operators can spot
// directories gone stale.
func (c *chase) end(oid core.OID) {
	n := c.n
	switch {
	case c.hops == 0:
		return
	case c.hops == 1:
		atomic.AddInt64(&n.stats.HintHits, 1)
	default:
		atomic.AddInt64(&n.stats.HintMisses, 1)
	}
	n.tel.chaseLat.ObserveSince(c.start)
	atomic.AddInt64(&n.stats.ChaseHops, int64(c.hops))
	bucket := c.hops
	if bucket > len(n.chaseHist) {
		bucket = len(n.chaseHist)
	}
	n.chaseHist[bucket-1].Add(1)
	if c.hops > chaseHopBudget {
		atomic.AddInt64(&n.stats.ChasesOverBudget, 1)
		n.emit(Event{Kind: EventChase, Obj: Ref{OID: oid}, Outcome: "over-budget", Hops: c.hops})
	}
}
