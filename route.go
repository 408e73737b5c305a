package objmig

import (
	"context"
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

// route finds oid's current host and runs one primitive there. Each
// attempt resolves the hosted record or the best location hint in a
// single store.Lookup and hands it to leg: rec is the hosted record when
// host is this node, and nil when the attempt must be exactly one RPC to
// host. leg reports where the object is after a success ("" means at the
// host that answered), which route learns; redirects, stale hints and
// the self-hint arrival race are folded back into the store and retried
// until the chase budget is spent. A redirect's target is also the host
// the next attempt calls: the origin learns nothing from hearsay (see
// store.Learn), yet still follows the chain. route returns the host
// that answered.
func (n *Node) route(ctx context.Context, oid core.OID, op string,
	leg func(rec *store.Record, host NodeID) (at NodeID, err error)) (NodeID, error) {

	c := n.newChase(oid)
	defer c.end()
	var redirect NodeID // where the last redirect pointed, unless at this node
	for c.next(ctx) {
		rec, host := n.store.Lookup(oid)
		if rec == nil && redirect != "" {
			host = redirect
		}
		redirect = ""
		if rec == nil {
			if host == n.id {
				// My own tables point at me but I don't host it. If the
				// record is here now, an arrival raced the two halves of
				// the lookup: retry. Only a never-hosted object is
				// genuinely unknown.
				if _, ok := n.store.Get(oid); ok {
					continue
				}
				return "", fmt.Errorf("%w: %s", ErrNotFound, oid)
			}
			c.hop()
		}
		at, err := leg(rec, host)
		if err == nil {
			if at == "" {
				at = host
			}
			n.store.Learn(oid, at)
			return host, nil
		}
		if to, moved := movedTo(err); moved {
			n.store.Learn(oid, to)
			if to != n.id {
				redirect = to
			}
			c.definite = to != ""
			continue
		}
		if rec == nil && isCode(err, wire.CodeNotFound) && host != oid.Origin {
			// Stale hint: fall back towards the origin.
			n.store.InvalidateAt(oid, host)
			c.definite = true
			continue
		}
		return "", fromRemote(err)
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	recState := "no-record"
	if rec, ok := n.store.Get(oid); ok {
		rec.Mu.Lock()
		recState = fmt.Sprintf("status=%d", rec.Status)
		rec.Mu.Unlock()
	}
	return "", fmt.Errorf("%w: %s (%s: chase budget exhausted; %s; %s)",
		ErrUnreachable, oid, op, recState, n.store.Debug(oid))
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
// passed it departed since: the redirect to the object's next host, nil
// for a live record. Caller holds rec.Mu.
func redirectLocked(rec *store.Record) error {
	if rec.Status != store.StatusGone {
		return nil
	}
	return &wire.RemoteError{Code: wire.CodeMoved, Msg: rec.ID.String(), To: rec.MovedTo}
}

// The two halves of a chase's budget (see chase): the attempts it may
// always make, and how long it keeps retrying once they are spent.
const (
	callRetries   = 32
	chaseDeadline = 2 * time.Second
)

// chase is the adaptive retry budget of one location chase. A chase
// normally terminates within a handful of hops, and the attempt budget
// (callRetries) covers that common case cheaply. But a fixed
// attempt count alone is a wall-clock budget in disguise — 32 attempts
// at 1 ms apart is ~32 ms — and under heavy migration ping-pong (or on
// a starved single-CPU box) a single transfer can take longer than
// that, so a correct chase could exhaust its budget while the object
// was merely in flight. The deadline (chaseDeadline) closes
// that hole: a chase keeps retrying until BOTH the attempt budget and
// the deadline are spent, so churn stretches the chase instead of
// failing it, while the deadline still guarantees termination.
//
// The clock starts when the chase first leaves the node: at its first
// remote attempt or its first back-off, whichever comes first. The
// latency histogram (chaseLat) and the deadline both count from there,
// and an operation served entirely on this node never reads the clock.
type chase struct {
	n        *Node
	oid      core.OID
	attempt  int
	definite bool      // the last answer named a next host: retry at once
	hops     int       // remote calls issued — the directory's cost metric
	start    time.Time // first remote attempt or back-off; zero before
	deadline time.Time // zero before start, or when the deadline is disabled
}

// newChase starts a chase budget for one logical operation on oid. The
// budget is returned by value so route keeps it on its stack.
func (n *Node) newChase(oid core.OID) chase {
	return chase{n: n, oid: oid}
}

// clock starts the chase's clock, once: see chase.
func (c *chase) clock() {
	if !c.start.IsZero() {
		return
	}
	c.start = time.Now()
	if d := c.n.chaseDeadline; d > 0 {
		c.deadline = c.start.Add(d)
	}
}

// hop records one remote call of the chase. route bumps it immediately
// before each RPC so end() sees the true network cost.
func (c *chase) hop() {
	c.clock()
	c.hops++
}

// end folds the finished chase into the node's directory statistics:
// zero hops means the object was local (not a directory event at all),
// one hop means the first hint was right (a hit), more means chasing
// (a miss). Chases longer than chaseHopBudget also count as
// over-budget and emit an EventChase so operators can spot
// directories gone stale.
func (c *chase) end() {
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
		n.emit(Event{Kind: EventChase, Obj: Ref{OID: c.oid}, Outcome: "over-budget", Hops: c.hops})
	}
}

// next reports whether another attempt may run. Within the attempt
// budget, an attempt whose answer was definite — a redirect naming a
// host, or a stale hint refuted — retries at once: the next host is
// known, and waiting only delays the call. Otherwise it backs off
// briefly so in-flight transfers can land before the next try (long
// chases stretch the pause — by then the object is clearly mid-transfer
// and tight polling only adds load). It returns false when the budget
// is spent or the context is done; route distinguishes the two via
// ctx.Err().
func (c *chase) next(ctx context.Context) bool {
	definite := c.definite
	c.definite = false
	if c.attempt == 0 || definite && c.attempt < c.n.retries {
		c.attempt++
		return ctx.Err() == nil
	}
	c.clock()
	if c.attempt >= c.n.retries && (c.deadline.IsZero() || !time.Now().Before(c.deadline)) {
		return false
	}
	d := time.Millisecond
	switch {
	case c.attempt >= 256:
		d = 8 * time.Millisecond
	case c.attempt >= 64:
		d = 4 * time.Millisecond
	}
	c.attempt++
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
