package objmig

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/wire"
)

// Home-update batching. Origin advisories coalesce across migrations
// into time/size-bounded batches per (origin, new-home) pair: an update
// waits at most homeBatchMaxDelay and a batch carries at most
// homeBatchMaxObjs objects before it is flushed, so a migration storm
// does not cost the origins one RPC per object. Home updates are
// advisory — lookups fall back to forwarding chains — so the wait costs
// correctness nothing. No goroutine waits on the clock: opening a batch
// arms one timer for it, and a failed send re-arms one per retry.

const (
	// homeBatchMaxObjs flushes a batch early once it carries this many
	// objects (closure entries count their members).
	homeBatchMaxObjs = 128
	// homeBatchMaxDelay bounds how long an update may wait for
	// companions. The wait also pays for itself apart from the
	// coalescing: the origin's ack retires the old host's stubs (see
	// confirm), and callers still hinting at the old host are
	// redirected by those stubs rather than sent back to the origin.
	// Sending each advisory at once measured 10.6 % fewer
	// move-contention operations per second (2-CPU Xeon); a 2 ms window
	// with no coalescing measured the same as this one.
	homeBatchMaxDelay = 2 * time.Millisecond
	// homeBatchRetries re-sends a failed batch this many times before
	// giving up — a dropped update now also delays stub retirement at
	// this host, so it is worth a little persistence. Forward TTL
	// compaction remains the backstop.
	homeBatchRetries = 2
	// homeBatchRetryDelay spaces the re-sends.
	homeBatchRetryDelay = 100 * time.Millisecond
)

// homeKey identifies a coalescing bucket: updates share a wire message
// only when they go to the same origin and report the same new home.
type homeKey struct {
	origin core.NodeID
	at     core.NodeID
}

// homePending is one accumulating batch. gens aligns with objs;
// closures carries closure-level entries that stand in for their
// members' per-object entries.
type homePending struct {
	objs     []core.OID
	gens     []uint64
	closures []wire.ClosureLoc
	aff      []wire.AffinityObs
	count    int    // objs plus closure members, for the flush threshold
	trace    uint64 // the single migration trace behind the batch; 0 once mixed
	since    time.Time
}

// homeBatcher owns the pending batches.
type homeBatcher struct {
	n        *Node
	maxDelay time.Duration

	mu      sync.Mutex
	pend    map[homeKey]*homePending
	stopped bool
}

func newHomeBatcher(n *Node) *homeBatcher {
	return &homeBatcher{n: n, maxDelay: homeBatchMaxDelay, pend: make(map[homeKey]*homePending)}
}

// enqueue adds one origin's update to its batch, flushing immediately
// when the batch fills. gens aligns with objs (both nil for gossip-only
// and closure batches); closures carries closure-level entries; trace
// is the migration trace behind the update — a batch that coalesces
// updates from different migrations sends trace 0, since one HomeUpdate
// can only carry one. After close it degrades to a direct (unbatched)
// send so late migrations still advise their origins.
func (b *homeBatcher) enqueue(origin, at core.NodeID, objs []core.OID, gens []uint64,
	closures []wire.ClosureLoc, aff []wire.AffinityObs, trace uint64) {
	atomic.AddInt64(&b.n.stats.HomeUpdatesQueued, 1)
	key := homeKey{origin: origin, at: at}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.send(key, &homePending{objs: objs, gens: gens, closures: closures, aff: aff,
			trace: trace, since: time.Now()})
		return
	}
	p := b.pend[key]
	if p == nil {
		p = &homePending{trace: trace, since: time.Now()}
		b.pend[key] = p
		time.AfterFunc(b.maxDelay, func() { b.flush(key, p) })
	} else if p.trace != trace {
		p.trace = 0
	}
	p.objs = append(p.objs, objs...)
	p.gens = append(p.gens, gens...)
	p.count += len(objs)
	for _, cl := range closures {
		p.closures = append(p.closures, cl)
		p.count += len(cl.Members)
	}
	p.aff = append(p.aff, aff...)
	full := p.count >= homeBatchMaxObjs
	if full {
		delete(b.pend, key)
	}
	b.mu.Unlock()
	if full {
		b.send(key, p)
	}
}

// flush is a batch's timer: it sends p unless p already left — flushed
// early when it filled, or by close.
func (b *homeBatcher) flush(key homeKey, p *homePending) {
	b.mu.Lock()
	due := b.pend[key] == p
	if due {
		delete(b.pend, key)
	}
	b.mu.Unlock()
	if due {
		b.send(key, p)
	}
}

// close drains everything (shutdown path) and turns later updates into
// direct sends. The sends run concurrently but close waits them out —
// it must not return until the final advisories have actually left,
// because the node's RPC pool is torn down right after it.
func (b *homeBatcher) close() {
	b.mu.Lock()
	pend := b.pend
	b.pend = make(map[homeKey]*homePending)
	b.stopped = true
	b.mu.Unlock()
	var wg sync.WaitGroup
	for key, p := range pend {
		wg.Add(1)
		go func(key homeKey, p *homePending) {
			defer wg.Done()
			b.sendNow(key, p, time.Second)
		}(key, p)
	}
	wg.Wait()
}

// send fires one batched HomeUpdate RPC in the background.
func (b *homeBatcher) send(key homeKey, p *homePending) {
	b.n.spawn(func() { b.sendNow(key, p, 5*time.Second) })
}

// sendNow performs the RPC synchronously; a failure is re-sent in the
// background (best effort, homeBatchRetries times, homeBatchRetryDelay
// apart). With placement enabled the batch carries the sender's load
// sample out and folds the origin's sample from the response in —
// home-update traffic doubles as load gossip. A delivered batch is also
// this host's proof that the origin's home index is authoritative for
// the reported objects, so their forwarding pointers and stubs retire
// on the spot.
func (b *homeBatcher) sendNow(key homeKey, p *homePending, timeout time.Duration) {
	n := b.n
	atomic.AddInt64(&n.stats.HomeUpdateBatches, 1)
	req := &wire.HomeUpdate{Objs: p.objs, Gens: p.gens, At: key.at,
		Closures: p.closures, Aff: p.aff, Load: n.cachedLoadSample(), Trace: p.trace}
	attempt := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		var resp wire.HomeUpdateResp
		if err := n.call(ctx, key.origin, wire.KHomeUpdate, req, &resp); err != nil {
			return err
		}
		n.tel.homeFlushLat.ObserveSince(p.since)
		n.observeLoad(resp.Load)
		b.confirm(key.at, p)
		return nil
	}
	if attempt() != nil {
		n.retry(homeBatchRetries, homeBatchRetryDelay, attempt)
	}
}

// confirm retires this host's forwarding state for a batch the origin
// acknowledged. Objects this node never hosted (a multi-host group's
// other members) have nothing local to retire; ConfirmDeparted is a
// no-op for them.
func (b *homeBatcher) confirm(at core.NodeID, p *homePending) {
	ids := p.objs
	if len(p.closures) > 0 {
		ids = slices.Clip(ids) // the first append copies: p.objs stays as sent
		for _, cl := range p.closures {
			ids = append(ids, cl.Members...)
		}
	}
	if len(ids) > 0 {
		b.n.store.ConfirmDeparted(ids, at)
	}
}
