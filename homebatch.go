package objmig

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/wire"
)

// Home-update batching. notifyOrigins used to send one HomeUpdate RPC
// per origin per migration; under autopilot bursts (and any migration
// storm) that is a per-object RPC rate the origins pay for. The
// batcher coalesces updates across migrations into time/size-bounded
// batches per (origin, new-home) pair: an update waits at most
// homeBatchMaxDelay and a batch carries at most homeBatchMaxObjs
// objects before it is flushed. Home updates are advisory — lookups
// fall back to forwarding chains — so the added latency costs
// correctness nothing.

const (
	// homeBatchMaxObjs flushes a batch early once it carries this many
	// objects (closure entries count their members).
	homeBatchMaxObjs = 128
	// homeBatchMaxDelay bounds how long an update may wait for
	// companions.
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

// homeBatcher owns the pending batches and the flush loop.
type homeBatcher struct {
	n        *Node
	maxObjs  int
	maxDelay time.Duration

	mu      sync.Mutex
	pend    map[homeKey]*homePending
	stopped bool

	kick chan struct{} // pend went empty → non-empty: arm the timer
	stop chan struct{}
	done chan struct{}
}

func newHomeBatcher(n *Node) *homeBatcher {
	b := &homeBatcher{
		n:        n,
		maxObjs:  homeBatchMaxObjs,
		maxDelay: homeBatchMaxDelay,
		pend:     make(map[homeKey]*homePending),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// enqueue adds one origin's update to its batch, flushing immediately
// when the batch fills. gens aligns with objs (nil for gossip-only
// batches); closures carries closure-level entries; trace is the
// migration trace behind the update — a batch that coalesces updates
// from different migrations sends trace 0, since one HomeUpdate can
// only carry one. After close it degrades to a direct (unbatched)
// send so late migrations still advise their origins.
func (b *homeBatcher) enqueue(origin, at core.NodeID, objs []core.OID, gens []uint64,
	closures []wire.ClosureLoc, aff []wire.AffinityObs, trace uint64) {
	atomic.AddInt64(&b.n.stats.HomeUpdatesQueued, 1)
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.send(homeKey{origin: origin, at: at},
			&homePending{objs: objs, gens: gens, closures: closures, aff: aff,
				trace: trace, since: time.Now()})
		return
	}
	key := homeKey{origin: origin, at: at}
	wake := len(b.pend) == 0
	p := b.pend[key]
	if p == nil {
		p = &homePending{trace: trace, since: time.Now()}
		b.pend[key] = p
	} else if p.trace != trace {
		p.trace = 0
	}
	if len(objs) > 0 {
		// Keep gens aligned even when a gossip-only batch preceded a
		// generation-carrying one in the same bucket.
		if len(p.gens) < len(p.objs) {
			p.gens = append(p.gens, make([]uint64, len(p.objs)-len(p.gens))...)
		}
		p.objs = append(p.objs, objs...)
		if len(gens) == len(objs) {
			p.gens = append(p.gens, gens...)
		} else {
			p.gens = append(p.gens, make([]uint64, len(objs))...)
		}
		p.count += len(objs)
	}
	for _, cl := range closures {
		p.closures = append(p.closures, cl)
		p.count += len(cl.Members)
	}
	p.aff = append(p.aff, aff...)
	var full *homePending
	if p.count >= b.maxObjs {
		delete(b.pend, key)
		full = p
	}
	b.mu.Unlock()
	if full != nil {
		b.send(key, full)
	}
	if wake && full == nil {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
}

// run is the flush loop: a timer armed only while batches are pending,
// so idle nodes cost nothing.
func (b *homeBatcher) run() {
	defer close(b.done)
	timer := time.NewTimer(time.Hour)
	stopTimer := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	stopTimer()
	armed := false
	for {
		select {
		case <-b.stop:
			stopTimer()
			b.flushAll()
			return
		case <-b.kick:
			if !armed {
				stopTimer()
				timer.Reset(b.maxDelay)
				armed = true
			}
		case <-timer.C:
			armed = false
			if next := b.flushDue(time.Now()); next > 0 {
				timer.Reset(next)
				armed = true
			}
		}
	}
}

// flushDue sends every batch older than maxDelay and returns the wait
// until the next batch is due (0 when none is pending).
func (b *homeBatcher) flushDue(now time.Time) time.Duration {
	b.mu.Lock()
	var due []homeKey
	var batches []*homePending
	next := time.Duration(0)
	for key, p := range b.pend {
		wait := b.maxDelay - now.Sub(p.since)
		if wait <= 0 {
			due = append(due, key)
			batches = append(batches, p)
			continue
		}
		if next == 0 || wait < next {
			next = wait
		}
	}
	for _, key := range due {
		delete(b.pend, key)
	}
	b.mu.Unlock()
	for i, key := range due {
		b.send(key, batches[i])
	}
	return next
}

// flushAll drains everything (shutdown path). The sends run
// concurrently but flushAll waits them out — close() must not return
// until the final advisories have actually left, because the node's
// RPC pool is torn down right after it.
func (b *homeBatcher) flushAll() {
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

// sendNow performs the RPC synchronously (best effort, with a couple
// of spaced retries — see homeBatchRetries). With placement enabled
// the batch carries the sender's load sample out and folds the
// origin's sample from the response in — home-update traffic doubles
// as load gossip. A delivered batch is also this host's proof that the
// origin's home index is authoritative for the reported objects, so
// their forwarding pointers and stubs retire on the spot.
func (b *homeBatcher) sendNow(key homeKey, p *homePending, timeout time.Duration) {
	n := b.n
	atomic.AddInt64(&n.stats.HomeUpdateBatches, 1)
	req := &wire.HomeUpdate{Objs: p.objs, Gens: p.gens, At: key.at,
		Closures: p.closures, Aff: p.aff, Load: n.cachedLoadSample(), Trace: p.trace}
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		var resp wire.HomeUpdateResp
		err := n.call(ctx, key.origin, wire.KHomeUpdate, req, &resp)
		cancel()
		if err == nil {
			n.tel.homeFlushLat.ObserveSince(p.since)
			n.observeLoad(resp.Load)
			b.confirm(key.at, p)
			return
		}
		if attempt >= homeBatchRetries || n.closed.Load() {
			return
		}
		time.Sleep(homeBatchRetryDelay)
	}
}

// confirm retires this host's forwarding state for a batch the origin
// acknowledged. Objects this node never hosted (a multi-host group's
// other members) have nothing local to retire; ConfirmDeparted is a
// no-op for them.
func (b *homeBatcher) confirm(at core.NodeID, p *homePending) {
	ids := p.objs
	if len(p.closures) > 0 {
		total := len(p.objs)
		for _, cl := range p.closures {
			total += len(cl.Members)
		}
		ids = make([]core.OID, 0, total)
		ids = append(ids, p.objs...)
		for _, cl := range p.closures {
			ids = append(ids, cl.Members...)
		}
	}
	if len(ids) > 0 {
		b.n.store.ConfirmDeparted(ids, at)
	}
}

// close flushes pending batches and stops the loop. Safe to call once,
// before the node's RPC pool closes, so the final sends can still go
// out.
func (b *homeBatcher) close() {
	close(b.stop)
	<-b.done
}
