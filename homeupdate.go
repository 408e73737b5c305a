package objmig

import (
	"context"
	"sync/atomic"
	"time"

	"objmig/internal/wire"
)

// advise sends one origin advisory ("your objects now live at req.At")
// at once, as one HomeUpdate RPC on a tracked goroutine: the origin's
// home index takes only these generation-ordered reports (see
// store.Learn), so holding one back only leaves it stale for longer. A
// failure is re-sent in the background (see retry). Close waits for the
// advisories in flight before it closes the RPC pool; one made after
// that is dropped. The RPC doubles as affinity and load gossip. A
// delivered advisory is this host's proof that the origin's home index
// is authoritative for the reported objects, so their forwarding
// pointers and stubs here retire on the spot.
func (n *Node) advise(origin NodeID, req *wire.HomeUpdate) {
	atomic.AddInt64(&n.stats.HomeUpdatesQueued, 1)
	n.bgMu.Lock()
	if n.advClosed {
		n.bgMu.Unlock()
		return
	}
	n.adv.Add(1)
	n.bgMu.Unlock()
	attempt := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var resp wire.HomeUpdateResp
		if err := n.call(ctx, origin, wire.KHomeUpdate, req, &resp); err != nil {
			return err
		}
		n.observeLoad(resp.Load)
		n.store.ConfirmDeparted(req.Objs, req.At) // a no-op for objects never hosted here
		return nil
	}
	go func() {
		defer n.adv.Done()
		atomic.AddInt64(&n.stats.HomeUpdateBatches, 1)
		req.Load = n.cachedLoadSample()
		if attempt() != nil {
			// A dropped advisory also delays stub retirement here, so it
			// is re-sent; forward TTL compaction is the backstop.
			n.retry(2, 100*time.Millisecond, attempt)
		}
	}()
}
