package store

import (
	"time"

	"objmig/internal/core"
)

// ConfirmDeparted retires forwarding state for objects whose origin has
// confirmed the authoritative home entry (a successful HomeUpdate
// acknowledgement): the forwarding pointer and the Gone stub are both
// dropped. Chasers that still hold a stale hint fall back to the
// origin, which now answers authoritatively. Returns the number of
// stubs retired.
func (s *Store) ConfirmDeparted(ids []core.OID, at core.NodeID) int {
	retired := 0
	for _, id := range ids {
		sh := s.shardOf(id)
		sh.locMu.Lock()
		if f, ok := sh.forwards[id]; ok && f.to == at {
			delete(sh.forwards, id)
		}
		sh.locMu.Unlock()
		if s.retireStub(id) {
			retired++
		}
	}
	return retired
}

// retireStub deletes id's record when it is a forwarding stub. Safe
// against concurrent reinstalls: InstallBatch holds the shard's table
// lock for its check-then-commit, so the stub is either still Gone
// here (and deleting it just makes a later install a fresh insert) or
// already replaced by a live record (left alone). Callers must hold no
// record or shard lock.
func (s *Store) retireStub(id core.OID) bool {
	sh := s.shardOf(id)
	sh.tabMu.Lock()
	rec, ok := sh.objs[id]
	if !ok {
		sh.tabMu.Unlock()
		return false
	}
	rec.Mu.Lock()
	gone := rec.Status == StatusGone
	rec.Mu.Unlock()
	if gone {
		delete(sh.objs, id)
	}
	sh.tabMu.Unlock()
	if gone {
		s.retired.Add(1)
	}
	return gone
}

// MaybeCompact triggers an amortised CompactForwards sweep after
// roughly compactEvery recorded departures. The node calls it from the
// migration-commit path, which is exactly where forwarding state is
// minted; the sweep itself then runs on the caller's goroutine with no
// locks held on entry.
func (s *Store) MaybeCompact(departed int) {
	if time.Duration(s.fwdTTL.Load()) <= 0 {
		return
	}
	if s.sinceSweep.Add(int64(departed)) < compactEvery {
		return
	}
	s.sinceSweep.Store(0)
	s.CompactForwards()
}

// CompactForwards ages out forwarding pointers older than the
// configured TTL and retires their stubs. Returns the number of
// forwarding entries removed. A no-op when the TTL is disabled.
func (s *Store) CompactForwards() int {
	ttl := time.Duration(s.fwdTTL.Load())
	if ttl <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		var expired []core.OID
		sh.locMu.Lock()
		for id, f := range sh.forwards {
			if f.stamp.Before(cutoff) {
				expired = append(expired, id)
			}
		}
		for _, id := range expired {
			delete(sh.forwards, id)
		}
		sh.locMu.Unlock()
		for _, id := range expired {
			s.retireStub(id)
		}
		removed += len(expired)
	}
	return removed
}
