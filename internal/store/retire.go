package store

import (
	"time"

	"objmig/internal/core"
)

// ConfirmDeparted retires the forwarding pointers of a departure whose
// report the origin has acknowledged: the origin's home index now
// answers for it, so chasers holding a stale hint fall back to the
// origin. gens aligns with ids and carries each report's departure
// generation; a forward is dropped only when it still names at and is
// no newer than the report. An acknowledgement of an older report — the
// advisories travel on their own goroutines and may land out of order —
// thus never retires a later departure to the same host, which the
// origin may not know yet. Returns the number of forwards retired.
func (s *Store) ConfirmDeparted(ids []core.OID, gens []uint64, at core.NodeID) int {
	retired := 0
	for i, id := range ids {
		var gen uint64
		if i < len(gens) {
			gen = gens[i]
		}
		sh := s.shardOf(id)
		sh.locMu.Lock()
		if f, ok := sh.forwards[id]; ok && f.to == at && f.gen <= gen {
			delete(sh.forwards, id)
			retired++
		}
		sh.locMu.Unlock()
	}
	s.retired.Add(int64(retired))
	return retired
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
// configured TTL. Returns the number of forwarding entries removed. A
// no-op when the TTL is disabled.
func (s *Store) CompactForwards() int {
	ttl := time.Duration(s.fwdTTL.Load())
	if ttl <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.locMu.Lock()
		for id, f := range sh.forwards {
			if f.stamp.Before(cutoff) {
				delete(sh.forwards, id)
				removed++
			}
		}
		sh.locMu.Unlock()
	}
	s.retired.Add(int64(removed))
	return removed
}
