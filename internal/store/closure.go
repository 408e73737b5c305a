package store

import (
	"sync"
	"time"

	"objmig/internal/core"
)

// ClosureRec is a shared location record for an attachment closure that
// migrated as a unit: one (anchor → node, generation) pair that every
// member references instead of carrying its own home or forwarding
// entry. One closure report updates the record and thereby refreshes
// the location of every member; a million-member directory stores one
// record plus member pointers instead of a million independent entries.
//
// The record's mutex is a strict leaf: it is only ever taken last
// (after closMu and/or a shard's locMu), never around any other lock.
type ClosureRec struct {
	anchor core.OID

	mu   sync.Mutex
	at   core.NodeID
	gen  uint64
	refs int
}

func (c *ClosureRec) location() core.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *ClosureRec) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

func (c *ClosureRec) addRef() {
	c.mu.Lock()
	c.refs++
	c.mu.Unlock()
}

func (c *ClosureRec) dropRef() {
	c.mu.Lock()
	c.refs--
	c.mu.Unlock()
}

func (c *ClosureRec) refCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refs
}

// closureFor resolves the closure record members of this report should
// attach to. It returns nil when the stored record is fresher than gen
// — the caller's update is stale and must not attach members.
//
// A fresher (or laterally different) report MINTS A NEW RECORD instead
// of advancing the stored one in place. The distinction is
// load-bearing: the same anchor can migrate again with a different
// member set (an attachment was detached in between, or a different
// alliance's closure travelled), and members of the earlier trip that
// did not travel this time must keep their old location. They go on
// referencing the superseded record — which keeps its old (at, gen)
// forever — while this report's members are re-attached to the new one
// by the caller. A fully superseded record drops to zero references
// and is reaped by CompactForwards.
func (s *Store) closureFor(anchor core.OID, gen uint64, at core.NodeID) *ClosureRec {
	s.closMu.Lock()
	defer s.closMu.Unlock()
	if cur, ok := s.closures[anchor]; ok {
		curGen := cur.generation()
		if gen < curGen {
			return nil
		}
		if gen == curGen && cur.location() == at {
			return cur // idempotent re-report (a retried batch)
		}
	}
	clos := &ClosureRec{anchor: anchor, at: at, gen: gen}
	s.closures[anchor] = clos
	return clos
}

// attachMemberLocked points id at the shared closure record, displacing
// any per-object entry the report supersedes. Caller holds sh.locMu.
// Entries with a fresher generation win and veto the attach.
func (sh *shard) attachMemberLocked(id core.OID, clos *ClosureRec, gen uint64) {
	if cur, ok := sh.members[id]; ok {
		if cur == clos {
			delete(sh.cache, id)
			return
		}
		if gen < cur.generation() {
			return
		}
		sh.detachMemberLocked(id)
	}
	if f, ok := sh.forwards[id]; ok {
		if f.gen > gen {
			return
		}
		delete(sh.forwards, id)
	}
	if h, ok := sh.home[id]; ok {
		if h.gen > gen {
			return
		}
		delete(sh.home, id)
	}
	delete(sh.cache, id)
	sh.members[id] = clos
	clos.addRef()
}

// detachMemberLocked removes id's closure-member reference, if any.
// Caller holds sh.locMu. Zero-ref records are reaped lazily by
// CompactForwards (reaping here would need closMu, inverting the
// closMu → locMu order).
func (sh *shard) detachMemberLocked(id core.OID) {
	if clos, ok := sh.members[id]; ok {
		delete(sh.members, id)
		clos.dropRef()
	}
}

// HomeUpdateClosure is the closure-level HomeUpdate: objects created
// here that migrated as the given anchor's closure are recorded as
// member references into one shared record instead of per-object home
// entries. Foreign members are ignored (each origin hears about its
// own objects).
func (s *Store) HomeUpdateClosure(anchor core.OID, gen uint64, members []core.OID, at core.NodeID) {
	clos := s.closureFor(anchor, gen, at)
	if clos == nil {
		return // a fresher report already superseded this one
	}
	for _, id := range members {
		if id.Origin != s.self {
			continue
		}
		sh := s.shardOf(id)
		sh.locMu.Lock()
		sh.attachMemberLocked(id, clos, gen)
		sh.locMu.Unlock()
	}
}

// DepartedClosure coalesces a group departure at a former host: every
// member's forwarding pointer (or, at the origin, home entry) collapses
// into one shared closure record. Members of any origin participate —
// this is the old host's forward-addressing state, not the home index.
func (s *Store) DepartedClosure(anchor core.OID, gen uint64, members []core.OID, to core.NodeID) {
	clos := s.closureFor(anchor, gen, to)
	if clos == nil {
		return
	}
	for _, id := range members {
		sh := s.shardOf(id)
		sh.locMu.Lock()
		sh.attachMemberLocked(id, clos, gen)
		sh.locMu.Unlock()
	}
}

// ConfirmDeparted retires forwarding state for objects whose origin has
// confirmed the authoritative home entry (a successful HomeUpdate
// acknowledgement): the forwarding pointer, the closure-member
// reference and the Gone stub are all dropped. Chasers that still hold
// a stale hint fall back to the origin, which now answers
// authoritatively. Returns the number of stubs retired.
func (s *Store) ConfirmDeparted(ids []core.OID, at core.NodeID) int {
	retired := 0
	for _, id := range ids {
		sh := s.shardOf(id)
		sh.locMu.Lock()
		if f, ok := sh.forwards[id]; ok && f.to == at {
			delete(sh.forwards, id)
		}
		if clos, ok := sh.members[id]; ok && clos.location() == at {
			sh.detachMemberLocked(id)
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
// configured TTL, retires their stubs, and reaps unreferenced closure
// records. Returns the number of forwarding entries removed. A no-op
// when the TTL is disabled.
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
	s.reapClosures()
	return removed
}

// reapClosures drops closure records no member references any more.
func (s *Store) reapClosures() {
	s.closMu.Lock()
	defer s.closMu.Unlock()
	for anchor, clos := range s.closures {
		if clos.refCount() == 0 {
			delete(s.closures, anchor)
		}
	}
}
