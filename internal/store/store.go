// Package store owns a node's object table and its location knowledge
// behind one lock-striped shard design: object records, the home index
// for objects the node created, the forwarding pointers for objects
// that migrated away, and the hint cache for foreign objects all live
// in the shard selected by the object's ID.
//
// The paper's live runtime decides migration at the object's current
// host, so every invoke, locate, move and forward-chase funnels through
// these tables. Striping them by OID hash gives the runtime per-object
// concurrency on the hot path — a lookup touches exactly one shard —
// while table-wide operations (close, stats, sweeps) iterate the shards
// one at a time instead of stopping the world.
//
// Arriving migration groups install through InstallBatch: a
// check-then-commit under the involved shards' locks that swaps every
// record in (or none), which is what lets the streamed migration path
// stage chunks freely and still install the whole group as a unit at
// commit. Installable is its advisory twin for early conflict checks
// while chunks are staged.
//
// The location scheme follows the paper's system model ([ChC91],
// [JLH+88]) — a name-service lookup at the object's origin plus forward
// addressing at former hosts — kept per object, with two scale
// amendments:
//
//  1. Self-home is implicit. A hosted record IS the home knowledge for
//     an object created here; the home index only holds entries for
//     objects that left. Home entries and forwards carry a departure
//     generation so delayed reports can never roll the index backwards.
//  2. Retirement. A departed object leaves the object table at commit
//     (Depart): a former host keeps exactly one entry per departure, its
//     forwarding pointer, or at the origin the home entry. A forward is
//     dropped once the origin confirms a report of that very departure
//     (ConfirmDeparted), and any survivors age out under a TTL
//     (CompactForwards), so a node that hosted a million transient
//     objects keeps no million dead entries. The hint cache is capped
//     per shard.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/wire"
)

// ShardCount is the number of lock stripes. A power of two so shard
// selection is a mask, sized well above typical core counts so that
// concurrent hot-path lookups rarely collide on a stripe.
const ShardCount = 32

// DefaultHintCacheCap bounds the foreign-object hint cache across all
// shards. 64Ki entries keep a hint-only node's location footprint at a
// few MiB no matter how many foreign objects churn past it.
const DefaultHintCacheCap = 65536

// DefaultForwardTTL is how long an unconfirmed forwarding pointer
// survives before CompactForwards may reap it. Long enough that any
// chaser holding a hint from before the departure has retried through
// the origin; short enough that transient hosting leaves no permanent
// residue.
const DefaultForwardTTL = 10 * time.Minute

// ErrClosed is returned by mutating operations after Close.
var ErrClosed = errors.New("store: closed")

// compactEvery is the number of recorded departures between amortised
// CompactForwards sweeps (triggered via MaybeCompact).
const compactEvery = 4096

// homeEntry is one home-index record: where an object created here was
// last reported to live, with the departure generation that reported
// it. Generation 0 is the pre-generation legacy value and always loses
// ties to nothing (any report with gen >= stored gen wins).
type homeEntry struct {
	at  core.NodeID
	gen uint64
}

// fwdEntry is one forwarding pointer: the next hop for an object that
// was hosted here and left, the generation of that departure, and the
// departure time for TTL aging.
type fwdEntry struct {
	to    core.NodeID
	gen   uint64
	stamp time.Time
}

// shard is one stripe: a slice of the object table plus the location
// maps for the OIDs that hash here. The location maps have their own
// lock, so hints and chases never contend with the table; a departure
// writes its location entry while it holds the table lock (see Depart),
// so a reader finds either the record or the entry that replaced it.
// Lock order: tabMu → Record.Mu → locMu.
type shard struct {
	tabMu sync.RWMutex
	objs  map[core.OID]*Record

	locMu sync.Mutex
	// home maps objects created by this node to their last reported
	// location. Only objects that left have entries: a hosted record is
	// its own home knowledge (see Home).
	home map[core.OID]homeEntry
	// forwards maps objects that were hosted here and left to their
	// next hop.
	forwards map[core.OID]fwdEntry
	// cache holds location hints for foreign objects, capped at the
	// store's per-shard budget.
	cache map[core.OID]core.NodeID
}

// Store is a node-local sharded object-and-location table. It is safe
// for concurrent use.
type Store struct {
	self   core.NodeID
	closed atomic.Bool
	shards [ShardCount]shard

	// cacheCap is the per-shard hint-cache bound (<0 = unbounded).
	cacheCap atomic.Int64
	// fwdTTL is the forward age-out in nanoseconds (<=0 disables TTL
	// compaction).
	fwdTTL atomic.Int64
	// retired counts forwards deleted by retirement (confirm + TTL).
	retired atomic.Int64
	// sinceSweep counts departures since the last amortised sweep.
	sinceSweep atomic.Int64
}

// New returns an empty Store for the given node.
func New(self core.NodeID) *Store {
	s := &Store{self: self}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.objs = make(map[core.OID]*Record)
		sh.home = make(map[core.OID]homeEntry)
		sh.forwards = make(map[core.OID]fwdEntry)
		sh.cache = make(map[core.OID]core.NodeID)
	}
	s.SetHintCacheCap(DefaultHintCacheCap)
	s.SetForwardTTL(DefaultForwardTTL)
	return s
}

// SetHintCacheCap sets the total hint-cache bound (split evenly across
// shards, minimum one entry per shard). Negative means unbounded.
func (s *Store) SetHintCacheCap(total int) {
	if total < 0 {
		s.cacheCap.Store(-1)
		return
	}
	per := total / ShardCount
	if per < 1 {
		per = 1
	}
	s.cacheCap.Store(int64(per))
}

// SetForwardTTL sets the forward age-out. Non-positive disables
// TTL compaction (retirement then happens only via ConfirmDeparted).
func (s *Store) SetForwardTTL(ttl time.Duration) {
	s.fwdTTL.Store(int64(ttl))
}

// Self returns the owning node's identity.
func (s *Store) Self() core.NodeID { return s.self }

// ShardIndex maps an OID to its stripe (the shared core.HashOID,
// masked; exported for distribution tests).
func ShardIndex(id core.OID) int {
	return int(core.HashOID(id) & (ShardCount - 1))
}

func (s *Store) shardOf(id core.OID) *shard { return &s.shards[ShardIndex(id)] }

// --- Object table ---

// Add inserts a freshly created record. No home-index entry is written:
// the hosted record itself is the home knowledge (entries exist only
// for objects that left). It fails after Close.
func (s *Store) Add(rec *Record) error {
	sh := s.shardOf(rec.ID)
	sh.tabMu.Lock()
	if s.closed.Load() {
		sh.tabMu.Unlock()
		return ErrClosed
	}
	sh.objs[rec.ID] = rec
	sh.tabMu.Unlock()
	return nil
}

// Get returns the record of an object hosted here (active or paused).
// A departed object leaves the table at commit (see Depart), so a
// record found here is the object itself.
func (s *Store) Get(id core.OID) (*Record, bool) {
	sh := s.shardOf(id)
	sh.tabMu.RLock()
	rec, ok := sh.objs[id]
	sh.tabMu.RUnlock()
	return rec, ok
}

// Lookup is the hot-path combination of Get and Hint: it resolves the
// record if the object lives here, and otherwise the best location
// hint — touching only the object's own shard.
func (s *Store) Lookup(id core.OID) (*Record, core.NodeID) {
	if rec, ok := s.Get(id); ok {
		return rec, s.self
	}
	return nil, s.Hint(id)
}

// GetBatch resolves many records at once, taking each involved stripe
// lock exactly once (see byShard) — the batch counterpart of Get for
// large sets, where a per-OID walk would pay one lock round trip per
// object. The result aligns with ids; missing objects yield nil
// entries.
func (s *Store) GetBatch(ids []core.OID) []*Record {
	out := make([]*Record, len(ids))
	for sh, idxs := range byShard(ids) {
		if len(idxs) == 0 {
			continue
		}
		st := &s.shards[sh]
		st.tabMu.RLock()
		for _, i := range idxs {
			out[i] = st.objs[ids[i]]
		}
		st.tabMu.RUnlock()
	}
	return out
}

// byShard buckets the positions of ids per stripe, so a batch call holds
// each stripe lock only for its own objects.
func byShard(ids []core.OID) (out [ShardCount][]int) {
	for i, id := range ids {
		sh := ShardIndex(id)
		out[sh] = append(out[sh], i)
	}
	return out
}

// Range calls fn for every record until fn returns false. Each shard's
// table is snapshotted under its own read lock; fn runs without any
// shard lock held, so it may take record locks freely.
func (s *Store) Range(fn func(*Record) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.tabMu.RLock()
		recs := make([]*Record, 0, len(sh.objs))
		for _, rec := range sh.objs {
			recs = append(recs, rec)
		}
		sh.tabMu.RUnlock()
		for _, rec := range recs {
			if !fn(rec) {
				return
			}
		}
	}
}

// HostedCount returns the number of hosted records.
func (s *Store) HostedCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.tabMu.RLock()
		n += len(sh.objs)
		sh.tabMu.RUnlock()
	}
	return n
}

// HostedStats returns the hosted record count together with the
// approximate resident state bytes (the sum of Record.StateBytes) in
// one shard walk — the node's load-gossip sample source.
func (s *Store) HostedStats() (count, bytes int64) {
	s.Range(func(rec *Record) bool {
		count++
		bytes += rec.StateBytes
		return true
	})
	return count, bytes
}

// InstallBatch registers arriving records as part of migration token.
// The batch is all-or-nothing: either every record is installed (and
// its location state updated to "here") or none is.
//
// An existing record may only be replaced if it was paused by this
// very migration (a same-node reinstall). Replacing a record paused by
// a *different* migration would orphan that migration's pause and
// duplicate the object (installableLocked). The check-then-commit runs
// with every involved shard's table lock held (acquired in ascending
// stripe order, so concurrent installs cannot deadlock) and every
// replaced record's lock held across the swap, without a store lock.
func (s *Store) InstallBatch(recs []*Record, token uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	// Lock the involved stripes in ascending order.
	var involved [ShardCount]bool
	for _, rec := range recs {
		involved[ShardIndex(rec.ID)] = true
	}
	for i := range s.shards {
		if involved[i] {
			s.shards[i].tabMu.Lock()
		}
	}
	unlockShards := func() {
		for i := range s.shards {
			if involved[i] {
				s.shards[i].tabMu.Unlock()
			}
		}
	}

	// Check phase: verify every replaced record is replaceable, and
	// hold its lock so its status cannot change before the commit.
	olds := make([]*Record, len(recs))
	var locked []*Record
	unlockRecs := func() {
		for _, o := range locked {
			o.Mu.Unlock()
		}
	}
	for i, rec := range recs {
		old, exists := s.shardOf(rec.ID).objs[rec.ID]
		if !exists {
			continue
		}
		old.Mu.Lock()
		locked = append(locked, old)
		if err := s.installableLocked(old, token); err != nil {
			unlockRecs()
			unlockShards()
			return err
		}
		olds[i] = old
	}
	// Commit phase: swap the records in, turn the replaced ones into
	// wake-up markers pointing here at the arrival's generation, and
	// write the arrivals' location entries while the table locks are
	// still held: a departure of the same object (Depart takes the same
	// locks) then comes after them, never between the install and its
	// entries.
	for i, rec := range recs {
		s.shardOf(rec.ID).objs[rec.ID] = rec
		if old := olds[i]; old != nil {
			old.goneLocked(s.self, rec.Gen)
		}
		s.arrived(rec.ID, true)
	}
	unlockRecs()
	unlockShards()
	return nil
}

// Installable is the advisory twin of InstallBatch's check, run while a
// streaming migration stages chunks, so a doomed session aborts then
// rather than at commit. The state can change before the commit, where
// InstallBatch checks again under the shard locks.
func (s *Store) Installable(id core.OID, token uint64) error {
	sh := s.shardOf(id)
	sh.tabMu.RLock()
	old, exists := sh.objs[id]
	sh.tabMu.RUnlock()
	if !exists {
		return nil
	}
	old.Mu.Lock()
	defer old.Mu.Unlock()
	return s.installableLocked(old, token)
}

// installableLocked is the replaceability rule (caller holds old.Mu):
// only a record paused by migration token may be replaced. One another
// migration holds paused — a former host's copy whose commit is still in
// flight — answers CodeMigrating, for the caller to retry once that
// migration ends; a live one is a refusal that stands (CodeDenied).
func (s *Store) installableLocked(old *Record, token uint64) error {
	code := wire.CodeDenied
	switch {
	case old.Status == StatusPaused && old.Token == token:
		return nil
	case old.Status == StatusPaused:
		code = wire.CodeMigrating
	}
	return wire.Errorf(code, "object %s is live at %s (concurrent migration)", old.ID, s.self)
}

// Depart finalises the departure of objects paused by migration token
// towards to, gens aligned with ids: for each record still paused by
// token the location entry is written (see Departed), the record flips
// to StatusGone naming what that entry names, and it leaves the object
// table. Anyone still holding the record — an invocation waiting out
// the pause, a handler that looked it up before the commit — is thereby
// redirected as a chaser asking here would be: to to at this
// departure's generation, or at the origin to a newer departure its
// home index heard of while the record waited. Each involved
// stripe's table lock is taken once and held across its records'
// flips, so a reader finds either the record or the entry that replaced
// it. Records not paused by token are left alone. It returns the
// objects that departed.
func (s *Store) Depart(ids []core.OID, gens []uint64, token uint64, to core.NodeID) []core.OID {
	var departed []core.OID
	for sh, idxs := range byShard(ids) {
		if len(idxs) == 0 {
			continue
		}
		st := &s.shards[sh]
		st.tabMu.Lock()
		for _, i := range idxs {
			id := ids[i]
			var gen uint64
			if i < len(gens) {
				gen = gens[i]
			}
			rec, ok := st.objs[id]
			if !ok || !rec.depart(token, func() (core.NodeID, uint64) { return s.Departed(id, to, gen) }) {
				continue
			}
			delete(st.objs, id)
			departed = append(departed, id)
		}
		st.tabMu.Unlock()
	}
	return departed
}

// Close marks the store closed: no record may be added afterwards.
// Lookups keep working so in-flight chases fail gracefully. The barrier
// walks the stripes one at a time — no stop-the-world lock — and
// guarantees that once Close returns, every Add either completed or
// will observe the closed flag.
func (s *Store) Close() {
	s.closed.Store(true)
	for i := range s.shards {
		s.shards[i].tabMu.Lock()
		s.shards[i].tabMu.Unlock() //nolint:staticcheck // empty section is the barrier
	}
}

// --- Location tables ---

// Created records that this node created the object. The explicit
// self-entry serves callers (the location-semantics tests) that track
// location without hosting records; the node runtime relies on the hosted
// record instead and never needs it.
func (s *Store) Created(id core.OID) {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	sh.home[id] = homeEntry{at: s.self}
}

// Arrived records that the object is now hosted here: any forwarding
// pointer and stale hint is dropped. For an object created here the
// home entry is dropped too when the record is actually hosted (the
// record is the home knowledge); when no record exists (location-only
// usage) an explicit self-entry is written instead.
func (s *Store) Arrived(id core.OID) {
	_, hosted := s.Get(id)
	s.arrived(id, hosted)
}

// arrived is Arrived told whether a record is hosted instead of looking
// it up, so InstallBatch can run it under the table locks it holds.
func (s *Store) arrived(id core.OID, hosted bool) {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	delete(sh.forwards, id)
	delete(sh.cache, id)
	if id.Origin == s.self {
		if hosted {
			delete(sh.home, id)
		} else {
			sh.home[id] = homeEntry{at: s.self}
		}
	}
}

// Departed records that the object left this node towards to, at the
// given departure generation. At the origin the home entry alone names
// the next hop — no forwarding pointer (and hence no residue) is kept.
// At a foreign host a forwarding pointer is written, stamped for TTL
// aging — unless to is the object's origin: Hint's origin fallback
// already names it, and no home report would ever confirm that forward
// (the origin is its own home index), so none is kept. A stale
// generation (an out-of-order commit replay) never rolls a fresher
// entry back. It returns the next hop and generation the entry names
// afterwards: to and gen unless a fresher entry stood, and those when no
// entry is kept.
//
// Departed runs under a table lock in Depart, so it must not touch the
// object table.
func (s *Store) Departed(id core.OID, to core.NodeID, gen uint64) (core.NodeID, uint64) {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	delete(sh.cache, id)
	if id.Origin == s.self {
		h, ok := sh.home[id]
		if !ok || gen >= h.gen {
			h = homeEntry{at: to, gen: gen}
			sh.home[id] = h
		}
		return h.at, h.gen
	}
	if f, ok := sh.forwards[id]; ok && gen < f.gen {
		return f.to, f.gen
	}
	if to == id.Origin {
		delete(sh.forwards, id)
	} else {
		sh.forwards[id] = fwdEntry{to: to, gen: gen, stamp: time.Now()}
	}
	return to, gen
}

// HomeUpdate records a (possibly delayed) report that objects created
// here now live at the given node. Reports about foreign objects are
// ignored. gens, when non-nil, aligns with ids and carries each
// object's departure generation: a report older than the stored entry
// is dropped, so reports arriving out of order cannot point the index
// backwards, and so is one no newer than the record hosted here (the
// object came back since). Each object's shard is locked individually
// — a large batch never stalls unrelated lookups.
func (s *Store) HomeUpdate(ids []core.OID, gens []uint64, at core.NodeID) {
	for i, id := range ids {
		if id.Origin != s.self {
			continue
		}
		var gen uint64
		if i < len(gens) {
			gen = gens[i]
		}
		if rec, ok := s.Get(id); ok && rec.Gen >= gen {
			continue
		}
		sh := s.shardOf(id)
		sh.locMu.Lock()
		if h, ok := sh.home[id]; !ok || gen >= h.gen {
			sh.home[id] = homeEntry{at: at, gen: gen}
		}
		sh.locMu.Unlock()
	}
}

// Home returns this node's knowledge of where an object created here
// lives: the hosted record itself when the object is (back) here, else
// the home-index entry.
func (s *Store) Home(id core.OID) (core.NodeID, bool) {
	if _, ok := s.Get(id); ok {
		return s.self, true
	}
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if h, ok := sh.home[id]; ok {
		return h.at, true
	}
	return "", false
}

// Forward returns the forward-addressing next hop for an object that
// left: the forwarding pointer, or — for an object created here — the
// home entry when it points elsewhere (the origin keeps no separate
// forwards; its home index IS the forward).
func (s *Store) Forward(id core.OID) (core.NodeID, bool) {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if f, ok := sh.forwards[id]; ok {
		return f.to, true
	}
	if id.Origin == s.self {
		if h, ok := sh.home[id]; ok && h.at != "" && h.at != s.self {
			return h.at, true
		}
	}
	return "", false
}

// Learn records hearsay about where an object that is not local lives:
// the target of a redirect, or the host that answered, with gen the
// generation of the departure that put it there (0 when unknown). At
// the object's origin it writes nothing: the home index takes only
// generation-ordered reports (Departed, HomeUpdate, Arrived), so a
// stale reply landing after a fresher report cannot point it at a host
// whose forward already retired. Elsewhere a forwarding pointer is
// updated in place, but only by a strictly newer generation — the
// classic forward-addressing chain shortening: once we hear where the
// object went later, our pointer skips the intermediate hops, and a
// stale answer can never point it backwards.
func (s *Store) Learn(id core.OID, at core.NodeID, gen uint64) {
	if at == "" || at == s.self || id.Origin == s.self {
		return
	}
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if f, ok := sh.forwards[id]; ok {
		if gen > f.gen {
			f.to, f.gen = at, gen
			sh.forwards[id] = f
		}
		return
	}
	s.cacheInsertLocked(sh, id, at)
}

// Whereabouts is this node's answer to a chaser: this node and the
// record's generation when the object is hosted here — it may have
// arrived since the caller's own table lookup ("moved to me") — and
// otherwise the next hop and the generation of the departure that names
// it: the forwarding pointer, or at the origin the home entry. ok is
// false when nothing here knows the object. The table is read again
// after the location entries, so an arrival that cleared them between
// the two reads is still found.
func (s *Store) Whereabouts(id core.OID) (to core.NodeID, gen uint64, ok bool) {
	if rec, ok := s.Get(id); ok {
		return s.self, rec.Gen, true
	}
	sh := s.shardOf(id)
	sh.locMu.Lock()
	f, fok := sh.forwards[id]
	h, hok := sh.home[id]
	sh.locMu.Unlock()
	switch {
	case fok && f.to != s.self:
		return f.to, f.gen, true
	case hok && id.Origin == s.self && h.at != "" && h.at != s.self:
		return h.at, h.gen, true
	}
	if rec, ok := s.Get(id); ok {
		return s.self, rec.Gen, true
	}
	return "", 0, false
}

// cacheInsertLocked writes a hint-cache entry under the shard's
// location lock, evicting an arbitrary victim when the per-shard cap is
// reached. Random replacement keeps the insert O(1) with no recency
// bookkeeping on the lookup path; under churn the cache is a bloom-ish
// accelerator, not a source of truth, so eviction quality costs at most
// one extra chase hop.
func (s *Store) cacheInsertLocked(sh *shard, id core.OID, at core.NodeID) {
	if _, exists := sh.cache[id]; !exists {
		if cap := s.cacheCap.Load(); cap >= 0 && int64(len(sh.cache)) >= cap {
			for victim := range sh.cache {
				delete(sh.cache, victim)
				break
			}
		}
	}
	sh.cache[id] = at
}

// Hint suggests where to try first for an object that is not local:
// the freshest of forwarding pointer, home index and cache, falling
// back to the object's origin node.
func (s *Store) Hint(id core.OID) core.NodeID {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if f, ok := sh.forwards[id]; ok {
		return f.to
	}
	if id.Origin == s.self {
		if h, ok := sh.home[id]; ok {
			return h.at
		}
	}
	if at, ok := sh.cache[id]; ok {
		return at
	}
	return id.Origin
}

// InvalidateAt drops the cached hint for id when it still names at — a
// node that just denied knowing the object; a concurrent Learn may
// already have moved the hint on, and that fresh hint survives. The
// node's own entries are left alone: a forward records a departure from
// here, which a not-found answered before it was written cannot refute,
// and the chase that was refuted rewrites it from the origin's newer
// answer (Learn). The origin's home entries only generation-ordered
// reports write.
func (s *Store) InvalidateAt(id core.OID, at core.NodeID) {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if cached, ok := sh.cache[id]; ok && cached == at {
		delete(sh.cache, id)
	}
}

// LocStats aggregates location-table sizes across the shards (for
// diagnostics, tests and the node status line).
type LocStats struct {
	Home     int   // home-index entries (origin objects that left)
	Forwards int   // forwarding pointers at former hosts
	Cache    int   // foreign-object hint-cache entries
	Retired  int64 // forwards deleted by retirement since start
}

// LocStats reports location-table sizes, summed shard by shard.
func (s *Store) LocStats() LocStats {
	var ls LocStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.locMu.Lock()
		ls.Home += len(sh.home)
		ls.Forwards += len(sh.forwards)
		ls.Cache += len(sh.cache)
		sh.locMu.Unlock()
	}
	ls.Retired = s.retired.Load()
	return ls
}

// Debug renders everything the location tables know about one object
// (diagnostics only). home and fwd are the resolved Home/Forward views
// — at the origin a departure is carried by the home entry alone — and
// answer is what Whereabouts tells a chaser, with its generation.
func (s *Store) Debug(id core.OID) string {
	h, hok := s.Home(id)
	f, fok := s.Forward(id)
	a, gen, aok := s.Whereabouts(id)
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	c, cok := sh.cache[id]
	return fmt.Sprintf("self=%s home=%q(%v) fwd=%q(%v) cache=%q(%v) answer=%q@%d(%v)",
		s.self, h, hok, f, fok, c, cok, a, gen, aok)
}
