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
//  2. Retirement. Forwarding state is dropped eagerly once the origin's
//     home index is confirmed authoritative (ConfirmDeparted), and any
//     survivors age out under a TTL (CompactForwards), so a node that
//     hosted a million transient objects does not keep a million dead
//     stubs. The hint cache is capped per shard.
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

// DefaultForwardTTL is how long an unconfirmed forwarding pointer (and
// its Gone stub) survives before CompactForwards may reap it. Long
// enough that any chaser holding a hint from before the departure has
// retried through the origin; short enough that transient hosting
// leaves no permanent residue.
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
// maps for the OIDs that hash here. The table lock and the location
// lock are separate so a record may update location state while its own
// mutex is held (forward-pointer commit) without inverting against
// table scans that take the table lock first. Lock order:
// tabMu → Record.Mu → locMu.
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
	// fwdTTL is the forward/stub age-out in nanoseconds (<=0 disables
	// TTL compaction).
	fwdTTL atomic.Int64
	// retired counts stubs deleted by retirement (confirm + TTL).
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

// SetForwardTTL sets the forward/stub age-out. Non-positive disables
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

// Get looks a record up, forwarding stubs included.
func (s *Store) Get(id core.OID) (*Record, bool) {
	sh := s.shardOf(id)
	sh.tabMu.RLock()
	rec, ok := sh.objs[id]
	sh.tabMu.RUnlock()
	return rec, ok
}

// Hosted returns the record only when the object actually lives here
// (active or paused). Forwarding stubs are excluded: client fast paths
// must fall through to the hint chain instead of spinning on their own
// stale stub.
func (s *Store) Hosted(id core.OID) (*Record, bool) {
	rec, ok := s.Get(id)
	if !ok || rec.IsGone() {
		return nil, false
	}
	return rec, true
}

// Lookup is the hot-path combination of Hosted and Hint: it resolves
// the record if the object lives here, and otherwise the best location
// hint — touching only the object's own shard.
func (s *Store) Lookup(id core.OID) (*Record, core.NodeID) {
	if rec, ok := s.Hosted(id); ok {
		return rec, s.self
	}
	return nil, s.Hint(id)
}

// GetBatch resolves many records at once, grouping the lookups by
// shard so each involved stripe lock is taken exactly once — the batch
// counterpart of Get for large commit/abort sets, where a per-OID walk
// would pay one lock round trip per object. The result aligns with
// ids; missing objects yield nil entries.
func (s *Store) GetBatch(ids []core.OID) []*Record {
	out := make([]*Record, len(ids))
	if len(ids) == 0 {
		return out
	}
	// Bucket the positions per shard first, so each stripe lock is
	// held only for its own objects' lookups.
	var perShard [ShardCount][]int
	for i, id := range ids {
		sh := ShardIndex(id)
		perShard[sh] = append(perShard[sh], i)
	}
	for sh := range perShard {
		idxs := perShard[sh]
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

// HostedCount returns the number of live (non-forwarding) records.
func (s *Store) HostedCount() int {
	n := 0
	s.Range(func(rec *Record) bool {
		if !rec.IsGone() {
			n++
		}
		return true
	})
	return n
}

// HostedStats returns the live record count together with the
// approximate resident state bytes (the sum of Record.StateBytes) in
// one shard walk — the node's load-gossip sample source.
func (s *Store) HostedStats() (count, bytes int64) {
	s.Range(func(rec *Record) bool {
		if !rec.IsGone() {
			count++
			bytes += rec.StateBytes
		}
		return true
	})
	return count, bytes
}

// InstallBatch registers arriving records as part of migration token.
// The batch is all-or-nothing: either every record is installed (and
// its location state updated to "here") or none is.
//
// An existing record may only be replaced if it is a forwarding stub
// (the object is coming back) or was paused by this very migration (a
// same-node reinstall). Replacing a record paused by a *different*
// migration would orphan that migration's pause and duplicate the
// object. The check-then-commit runs with every involved shard's table
// lock held (acquired in ascending stripe order, so concurrent
// installs cannot deadlock) and every replaced record's lock held
// across the swap, which closes that race without any store-wide lock.
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
		replaceable := old.Status == StatusGone ||
			(old.Status == StatusPaused && old.Token == token)
		if !replaceable {
			unlockRecs()
			unlockShards()
			return wire.Errorf(wire.CodeDenied,
				"object %s is live at %s (concurrent migration)", rec.ID, s.self)
		}
		olds[i] = old
	}
	// Commit phase: swap the records in and turn the replaced ones
	// into wake-up markers pointing here.
	for i, rec := range recs {
		s.shardOf(rec.ID).objs[rec.ID] = rec
		if old := olds[i]; old != nil {
			old.becomeStubLocked(s.self)
		}
	}
	unlockRecs()
	unlockShards()
	for _, rec := range recs {
		s.Arrived(rec.ID)
	}
	return nil
}

// Installable is the advisory twin of InstallBatch's replaceability
// check, used while a streaming migration stages chunks: it reports
// whether installing id as part of migration token would currently be
// admissible. A live local record that is neither a forwarding stub nor
// paused by this very token dooms the session, and catching that at
// staging time aborts the stream early instead of at commit. Advisory
// only — the state can change before commit, and InstallBatch re-checks
// authoritatively under the shard locks.
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
	if old.Status == StatusGone || (old.Status == StatusPaused && old.Token == token) {
		return nil
	}
	return wire.Errorf(wire.CodeDenied,
		"object %s is live at %s (concurrent migration)", id, s.self)
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
	_, hosted := s.Hosted(id)
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
// the next hop — no forwarding pointer (and hence, after stub
// retirement, no residue) is kept. At a foreign host a forwarding
// pointer is written, stamped for TTL aging. A stale generation (an
// out-of-order commit replay) never rolls a fresher entry back.
//
// Departed may run under Record.Mu (the Depart commit hook), so it must
// not touch the object table.
func (s *Store) Departed(id core.OID, to core.NodeID, gen uint64) {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	delete(sh.cache, id)
	if id.Origin == s.self {
		if h, ok := sh.home[id]; !ok || gen >= h.gen {
			sh.home[id] = homeEntry{at: to, gen: gen}
		}
		return
	}
	if f, ok := sh.forwards[id]; !ok || gen >= f.gen {
		sh.forwards[id] = fwdEntry{to: to, gen: gen, stamp: time.Now()}
	}
}

// HomeUpdate records a (possibly delayed) report that objects created
// here now live at the given node. Reports about foreign objects are
// ignored. gens, when non-nil, aligns with ids and carries each
// object's departure generation: a report older than the stored entry
// is dropped, so reports arriving out of order cannot point the index
// backwards. Each object's shard is locked individually — a large
// batch never stalls unrelated lookups.
func (s *Store) HomeUpdate(ids []core.OID, gens []uint64, at core.NodeID) {
	for i, id := range ids {
		if id.Origin != s.self {
			continue
		}
		var gen uint64
		if i < len(gens) {
			gen = gens[i]
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
	if _, ok := s.Hosted(id); ok {
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
// the target of a redirect, or the host that answered. At the object's
// origin it writes nothing: the home index takes only generation-ordered
// reports (Departed, HomeUpdate, Arrived), so a stale reply landing
// after a fresher report cannot point it at a host whose stub already
// retired. Elsewhere a forwarding pointer is updated in
// place — the classic forward-addressing chain shortening: once we hear
// where the object really is, our pointer skips the intermediate hops.
func (s *Store) Learn(id core.OID, at core.NodeID) {
	if at == "" || at == s.self || id.Origin == s.self {
		return
	}
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if f, ok := sh.forwards[id]; ok {
		f.to = at
		sh.forwards[id] = f
		return
	}
	s.cacheInsertLocked(sh, id, at)
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

// InvalidateAt discredits location knowledge for id that still points
// at `at` — a node that just authoritatively denied knowing the
// object. It covers the cached hint and the forwarding pointer, but
// only when the entry still names the refuted node: a concurrent
// update may already have moved the knowledge on, and that fresh state
// must survive the stale chaser's complaint.
//
// A discredited forward is re-pointed at the object's origin rather
// than deleted: the entry still has redirect duty — Forward serves it
// to third-party chasers (the pause path of a group migration relies
// on old hosts answering with a next hop, not a dead end) — and the
// origin is always a correct next hop. Deleting would also livelock
// the local chase itself when the stale entry is an orphan nothing
// retires (a chain-shortened forward whose ack can no longer match, or
// one written from hearsay by Learn): Hint would keep serving the
// refuted node forever.
//
// The origin's own knowledge (its home entries) is never touched here:
// an origin with neither record nor location entry answers not-found
// definitively, so erasing its last knowledge on a chaser's say-so
// would turn a stale hint into a hard failure. Stale origin entries
// heal through generation-ordered home updates while chases ride their
// deadline.
func (s *Store) InvalidateAt(id core.OID, at core.NodeID) {
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if cached, ok := sh.cache[id]; ok && cached == at {
		delete(sh.cache, id)
	}
	if f, ok := sh.forwards[id]; ok && f.to == at {
		if at == id.Origin || id.Origin == s.self {
			// The origin itself denied (the object is truly unknown),
			// or the home index is the authority here anyway.
			delete(sh.forwards, id)
		} else {
			f.to = id.Origin
			sh.forwards[id] = f
		}
	}
}

// LocStats aggregates location-table sizes across the shards (for
// diagnostics, tests and the node status line).
type LocStats struct {
	Home     int   // home-index entries (origin objects that left)
	Forwards int   // forwarding pointers at former hosts
	Cache    int   // foreign-object hint-cache entries
	Retired  int64 // stubs deleted by retirement since start
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
// — at the origin a departure is carried by the home entry alone.
func (s *Store) Debug(id core.OID) string {
	h, hok := s.Home(id)
	f, fok := s.Forward(id)
	sh := s.shardOf(id)
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	c, cok := sh.cache[id]
	return fmt.Sprintf("self=%s home=%q(%v) fwd=%q(%v) cache=%q(%v)",
		s.self, h, hok, f, fok, c, cok)
}
