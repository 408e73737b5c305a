package objmig

// Group migration, target side and shared config.
//
// A group travels as a stream of InstallReq frames, all keyed by
// (coordinator, token), and the target runs one state machine over
// them — a small group is simply the stream of length one:
//
//	coordinator                            target
//	-----------                            ------
//	InstallReq{Members, Bytes, snaps…} ──► open: fence check, admission,
//	                                       ledger claim, session (TTL
//	                                       janitor armed); stage snaps
//	InstallReq{snaps…}                 ──► decode + stage (≤ ChunkBytes)
//	…
//	InstallReq{Commit}                 ──► close: InstallBatch, whole
//	                                       group, one shard-aware swap
//
// Each step runs iff the frame carries its field, so the frame of a
// group that fits one chunk carries all three and the same code opens,
// stages and closes it. The target stages decoded records in the
// session and installs the whole group only at the close, so the
// paper's "group moves as a unit" invariant survives chunking: an abort
// or crash anywhere before the close leaves the target exactly as it
// was. Two failure detectors make a dead coordinator harmless:
//
//   - the session TTL discards a staging session that stops receiving
//     traffic, so the target never leaks half-streamed state;
//   - the pause lease (see PauseReq.Lease) fires at source hosts when
//     neither commit nor abort arrives, and resolves the migration's
//     outcome against the target — resuming the objects only once the
//     install provably never happened (see resolveExpiredLease).

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/telemetry"
	"objmig/internal/wire"
)

// DefaultChunkBytes is the default size bound of one InstallReq
// frame's encoded snapshot payload.
const DefaultChunkBytes = 256 << 10

// MigrateConfig tunes the group-migration transfer. The zero value
// selects the documented defaults.
type MigrateConfig struct {
	// ChunkBytes bounds the encoded snapshot bytes per InstallReq frame
	// (and per PauseResp, via PauseReq.MaxBytes) — the coordinator's
	// peak per-frame buffering. A single snapshot larger than the bound
	// still travels (in a frame of its own). Default 256 KiB; negative
	// disables the bound (every host's members in one frame).
	ChunkBytes int
	// SessionTTL is how long the target keeps a staging session that
	// receives no traffic before discarding it (coordinator death).
	// Default 30s; negative disables expiry.
	SessionTTL time.Duration
	// PauseLease is how long a source host keeps objects paused for a
	// migration that neither commits nor aborts before resuming them
	// on its own. It must comfortably exceed the worst-case transfer
	// time: the coordinator refuses to commit once half the lease has
	// elapsed, so a lagging migration aborts instead of racing the
	// auto-resume. Default 30s; negative disables the lease.
	PauseLease time.Duration
}

// withDefaults fills the zero fields.
func (c MigrateConfig) withDefaults() MigrateConfig {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = DefaultChunkBytes
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Second
	}
	if c.PauseLease == 0 {
		c.PauseLease = 30 * time.Second
	}
	return c
}

// sessionKey identifies a staging session. Tokens are only unique per
// coordinator, so the coordinator's identity is part of the key.
type sessionKey struct {
	from  NodeID
	token uint64
}

// migSession is one in-progress transfer at the target: decoded records
// staged frame by frame until the close or a discard. All mutation
// happens under the node's sessMu; the struct itself has no lock.
type migSession struct {
	members []core.OID      // the expected members, in canonical order
	recs    []*store.Record // recs[i] is members[i] decoded; nil until staged
	staged  int             // members staged so far
	bytes   int64           // snapshot bytes staged so far
	touched time.Time       // last traffic; re-checked by the TTL janitor
	timer   *time.Timer     // TTL janitor; nil when the session needs none
}

// handleInstall is the target side of every group migration: it runs
// the steps the frame carries, in order — open (Members), stage
// (Snapshots), close (Commit).
func (n *Node) handleInstall(req *wire.InstallReq) (*wire.InstallResp, error) {
	key := sessionKey{from: req.From, token: req.Token}
	if len(req.Members) == 0 && len(req.Snapshots) == 0 && !req.Commit {
		return nil, wire.Errorf(wire.CodeBadRequest, "install frame %d from %s carries nothing", req.Token, req.From)
	}
	if len(req.Members) > 0 {
		if err := n.openSession(key, req); err != nil {
			return nil, err
		}
	}
	if len(req.Snapshots) > 0 {
		if err := n.stageSnapshots(key, req); err != nil {
			return nil, err
		}
	}
	if req.Commit {
		if err := n.commitSession(key, req.Trace); err != nil {
			return nil, err
		}
	}
	return &wire.InstallResp{}, nil
}

// openSession admits a transfer and starts its staging session.
func (n *Node) openSession(key sessionKey, req *wire.InstallReq) error {
	if key.from == "" {
		return wire.Errorf(wire.CodeBadRequest, "install frame %d names no coordinator", key.token)
	}
	n.sessMu.Lock()
	_, fenced := n.tombs[key]
	n.sessMu.Unlock()
	if fenced {
		return wire.Errorf(wire.CodeDenied, "migration %d from %s was aborted", key.token, key.from)
	}
	// Canonical order makes the member list its own index: staging finds
	// a member by binary search, and a duplicate cannot hide in it.
	for i := 1; i < len(req.Members); i++ {
		if !req.Members[i-1].Less(req.Members[i]) {
			return wire.Errorf(wire.CodeBadRequest, "install frame %d lists its members out of canonical order", key.token)
		}
	}
	// The placement admission runs before anything is staged: a
	// coordinator with a stale load view learns here — with this node's
	// authoritative counts — that the group will not fit. When the group
	// is admitted, its (objects, bytes) are claimed in the reservation
	// ledger under the session's own key, so concurrent coordinators
	// cannot collectively overshoot the capacity the veto defends: each
	// admission sees every earlier claim as if it were already resident.
	// The coordinator's estimate is a floor (it only knows the members it
	// hosts); what this frame already carries is exact, and for a group
	// that fits one frame that is the whole group.
	bytes := req.Bytes
	if carried := snapshotBytes(req.Snapshots); carried > bytes {
		bytes = carried
	}
	if _, err := n.admitAndReserve(req.Members, bytes, key.from, key.token); err != nil {
		return err
	}
	s := &migSession{
		members: req.Members,
		recs:    make([]*store.Record, len(req.Members)),
		touched: time.Now(),
	}
	n.sessMu.Lock()
	if _, dup := n.sessions[key]; dup {
		n.sessMu.Unlock()
		// Keep the claim: it carries the same (coordinator, token) key
		// as the open session's, so the ledger entry still backs the
		// transfer that is actually in flight.
		return wire.Errorf(wire.CodeDenied, "migration session %d from %s already open", key.token, key.from)
	}
	// The janitor guards a session that waits for further frames; one
	// whose opening frame also commits is gone before this call returns.
	if ttl := n.migrate.SessionTTL; ttl > 0 && !req.Commit {
		s.timer = time.AfterFunc(ttl, func() { n.expireSession(key) })
	}
	n.sessions[key] = s
	n.sessMu.Unlock()
	atomic.AddInt64(&n.stats.StreamSessionsOpened, 1)
	n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "begin"})
	return nil
}

// stageSnapshots stages one frame's snapshots into its session.
// Records are decoded here, at staging time, so an unknown type, a
// corrupt state blob or a conflicting live object fails the transfer
// early — the coordinator aborts instead of discovering the problem at
// the close. A failed frame dooms the whole transfer, so the session is
// discarded on any error.
func (n *Node) stageSnapshots(key sessionKey, req *wire.InstallReq) error {
	fail := func(err error) error {
		n.dropSession(key, "abort")
		return err
	}
	// Decode outside the session lock: state blobs can be large. The
	// stage span covers decode and bookkeeping — the target-side cost
	// of one frame.
	start := time.Now()
	recs := make([]*store.Record, len(req.Snapshots))
	for i := range req.Snapshots {
		snap := &req.Snapshots[i]
		rec, err := n.decodeSnapshot(snap)
		if err == nil {
			err = n.store.Installable(snap.ID, key.token)
		}
		if err != nil {
			return fail(err)
		}
		recs[i] = rec
	}
	bytes := snapshotBytes(req.Snapshots)

	n.sessMu.Lock()
	s, ok := n.sessions[key]
	if !ok {
		n.sessMu.Unlock()
		return wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", key.token, key.from)
	}
	for _, rec := range recs {
		i := sort.Search(len(s.members), func(i int) bool { return !s.members[i].Less(rec.ID) })
		if i == len(s.members) || s.members[i] != rec.ID {
			n.sessMu.Unlock()
			return fail(wire.Errorf(wire.CodeBadRequest, "frame carries %s, not a member of session %d", rec.ID, key.token))
		}
		if s.recs[i] != nil {
			n.sessMu.Unlock()
			return fail(wire.Errorf(wire.CodeBadRequest, "frame re-stages %s in session %d", rec.ID, key.token))
		}
		s.recs[i] = rec
	}
	s.staged += len(recs)
	s.bytes += bytes
	s.touched = time.Now()
	if s.timer != nil {
		s.timer.Reset(n.migrate.SessionTTL)
	}
	n.sessMu.Unlock()

	n.tel.span(req.Trace, telemetry.PhaseStage, start, bytes, len(recs))
	atomic.AddInt64(&n.stats.StreamChunksIn, 1)
	atomic.AddInt64(&n.stats.StreamBytesIn, bytes)
	return nil
}

// commitSession closes a transfer: every expected member must be
// staged, and the whole group is installed in one atomic shard-aware
// batch. Whatever the outcome, the session and its claim are gone
// afterwards.
func (n *Node) commitSession(key sessionKey, trace uint64) error {
	s := n.takeSession(key)
	if s == nil {
		return wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", key.token, key.from)
	}
	// Released on every exit, and on success only after InstallBatch:
	// between the install and the release the group is briefly counted
	// twice (as residency and as a claim), which errs on the safe side —
	// hosted plus reserved never undercounts what the node is committed
	// to.
	defer n.releaseReservation(key.from, key.token)
	if missing := len(s.members) - s.staged; missing > 0 {
		return wire.Errorf(wire.CodeBadRequest,
			"commit of session %d from %s with %d of %d members unstaged", key.token, key.from, missing, len(s.members))
	}
	start := time.Now()
	if err := n.store.InstallBatch(s.recs, key.token); err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return re
		}
		return wire.Errorf(wire.CodeInternal, "install: %v", err)
	}
	// Members that were paused *here* (the target hosted some of the
	// group) were just replaced by the installation; their lease must
	// not fire later and there is nothing left for it to resume.
	n.cancelPauseLease(key)
	n.tel.span(trace, telemetry.PhaseInstall, start, s.bytes, len(s.recs))
	installed := make([]Ref, len(s.recs))
	for i, rec := range s.recs {
		installed[i] = Ref{OID: rec.ID}
	}
	atomic.AddInt64(&n.stats.ObjectsInstalled, int64(len(s.recs)))
	n.emit(Event{Kind: EventInstall, Objects: installed})
	n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "commit", Bytes: s.bytes})
	return nil
}

// snapshotBytes sums the encoded-size estimates of a snapshot batch.
func snapshotBytes(snaps []wire.Snapshot) int64 {
	var bytes int64
	for i := range snaps {
		bytes += int64(wire.SnapshotSize(&snaps[i]))
	}
	return bytes
}

// takeSession removes a staging session from the table and stops its
// janitor; nil when none is open under key.
func (n *Node) takeSession(key sessionKey) *migSession {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	s, ok := n.sessions[key]
	if !ok {
		return nil
	}
	delete(n.sessions, key)
	if s.timer != nil {
		s.timer.Stop()
	}
	return s
}

// expireSession is the TTL janitor: a session that stopped receiving
// traffic is discarded, staged records and all. Fired by the session's
// timer; a commit or abort that won the race removed the session from
// the map first, making this a no-op, and a chunk that refreshed the
// session while the fired timer waited on the lock (Reset cannot stop
// an already-fired AfterFunc) is detected via the activity stamp.
func (n *Node) expireSession(key sessionKey) {
	n.sessMu.Lock()
	if s, ok := n.sessions[key]; ok && s.timer != nil {
		if remain := n.migrate.SessionTTL - time.Since(s.touched); remain > 0 {
			s.timer.Reset(remain) // refreshed concurrently: still live
			n.sessMu.Unlock()
			return
		}
	}
	n.sessMu.Unlock()
	if n.dropSession(key, "expire") {
		atomic.AddInt64(&n.stats.StreamSessionsExpired, 1)
	}
}

// dropSession discards a staging session, reporting whether it
// existed. outcome labels the emitted event ("abort" or "expire").
// The session's capacity claim is released whether or not the session
// itself still exists: an abort can overtake the opening frame between
// its admission and its session.
func (n *Node) dropSession(key sessionKey, outcome string) bool {
	n.releaseReservation(key.from, key.token)
	s := n.takeSession(key)
	if s == nil {
		return false
	}
	if outcome == "abort" {
		atomic.AddInt64(&n.stats.StreamAborts, 1)
	}
	n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: outcome, Bytes: s.bytes})
	return true
}

// abortFence plants a tombstone for an aborted migration: opening
// frames for (coordinator, token) are refused afterwards (and later
// frames find no session), so a frame that was in flight when the abort
// (or a lease resume) happened cannot land late and duplicate objects
// the sources already resumed.
// Tokens are never reused, so a tombstone can only ever block the one
// migration it names. Old tombstones are pruned lazily.
func (n *Node) abortFence(key sessionKey) {
	ttl := 2 * n.migrate.SessionTTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	now := time.Now()
	n.sessMu.Lock()
	for k, t := range n.tombs {
		if now.Sub(t) > ttl {
			delete(n.tombs, k)
		}
	}
	n.tombs[key] = now
	n.sessMu.Unlock()
}

// closeSessions discards every staging session (node shutdown).
func (n *Node) closeSessions() {
	n.sessMu.Lock()
	sessions := n.sessions
	n.sessions = make(map[sessionKey]*migSession)
	n.sessMu.Unlock()
	for _, s := range sessions {
		if s.timer != nil {
			s.timer.Stop()
		}
	}
}

// sessionCount reports the number of open staging sessions (tests,
// diagnostics).
func (n *Node) sessionCount() int {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	return len(n.sessions)
}

// --- Pause leases (source side) ---

// pauseLease tracks the objects a host paused for one migration
// (keyed, like staging sessions, by coordinator and token — tokens are
// only node-unique) and the timer that resolves their fate if the
// coordinator vanishes.
type pauseLease struct {
	objs    []core.OID
	target  NodeID // migration target; consulted when the lease fires
	lease   time.Duration
	touched time.Time
	timer   *time.Timer
}

// armPauseLease (re)arms a migration's lease: newly paused objects
// join the covered set and the clock restarts — a multi-batch pause
// keeps extending its own deadline, so the lease measures coordinator
// silence, not total migration time.
func (n *Node) armPauseLease(key sessionKey, target NodeID, objs []core.OID, lease time.Duration) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	l, ok := n.leases[key]
	if !ok {
		l = &pauseLease{target: target, lease: lease}
		l.timer = time.AfterFunc(lease, func() { n.firePauseLease(key) })
		n.leases[key] = l
	} else {
		l.lease = lease
		l.timer.Reset(lease)
	}
	l.touched = time.Now()
	l.objs = append(l.objs, objs...)
}

// cancelPauseLease disarms a migration's lease (commit or abort
// arrived).
func (n *Node) cancelPauseLease(key sessionKey) {
	n.leaseMu.Lock()
	l, ok := n.leases[key]
	if ok {
		delete(n.leases, key)
		l.timer.Stop()
	}
	n.leaseMu.Unlock()
}

// firePauseLease handles coordinator silence on a migration that
// paused objects here. A timer that raced a concurrent re-arm (Reset
// cannot stop an already-fired AfterFunc) re-checks the last-activity
// stamp and backs off. A genuinely silent migration is resolved, not
// blindly resumed — see resolveExpiredLease.
func (n *Node) firePauseLease(key sessionKey) {
	n.leaseMu.Lock()
	l, ok := n.leases[key]
	if !ok {
		n.leaseMu.Unlock()
		return
	}
	if remain := l.lease - time.Since(l.touched); remain > 0 {
		l.timer.Reset(remain) // re-armed concurrently: not actually silent
		n.leaseMu.Unlock()
		return
	}
	delete(n.leases, key)
	n.leaseMu.Unlock()
	n.resolveExpiredLease(key, l)
}

// resolveExpiredLease decides an abandoned migration's outcome. The
// danger is the window after the target committed the install but
// before our CommitReq arrived: resuming then would leave the object
// live in two places. The install is atomic — all members or none — so
// asking the target about one member answers for the whole group:
//
//   - the target (authoritatively) hosts the member → the install
//     committed; finish our side of the commit (forwarding stubs).
//   - the target denies knowledge, or authoritatively places the
//     member back here → the install never committed; resume.
//   - anything else (unreachable target, a third-party answer) →
//     uncertain; stay paused and re-arm the lease. A stuck-but-paused
//     object is consistent and recoverable, a duplicated one is not.
func (n *Node) resolveExpiredLease(key sessionKey, l *pauseLease) {
	atomic.AddInt64(&n.stats.PauseLeasesExpired, 1)
	outcome := "lease-resumed"
	verdict := n.expiredLeaseVerdict(key, l)
	if verdict == leaseAborted && l.target != "" && l.target != n.id {
		// Fence before resuming: plant the abort tombstone at the
		// target so an install frame still in flight cannot land after
		// the objects come back to life here. If the fence cannot be
		// confirmed, stay paused and retry — consistency over
		// availability.
		if n.sendAbort(l.target, nil, key) != nil {
			verdict = leaseUnknown
		}
	}
	switch verdict {
	case leaseCommitted:
		// Run the commit the coordinator never delivered.
		outcome = "lease-committed"
		n.commitLocal(&wire.CommitReq{Objs: l.objs, NewHome: l.target, Token: key.token, From: key.from})
	case leaseAborted:
		for _, rec := range n.store.GetBatch(l.objs) {
			if rec != nil {
				rec.Unpause(key.token)
			}
		}
	case leaseUnknown:
		outcome = "lease-retry"
		n.leaseMu.Lock()
		if _, exists := n.leases[key]; !exists {
			l.touched = time.Now()
			l.timer = time.AfterFunc(l.lease, func() { n.firePauseLease(key) })
			n.leases[key] = l
		}
		n.leaseMu.Unlock()
	}
	refs := make([]Ref, len(l.objs))
	for i, oid := range l.objs {
		refs[i] = Ref{OID: oid}
	}
	n.emit(Event{Kind: EventMigrateStream, Target: l.target, Outcome: outcome, Objects: refs})
}

type leaseVerdict int

const (
	leaseAborted leaseVerdict = iota
	leaseCommitted
	leaseUnknown
)

// expiredLeaseVerdict asks the migration target whether the install
// committed. Locate answers with authoritative knowledge only
// (hosting, forwarding pointers, the origin's home index — never
// cached hearsay), which is what makes the verdict trustworthy.
func (n *Node) expiredLeaseVerdict(key sessionKey, l *pauseLease) leaseVerdict {
	if len(l.objs) == 0 {
		return leaseAborted
	}
	if l.target == "" || l.target == n.id {
		// No target recorded (legacy pause), or the target is this very
		// node: a committed install already replaced our paused records,
		// making Unpause a token-checked no-op. Blind resume is safe.
		return leaseAborted
	}
	probe := l.objs[0]
	actx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp wire.LocateResp
	err := n.call(actx, l.target, wire.KLocate, &wire.LocateReq{Obj: probe}, &resp)
	switch {
	case err == nil && resp.At == l.target:
		return leaseCommitted
	case err == nil && resp.At == n.id:
		return leaseAborted // the target's authoritative view points back here
	case err == nil && probe.Origin != l.target:
		// The target answered with a forward to a third node. For an
		// object it did not create, the only way the target owns a
		// forwarding pointer is having hosted the object: the install
		// committed and the group has since migrated on. (When the
		// target IS the origin, a third-party answer may come from its
		// stale home index instead — that case stays unknown below.)
		return leaseCommitted
	case isCode(err, wire.CodeNotFound):
		return leaseAborted // target never installed (nor ever forwarded) it
	default:
		return leaseUnknown
	}
}

// closePauseLeases stops every lease timer (node shutdown).
func (n *Node) closePauseLeases() {
	n.leaseMu.Lock()
	leases := n.leases
	n.leases = make(map[sessionKey]*pauseLease)
	n.leaseMu.Unlock()
	for _, l := range leases {
		l.timer.Stop()
	}
}
