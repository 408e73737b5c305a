package objmig

// Group migration, target side, and the record every participant keeps
// per migration.
//
// A group travels as a stream of InstallReq frames, all keyed by
// (coordinator, token), and the target runs one state machine over
// them — a small group is simply the stream of length one:
//
//	coordinator                            target
//	-----------                            ------
//	InstallReq{Members, Bytes, snaps…} ──► open: fence check, admission,
//	                                       ledger claim, session; stage
//	InstallReq{snaps…}                 ──► decode + stage (≤ ChunkBytes)
//	…
//	InstallReq{Commit}                 ──► close: InstallBatch, whole
//	                                       group, one shard-aware swap
//
// The group is installed only at the close, so it moves as a unit
// however many frames it takes. Every participant keeps one record per
// migration (xfer).

import (
	"context"
	"errors"
	"slices"
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
	// Lease is how long a participant waits on a silent coordinator
	// before a target discards its staging session and a source host
	// resolves the objects it paused. It must comfortably exceed the
	// worst-case transfer time: the coordinator refuses to commit once
	// half the lease has elapsed. Default 30s; negative disables expiry.
	Lease time.Duration
}

// withDefaults fills the zero fields.
func (c MigrateConfig) withDefaults() MigrateConfig {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = DefaultChunkBytes
	}
	if c.Lease == 0 {
		c.Lease = 30 * time.Second
	}
	return c
}

// sessionKey names one migration at a participant: tokens are only
// unique per coordinator, so the coordinator is part of the key.
type sessionKey struct {
	from  NodeID
	token uint64
}

// xfer is this node's record of one migration, guarded by xferMu:
// whatever the node is for it — the staging session and its ledger
// claim at the target, the members paused at a source, a fence after an
// abort. One timer measures coordinator silence; every frame re-arms
// it. Commit deletes the record; abort or expiry ends everything it
// holds and leaves the fence (see end and resolveExpiredLease).
type xfer struct {
	// The staging session at the target (nil members: none), with the claim.
	members []core.OID      // the expected members, in canonical order
	recs    []*store.Record // recs[i] is members[i] decoded; nil until staged
	staged  int             // members staged so far
	bytes   int64           // snapshot bytes staged so far

	objs   []core.OID // members paused here, at a source
	target NodeID     // the migration's target, asked when the lease runs out

	lease    time.Duration // coordinator silence tolerated; <= 0: never expires
	deadline time.Time     // when the timer is due; a re-arm moves it
	timer    *time.Timer

	fenced     bool // aborted or expired: every later frame is refused
	installing bool // the close's InstallBatch runs outside the lock
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

// openSession admits a transfer and opens its staging session.
func (n *Node) openSession(key sessionKey, req *wire.InstallReq) error {
	if key.from == "" {
		return wire.Errorf(wire.CodeBadRequest, "install frame %d names no coordinator", key.token)
	}
	// Canonical order makes the member list its own index: staging finds
	// a member by binary search, and a duplicate cannot hide in it.
	for i := 1; i < len(req.Members); i++ {
		if !req.Members[i-1].Less(req.Members[i]) {
			return wire.Errorf(wire.CodeBadRequest, "install frame %d lists its members out of canonical order", key.token)
		}
	}
	// The placement admission runs before anything is staged, with this
	// node's authoritative counts, and claims the group's (objects,
	// bytes) in the reservation ledger under the migration's key, so
	// concurrent coordinators cannot collectively overshoot the capacity
	// the veto defends. The coordinator's estimate is a floor (it only
	// knows the members it hosts); what this frame carries is exact.
	// Admission runs under the record lock, so an abort either fences the
	// migration before it or finds the claim in the session it ends.
	bytes := req.Bytes
	if carried := snapshotBytes(req.Snapshots); carried > bytes {
		bytes = carried
	}
	n.xferMu.Lock()
	r := n.xfers[key]
	var err error
	switch {
	case r != nil && r.fenced:
		err = wire.Errorf(wire.CodeDenied, "migration %d from %s was aborted", key.token, key.from)
	case r != nil && r.members != nil:
		err = wire.Errorf(wire.CodeDenied, "migration session %d from %s already open", key.token, key.from)
	default:
		// emit runs the observer: a veto is announced once unlocked.
		if err = n.admitAndReserve(req.Members, bytes, key.from, key.token); err != nil {
			defer n.emit(Event{Kind: EventPlacement, Target: key.from, Outcome: "veto", Objects: oidRefs(req.Members)})
		}
	}
	if err != nil {
		n.xferMu.Unlock()
		return err
	}
	if r == nil {
		r = &xfer{lease: n.migrate.Lease}
		n.xfers[key] = r
	}
	r.members, r.recs = req.Members, make([]*store.Record, len(req.Members))
	// A session whose opening frame also commits is gone before this
	// call returns: it needs no timer.
	if !req.Commit {
		n.arm(key, r, r.lease)
	}
	n.xferMu.Unlock()
	atomic.AddInt64(&n.stats.StreamSessionsOpened, 1)
	n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "begin"})
	return nil
}

// stageSnapshots stages one frame's snapshots into its session.
// Records are decoded here, at staging time, so an unknown type, a
// corrupt state blob or a conflicting live object fails the transfer
// early — the coordinator aborts instead of discovering the problem at
// the close. A failed frame dooms the whole transfer, so it ends the
// migration here as an abort does.
func (n *Node) stageSnapshots(key sessionKey, req *wire.InstallReq) error {
	fail := func(err error) error {
		n.end(key, nil, "abort")
		return err
	}
	// Decode outside the record lock: state blobs can be large. The
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

	n.xferMu.Lock()
	r := n.xfers[key]
	if r == nil || r.members == nil || r.installing {
		n.xferMu.Unlock()
		return wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", key.token, key.from)
	}
	for _, rec := range recs {
		i := sort.Search(len(r.members), func(i int) bool { return !r.members[i].Less(rec.ID) })
		if i == len(r.members) || r.members[i] != rec.ID {
			n.xferMu.Unlock()
			return fail(wire.Errorf(wire.CodeBadRequest, "frame carries %s, not a member of session %d", rec.ID, key.token))
		}
		if r.recs[i] != nil {
			n.xferMu.Unlock()
			return fail(wire.Errorf(wire.CodeBadRequest, "frame re-stages %s in session %d", rec.ID, key.token))
		}
		r.recs[i] = rec
	}
	r.staged += len(recs)
	r.bytes += bytes
	if !req.Commit {
		n.arm(key, r, r.lease)
	}
	n.xferMu.Unlock()

	n.tel.span(req.Trace, telemetry.PhaseStage, start, bytes, len(recs))
	atomic.AddInt64(&n.stats.StreamChunksIn, 1)
	atomic.AddInt64(&n.stats.StreamBytesIn, bytes)
	return nil
}

// commitSession closes a transfer: every expected member must be
// staged, and the whole group is installed in one atomic shard-aware
// batch. A successful install deletes the record — members paused here
// were just replaced by it; on any other exit only the session and its
// claim are gone.
func (n *Node) commitSession(key sessionKey, trace uint64) error {
	n.xferMu.Lock()
	r := n.xfers[key]
	if r == nil || r.members == nil || r.installing {
		n.xferMu.Unlock()
		return wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", key.token, key.from)
	}
	// Released on every exit, and on success only after InstallBatch:
	// the group is briefly counted twice (as residency and as a claim),
	// which never undercounts what the node is committed to.
	defer n.releaseReservation(key.from, key.token)
	members, recs, bytes, start := r.members, r.recs, r.bytes, time.Now()
	var err error
	if missing := len(r.members) - r.staged; missing > 0 {
		err = wire.Errorf(wire.CodeBadRequest,
			"commit of session %d from %s with %d of %d members unstaged", key.token, key.from, missing, len(r.members))
	} else {
		r.installing = true
		n.xferMu.Unlock()
		err = n.store.InstallBatch(recs, key.token)
		n.xferMu.Lock()
		r.installing = false
		n.xferIdle.Broadcast()
	}
	r.members, r.recs, r.staged, r.bytes = nil, nil, 0, 0
	if err == nil || len(r.objs) == 0 {
		n.dropLocked(key)
	}
	n.xferMu.Unlock()
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return re
		}
		return wire.Errorf(wire.CodeInternal, "install: %v", err)
	}
	n.tel.span(trace, telemetry.PhaseInstall, start, bytes, len(recs))
	atomic.AddInt64(&n.stats.ObjectsInstalled, int64(len(recs)))
	n.emit(Event{Kind: EventInstall, Objects: oidRefs(members)})
	n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "commit", Bytes: bytes})
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

// pausedHere adds members this node paused to the migration's record
// and re-arms its timer with the coordinator's lease. A fenced
// migration refuses the pause; the caller rolls it back.
func (n *Node) pausedHere(key sessionKey, target NodeID, paused []*store.Record, lease time.Duration) error {
	n.xferMu.Lock()
	defer n.xferMu.Unlock()
	r := n.xfers[key]
	if r == nil {
		r = &xfer{}
		n.xfers[key] = r
	} else if r.fenced {
		return wire.Errorf(wire.CodeDenied, "migration %d from %s was aborted", key.token, key.from)
	}
	r.objs = slices.Grow(r.objs, len(paused))
	for _, rec := range paused {
		r.objs = append(r.objs, rec.ID)
	}
	r.target, r.lease = target, lease
	n.arm(key, r, lease)
	return nil
}

// arm (re)starts r's timer: d from now the record expires, unless a
// frame re-arms it first. d <= 0 arms nothing. Caller holds xferMu.
func (n *Node) arm(key sessionKey, r *xfer, d time.Duration) {
	if d <= 0 || n.closed.Load() {
		return
	}
	r.deadline = time.Now().Add(d)
	if r.timer == nil {
		r.timer = time.AfterFunc(d, func() { n.expire(key, r) })
		return
	}
	r.timer.Reset(d)
}

// dropLocked deletes key's record and stops its timer; caller holds xferMu.
func (n *Node) dropLocked(key sessionKey) {
	if r := n.xfers[key]; r != nil {
		delete(n.xfers, key)
		if r.timer != nil {
			r.timer.Stop()
		}
	}
}

// end ends the migration at this node, as an abort or an expiry
// (outcome "abort" or "expire"): the record's session and claim are let
// go, its paused members — and any also names — resume, and the record
// stays as the migration's fence, refusing every later frame until its
// timer reaps it at twice the lease, a minute at least. An install in
// flight in the record is waited for first, so what end lets go of can
// no longer change. Unpause checks status and token, so stubs,
// strangers and installed members ignore it.
func (n *Node) end(key sessionKey, also []core.OID, outcome string) {
	n.xferMu.Lock()
	r := n.xfers[key]
	for r != nil && r.installing {
		n.xferIdle.Wait()
		r = n.xfers[key]
	}
	if r == nil {
		r = &xfer{lease: n.migrate.Lease}
		n.xfers[key] = r
	}
	held := *r
	*r = xfer{lease: held.lease, timer: held.timer, fenced: true}
	n.arm(key, r, max(2*r.lease, time.Minute))
	n.xferMu.Unlock()
	if held.members != nil {
		n.releaseReservation(key.from, key.token)
		if outcome == "abort" {
			atomic.AddInt64(&n.stats.StreamAborts, 1)
		} else {
			atomic.AddInt64(&n.stats.StreamSessionsExpired, 1)
		}
		n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: outcome, Bytes: held.bytes})
	}
	for _, rec := range n.store.GetBatch(slices.Concat(also, held.objs)) {
		if rec != nil {
			rec.Unpause(key.token)
		}
	}
}

// expire runs when r's timer fires: the coordinator has been silent for
// a whole lease, or a fence has outlived every frame that could still
// hit it. A record that paused members here goes to resolveExpiredLease;
// a bare session simply ends.
func (n *Node) expire(key sessionKey, r *xfer) {
	n.xferMu.Lock()
	if n.xfers[key] != r || time.Now().Before(r.deadline) {
		n.xferMu.Unlock()
		return // ended, or re-armed after the timer fired
	}
	fenced, paused := r.fenced, len(r.objs) > 0
	elsewhere := paused && r.target != "" && r.target != n.id
	if fenced || elsewhere {
		n.dropLocked(key) // reaped; or the resolution owns r now
	}
	n.xferMu.Unlock()
	switch {
	case paused:
		n.resolveExpiredLease(key, r, elsewhere)
	case !fenced:
		n.end(key, nil, "expire")
	}
}

// resolveExpiredLease decides the outcome of a migration whose
// coordinator went silent while members were paused here. With the
// target here, ending the record is the answer. With the target
// elsewhere, resuming after the target committed the install would
// leave the object live twice, so the target is fenced first and probed
// second: once it holds the fence no install frame still in flight can
// land there (an abort that meets an install waits for it), and the
// probe reads a target that can no longer change. The install is
// atomic, so asking about one member answers for the whole group:
//
//   - the target (authoritatively) hosts the member → the install
//     committed; finish our side of the commit (forwarding stubs).
//   - the target denies knowledge, or authoritatively places the
//     member back here → the install never committed; resume.
//   - anything else (an unconfirmed fence, an unreachable target, a
//     third-party answer) → uncertain; stay paused and re-arm. A
//     stuck-but-paused object is consistent and recoverable, a
//     duplicated one is not.
func (n *Node) resolveExpiredLease(key sessionKey, l *xfer, elsewhere bool) {
	atomic.AddInt64(&n.stats.PauseLeasesExpired, 1)
	n.xferMu.Lock() // with the target here, l is still in the table
	objs, target := l.objs, l.target
	n.xferMu.Unlock()
	verdict := leaseAborted
	if elsewhere {
		verdict = leaseUnknown
		if n.sendAbort(target, nil, key) == nil {
			verdict = n.expiredLeaseVerdict(key, l)
		}
	}
	outcome := "lease-resumed"
	switch verdict {
	case leaseCommitted:
		// Run the commit the coordinator never delivered.
		outcome = "lease-committed"
		n.commitLocal(&wire.CommitReq{Objs: objs, NewHome: target, Token: key.token, From: key.from})
	case leaseAborted:
		n.end(key, objs, "expire")
	case leaseUnknown:
		outcome = "lease-retry"
		n.xferMu.Lock()
		if _, exists := n.xfers[key]; !exists {
			n.xfers[key] = l
			n.arm(key, l, l.lease)
		}
		n.xferMu.Unlock()
	}
	n.emit(Event{Kind: EventMigrateStream, Target: target, Outcome: outcome, Objects: oidRefs(objs)})
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
func (n *Node) expiredLeaseVerdict(key sessionKey, l *xfer) leaseVerdict {
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

// closeXfers stops every record's timer (node shutdown).
func (n *Node) closeXfers() {
	n.xferMu.Lock()
	for key := range n.xfers {
		n.dropLocked(key)
	}
	n.xferMu.Unlock()
}

// sessionCount reports the open staging sessions (tests, diagnostics).
func (n *Node) sessionCount() (count int) {
	n.xferMu.Lock()
	defer n.xferMu.Unlock()
	for _, r := range n.xfers {
		if r.members != nil {
			count++
		}
	}
	return count
}
