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
// migration (xfer); its rules are one pure function, step, and one
// driver, Node.drive, carries out what step decides.

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

// xfer is this node's record of one migration: whatever the node is for
// it — the staging session and its ledger claim at the target, the
// members paused at a source, a fence after an abort. Only step writes
// it; Node.drive keeps it in Node.xfers, with one timer that measures
// coordinator silence.
type xfer struct {
	// The staging session at the target (nil members: none), with the claim.
	members []core.OID      // the expected members, in canonical order
	recs    []*store.Record // recs[i] is members[i] decoded; nil until staged
	staged  int             // members staged so far
	bytes   int64           // snapshot bytes staged so far

	objs   []core.OID // members paused here, at a source
	target NodeID     // the migration's target, asked when the lease runs out

	lease    time.Duration // coordinator silence tolerated; <= 0: never expires
	deadline time.Time     // when the timer is due; zero: none armed
	phase    phase
}

type phase uint8

const (
	phaseLive       phase = iota // holding a session, paused members, or both
	phaseInstalling              // the close's InstallBatch runs unlocked
	phaseFencing                 // the lease fired: the target is being fenced…
	phaseProbing                 // …then asked whether the install committed
	phaseFenced                  // aborted or expired: later frames are refused
)

// input is one thing that happens to a record: a frame, its timer, or
// the answer to something step asked for.
type input struct {
	kind    inputKind
	now     time.Time
	self    NodeID          // this node
	lease   time.Duration   // this node's lease; a pause's: the coordinator's
	members []core.OID      // open
	recs    []*store.Record // open: len(members) empty slots; stage: decoded; pause: paused
	objs    []core.OID      // abort: the members it names
	target  NodeID          // pause
	bytes   int64           // open: the admission estimate; stage: the frame's bytes
	commit  bool            // open, stage: the frame also closes, so arms no timer
	ok      bool            // installed: InstallBatch succeeded; fenced: the target confirmed
	verdict leaseVerdict    // probed
	trace   uint64          // close
}

type inputKind uint8

const (
	inOpen      inputKind = iota + 1 // an install frame names the members
	inStage                          // an install frame carries snapshots
	inClose                          // an install frame commits
	inPause                          // members were paused here
	inCommit                         // Commit
	inAbort                          // Abort, or a frame that failed to decode
	inTimer                          // the timer fired
	inInstalled                      // the close's InstallBatch returned
	inFenced                         // the lease's fence was answered, or failed
	inProbed                         // the lease's probe was answered
)

// effects is what step asks of the driver. The rest of its payload is
// the record as step found it: the target to fence, the members to
// install or depart, and so on.
type effects struct {
	do     effect
	refuse refusal
	bad    core.OID      // refStranger, refRestaged: the member
	arm    time.Duration // effArm: due this long from now
	resume []core.OID    // effUnpause: the members to resume
	also   []core.OID    // effUnpause: and those the abort names
	lease  string        // the expired lease's outcome event
}

type effect uint16

const (
	effWait       effect = 1 << iota // an install is in flight: feed the input again once it ends
	effAdmit                         // admit and claim (a veto undoes the transition); "begin"
	effRelease                       // release the ledger claim
	effArm                           // (re)start the timer
	effDrop                          // delete the record, stop its timer
	effUnpause                       // resume and also
	effInstall                       // InstallBatch, then feed inInstalled
	effFence                         // Abort to the target, then feed inFenced
	effProbe                         // Locate a member at the target, then feed inProbed
	effCommit                        // depart the paused members towards the target
	effInstalled                     // ObjectsInstalled, "commit"
	effAborted                       // StreamAborts, "abort"
	effExpired                       // StreamSessionsExpired, "expire"
	effLeaseFired                    // PauseLeasesExpired
)

type refusal uint8

const (
	refAborted   refusal = iota + 1 // fenced
	refOpen                         // a session is already open
	refNoSession                    // no session to stage into or close
	refStranger                     // a snapshot of no member
	refRestaged                     // a member staged twice
	refUnstaged                     // a close with members missing
)

// step is the record's rules: what in does to x, and what the driver
// must do about it. It takes no lock, reads no clock and does no I/O,
// so a search can run it over every interleaving of inputs
// (migsession_model_test.go). The one thing it writes in place is a
// staged record's slot in x.recs.
func step(x xfer, in input) (xfer, effects) {
	var eff effects
	if in.kind == inTimer && (x.deadline.IsZero() || in.now.Before(x.deadline) ||
		x.phase == phaseFencing || x.phase == phaseProbing) {
		return x, eff // stale: re-armed, stopped, or the lease is resolving
	}
	if x.phase == phaseInstalling && (in.kind == inAbort || in.kind == inCommit || in.kind == inTimer) {
		eff.do = effWait // so what ending lets go of can no longer change
		return x, eff
	}
	switch in.kind {
	case inOpen:
		switch {
		case x.phase == phaseFenced:
			eff.refuse = refAborted
		case x.members != nil:
			eff.refuse = refOpen
		default:
			if len(x.objs) == 0 { // a new record
				x.lease = in.lease
			}
			x.members, x.recs, x.staged, x.bytes = in.members, in.recs, 0, 0
			eff.do |= effAdmit
			if !in.commit {
				x = x.arm(in.now, x.lease, &eff)
			}
		}
	case inStage:
		if x.members == nil || x.phase == phaseInstalling {
			eff.refuse = refNoSession
			break
		}
		for _, rec := range in.recs {
			i := sort.Search(len(x.members), func(i int) bool { return !x.members[i].Less(rec.ID) })
			if i == len(x.members) || x.members[i] != rec.ID || x.recs[i] != nil {
				eff.refuse, eff.bad = refStranger, rec.ID
				if i < len(x.members) && x.members[i] == rec.ID {
					eff.refuse = refRestaged
				}
				x = end(x, in, &eff) // a failed frame dooms the transfer
				return x, eff
			}
			x.recs[i] = rec
		}
		x.staged, x.bytes = x.staged+len(in.recs), x.bytes+in.bytes
		if !in.commit {
			x = x.arm(in.now, x.lease, &eff)
		}
	case inClose:
		switch {
		case x.members == nil || x.phase == phaseInstalling:
			eff.refuse = refNoSession
		case x.staged < len(x.members):
			eff.refuse = refUnstaged
			eff.do |= effRelease
			x.members, x.recs, x.staged, x.bytes = nil, nil, 0, 0
		default:
			x.phase = phaseInstalling
			eff.do |= effInstall
		}
	case inInstalled:
		if x.phase != phaseInstalling {
			break
		}
		// Released only now: the group is briefly counted twice (as
		// residency and as a claim), which never undercounts.
		x.phase = phaseLive
		eff.do |= effRelease
		if in.ok {
			eff.do |= effInstalled
			x.objs = nil // the members paused here were just replaced
		}
		x.members, x.recs, x.staged, x.bytes = nil, nil, 0, 0
	case inPause:
		if x.phase == phaseFenced {
			eff.refuse = refAborted
			break
		}
		x.objs = slices.Grow(x.objs, len(in.recs))
		for _, rec := range in.recs {
			x.objs = append(x.objs, rec.ID)
		}
		x.target, x.lease = in.target, in.lease
		x = x.arm(in.now, in.lease, &eff)
	case inCommit:
		if x.phase == phaseFenced {
			break // the fence outlives every late frame
		}
		if x.members != nil {
			eff.do |= effRelease
		}
		x = xfer{}
	case inAbort:
		x = end(x, in, &eff)
	case inTimer:
		x.deadline = time.Time{}
		switch {
		case x.phase == phaseFenced:
			x = xfer{} // the fence outlived every frame that could hit it
		case len(x.objs) == 0:
			x = end(x, in, &eff)
		case x.target != "" && x.target != in.self:
			// Resuming after the target committed the install would leave
			// the group live twice: fence the target first, so no install
			// frame still in flight can land there, then probe it.
			x.phase = phaseFencing
			eff.do |= effLeaseFired | effFence
		default:
			// The target is this node (or unrecorded): a committed install
			// already replaced the paused records, so ending is the answer.
			eff.do |= effLeaseFired
			eff.lease = "lease-resumed"
			x = end(x, in, &eff)
		}
	case inFenced:
		switch {
		case x.phase != phaseFencing:
		case in.ok:
			x.phase = phaseProbing
			eff.do |= effProbe
		default:
			x = x.retry(in, &eff)
		}
	case inProbed:
		switch {
		case x.phase != phaseProbing:
		case in.verdict == leaseCommitted: // run the commit the coordinator never delivered
			eff.do |= effCommit
			eff.lease = "lease-committed"
			x = xfer{}
		case in.verdict == leaseAborted:
			eff.lease = "lease-resumed"
			x = end(x, in, &eff)
		default:
			x = x.retry(in, &eff)
		}
	}
	if x.phase == phaseLive && x.members == nil && len(x.objs) == 0 {
		eff.do |= effDrop
		x = xfer{}
	}
	return x, eff
}

// end ends everything x holds, as an abort (an Abort, a frame that
// failed) or an expiry (the timer, the lease's verdict): the session
// and its claim are let go, the members paused here — and any the abort
// names — resume, and the record stays as the migration's fence, which
// refuses every later opening frame and pause until its timer reaps it
// at twice the lease, a minute at least. Unpause checks status and
// token, so stubs, strangers and installed members ignore it.
func end(x xfer, in input, eff *effects) xfer {
	if x.members != nil {
		ended := effAborted
		if in.kind == inTimer || in.kind == inProbed {
			ended = effExpired
		}
		eff.do |= effRelease | ended
	}
	eff.do |= effUnpause
	eff.resume, eff.also = x.objs, in.objs
	if x.lease == 0 {
		x.lease = in.lease
	}
	return xfer{lease: x.lease, phase: phaseFenced}.arm(in.now, max(2*x.lease, time.Minute), eff)
}

// retry leaves an expired lease unresolved: the members stay paused —
// a stuck-but-paused object is consistent, a duplicated one is not —
// and the timer tries again a lease later.
func (x xfer) retry(in input, eff *effects) xfer {
	x.phase = phaseLive
	eff.lease = "lease-retry"
	return x.arm(in.now, x.lease, eff)
}

// arm (re)starts the timer: d from now the record expires, unless an
// input re-arms it first. d <= 0 arms nothing.
func (x xfer) arm(now time.Time, d time.Duration, eff *effects) xfer {
	if d > 0 {
		x.deadline, eff.arm = now.Add(d), d
		eff.do |= effArm
	}
	return x
}

// xferSlot is one entry of Node.xfers: the record and its timer.
type xferSlot struct {
	x     xfer
	timer *time.Timer
}

// drive feeds in to key's record and carries out what step decides; it
// is the only code that reads or writes Node.xfers. An effect that asks
// something of the store or another node (the install, the fence, the
// probe) runs unlocked, and its answer is the next input. It returns
// the frame's refusal, or the install's failure.
func (n *Node) drive(key sessionKey, in input) (err error) {
	trace, start := in.trace, time.Now()
	for in.kind != 0 {
		in.self = n.id
		if in.kind != inPause {
			in.lease = n.migrate.Lease
		}
		var (
			s       *xferSlot
			held, x xfer
			eff     effects
		)
		n.xferMu.Lock()
		for {
			held, s = xfer{}, n.xfers[key]
			if s != nil {
				held = s.x
			}
			in.now = time.Now()
			if x, eff = step(held, in); eff.do&effWait == 0 {
				break
			}
			n.xferIdle.Wait()
		}
		// Admission runs under the record lock, so an abort either fences
		// the migration before it or finds the claim in the session it ends.
		if eff.do&effAdmit != 0 {
			if err := n.admitAndReserve(in.members, in.bytes, key.from, key.token); err != nil {
				n.xferMu.Unlock()
				n.emit(Event{Kind: EventPlacement, Target: key.from, Outcome: "veto", Objects: oidRefs(in.members)})
				return err
			}
		}
		switch {
		case eff.do&effDrop == 0 && s == nil:
			s = &xferSlot{x: x}
			n.xfers[key] = s
		case eff.do&effDrop == 0:
			s.x = x
		case s != nil:
			delete(n.xfers, key)
			if s.timer != nil {
				s.timer.Stop()
			}
		}
		if eff.do&(effArm|effDrop) == effArm && !n.closed.Load() {
			if s.timer == nil {
				s.timer = time.AfterFunc(eff.arm, func() { _ = n.drive(key, input{kind: inTimer}) })
			} else {
				s.timer.Reset(eff.arm)
			}
		}
		if in.kind == inInstalled {
			n.xferIdle.Broadcast()
		}
		n.xferMu.Unlock()

		if eff.do&effRelease != 0 {
			n.releaseReservation(key.from, key.token)
		}
		switch {
		case eff.do&effAdmit != 0:
			atomic.AddInt64(&n.stats.StreamSessionsOpened, 1)
			n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "begin"})
		case eff.do&effInstalled != 0:
			n.tel.span(trace, telemetry.PhaseInstall, start, held.bytes, len(held.members))
			atomic.AddInt64(&n.stats.ObjectsInstalled, int64(len(held.members)))
			n.emit(Event{Kind: EventInstall, Objects: oidRefs(held.members)})
			n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "commit", Bytes: held.bytes})
		case eff.do&effAborted != 0:
			atomic.AddInt64(&n.stats.StreamAborts, 1)
			n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "abort", Bytes: held.bytes})
		case eff.do&effExpired != 0:
			atomic.AddInt64(&n.stats.StreamSessionsExpired, 1)
			n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: "expire", Bytes: held.bytes})
		}
		if eff.do&effUnpause != 0 {
			for _, rec := range n.store.GetBatch(slices.Concat(eff.also, eff.resume)) {
				if rec != nil {
					rec.Unpause(key.token)
				}
			}
		}
		if eff.do&effLeaseFired != 0 {
			atomic.AddInt64(&n.stats.PauseLeasesExpired, 1)
		}
		if eff.do&effCommit != 0 {
			n.commitLocal(&wire.CommitReq{Objs: held.objs, NewHome: held.target, Token: key.token, From: key.from})
		}
		if eff.lease != "" {
			n.emit(Event{Kind: EventMigrateStream, Target: held.target, Outcome: eff.lease, Objects: oidRefs(held.objs)})
		}
		if eff.refuse != 0 {
			return eff.refusal(key, held)
		}
		in = input{}
		switch {
		case eff.do&effInstall != 0:
			start = time.Now()
			ierr := n.store.InstallBatch(held.recs, key.token)
			in = input{kind: inInstalled, ok: ierr == nil}
			err = ierr
			if ierr != nil && !errors.As(ierr, new(*wire.RemoteError)) {
				err = wire.Errorf(wire.CodeInternal, "install: %v", ierr)
			}
		case eff.do&effFence != 0:
			in = input{kind: inFenced, ok: n.sendAbort(held.target, nil, key) == nil}
		case eff.do&effProbe != 0:
			in = input{kind: inProbed, verdict: n.probe(held.target, held.objs[0])}
		}
	}
	return err
}

// refusal words the refusal of a frame of migration key, held as step
// found it.
func (eff *effects) refusal(key sessionKey, held xfer) error {
	switch eff.refuse {
	case refAborted:
		return wire.Errorf(wire.CodeDenied, "migration %d from %s was aborted", key.token, key.from)
	case refOpen:
		return wire.Errorf(wire.CodeDenied, "migration session %d from %s already open", key.token, key.from)
	case refStranger:
		return wire.Errorf(wire.CodeBadRequest, "frame carries %s, not a member of session %d", eff.bad, key.token)
	case refRestaged:
		return wire.Errorf(wire.CodeBadRequest, "frame re-stages %s in session %d", eff.bad, key.token)
	case refUnstaged:
		return wire.Errorf(wire.CodeBadRequest, "commit of session %d from %s with %d of %d members unstaged",
			key.token, key.from, len(held.members)-held.staged, len(held.members))
	}
	return wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", key.token, key.from)
}

// handleInstall is the target side of every group migration: it feeds
// the record the steps the frame carries, in order — open (Members),
// stage (Snapshots), close (Commit).
func (n *Node) handleInstall(req *wire.InstallReq) (*wire.InstallResp, error) {
	key := sessionKey{from: req.From, token: req.Token}
	if len(req.Members) == 0 && len(req.Snapshots) == 0 && !req.Commit {
		return nil, wire.Errorf(wire.CodeBadRequest, "install frame %d from %s carries nothing", req.Token, req.From)
	}
	if len(req.Members) > 0 {
		if key.from == "" {
			return nil, wire.Errorf(wire.CodeBadRequest, "install frame %d names no coordinator", key.token)
		}
		// Canonical order makes the member list its own index: staging finds
		// a member by binary search, and a duplicate cannot hide in it.
		for i := 1; i < len(req.Members); i++ {
			if !req.Members[i-1].Less(req.Members[i]) {
				return nil, wire.Errorf(wire.CodeBadRequest, "install frame %d lists its members out of canonical order", key.token)
			}
		}
		// Admission claims the group's (objects, bytes) in the reservation
		// ledger before anything is staged, so concurrent coordinators
		// cannot collectively overshoot the capacity the veto defends. The
		// coordinator's estimate is a floor (it only knows the members it
		// hosts); what this frame carries is exact.
		open := input{kind: inOpen, members: req.Members, recs: make([]*store.Record, len(req.Members)),
			bytes: max(req.Bytes, snapshotBytes(req.Snapshots)), commit: req.Commit}
		if err := n.drive(key, open); err != nil {
			return nil, err
		}
	}
	if len(req.Snapshots) > 0 {
		// Decoded here, unlocked, so an unknown type, a corrupt state blob
		// or a conflicting live object fails the transfer early — and ends
		// it, as an abort does. The stage span covers decode and
		// bookkeeping: the target-side cost of one frame.
		start, recs := time.Now(), make([]*store.Record, len(req.Snapshots))
		for i := range req.Snapshots {
			rec, err := n.decodeSnapshot(&req.Snapshots[i])
			if err == nil {
				err = n.store.Installable(rec.ID, key.token)
			}
			if err != nil {
				_ = n.drive(key, input{kind: inAbort})
				return nil, err
			}
			recs[i] = rec
		}
		bytes := snapshotBytes(req.Snapshots)
		if err := n.drive(key, input{kind: inStage, recs: recs, bytes: bytes, commit: req.Commit}); err != nil {
			return nil, err
		}
		n.tel.span(req.Trace, telemetry.PhaseStage, start, bytes, len(recs))
		atomic.AddInt64(&n.stats.StreamChunksIn, 1)
		atomic.AddInt64(&n.stats.StreamBytesIn, bytes)
	}
	if req.Commit {
		if err := n.drive(key, input{kind: inClose, trace: req.Trace}); err != nil {
			return nil, err
		}
	}
	return &wire.InstallResp{}, nil
}

// snapshotBytes sums the encoded-size estimates of a snapshot batch.
func snapshotBytes(snaps []wire.Snapshot) int64 {
	var bytes int64
	for i := range snaps {
		bytes += int64(wire.SnapshotSize(&snaps[i]))
	}
	return bytes
}

type leaseVerdict int

const (
	leaseAborted leaseVerdict = iota
	leaseCommitted
	leaseUnknown
)

// probe asks the migration target, already fenced, whether the install
// of probe's group committed. Locate answers with authoritative
// knowledge only (hosting, forwarding pointers, the origin's home index
// — never cached hearsay), and the install is atomic, so one member
// speaks for the group:
//
//   - the target hosts the member → the install committed.
//   - the target denies knowledge, or places the member back here → it
//     never committed.
//   - anything else (an unreachable target, a third-party answer it
//     cannot vouch for) → unknown.
func (n *Node) probe(target NodeID, probe core.OID) leaseVerdict {
	actx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp wire.LocateResp
	err := n.call(actx, target, wire.KLocate, &wire.LocateReq{Obj: probe}, &resp)
	switch {
	case err == nil && resp.At == target:
		return leaseCommitted
	case err == nil && resp.At == n.id:
		return leaseAborted // the target's authoritative view points back here
	case err == nil && probe.Origin != target:
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
	for key, s := range n.xfers {
		delete(n.xfers, key)
		if s.timer != nil {
			s.timer.Stop()
		}
	}
	n.xferMu.Unlock()
}

// sessionCount reports the open staging sessions (tests, diagnostics).
func (n *Node) sessionCount() (count int) {
	n.xferMu.Lock()
	defer n.xferMu.Unlock()
	for _, s := range n.xfers {
		if s.x.members != nil {
			count++
		}
	}
	return count
}
