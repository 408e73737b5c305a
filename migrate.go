package objmig

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/affinity"
	"objmig/internal/core"
	"objmig/internal/rpc"
	"objmig/internal/store"
	"objmig/internal/telemetry"
	"objmig/internal/wire"
)

// edgesOf fetches the attachment adjacency of an object at its current
// host and reports the host that answered.
func (n *Node) edgesOf(ctx context.Context, oid core.OID) ([]wire.EdgeRec, NodeID, error) {
	resp, host, err := routed(ctx, n, oid, "edges", wire.KEdges, &wire.EdgesReq{Obj: oid}, n.handleEdges, nil)
	if err != nil {
		return nil, "", err
	}
	return resp.Edges, host, nil
}

// closureOf walks the attachment graph from root and returns the
// working set a move in the given alliance drags along, together with
// each member's (believed) host. This is the distributed twin of
// core.Closure: same traversal semantics, remote adjacency.
func (n *Node) closureOf(ctx context.Context, root core.OID, al core.AllianceID) (map[core.OID]NodeID, error) {
	members := make(map[core.OID]NodeID)
	queue := []core.OID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if _, seen := members[cur]; seen {
			continue
		}
		edges, host, err := n.edgesOf(ctx, cur)
		if err != nil {
			return nil, fmt.Errorf("closure of %s: %w", root, err)
		}
		members[cur] = host
		for _, e := range edges {
			if n.attachMode == core.AttachATransitive && e.Alliance != al {
				continue
			}
			if _, seen := members[e.Other]; !seen {
				queue = append(queue, e.Other)
			}
		}
	}
	return members, nil
}

// sortedOIDs returns the member OIDs in canonical order (deterministic
// protocol messages).
func sortedOIDs(members map[core.OID]NodeID) []core.OID {
	out := make([]core.OID, 0, len(members))
	for oid := range members {
		out = append(out, oid)
	}
	core.SortOIDs(out)
	return out
}

// migrateGroup transfers the member objects to target as one unit, as
// a stream of InstallReq frames (see migsession.go for the target's
// side):
//
//   - The opening frame names the full member set. A group on a single
//     host has its first chunk-bounded sub-batch paused before the
//     target is contacted, so the opening frame already carries it —
//     and when that drained the group (the common case: autopilot
//     moves of small closures, single objects) the same frame commits,
//     and the migration is one frame to the target. A multi-host group
//     opens before pausing anything: an unreachable or full target
//     fails the migration with minimal cleanup.
//
//   - Whatever is left is paused host by host, concurrently, in
//     chunk-bounded sub-batches, each forwarded as a continuation frame
//     the moment it arrives, and one closing frame commits — the target
//     installs the whole group in one shard-aware swap only then, so
//     the coordinator never materialises more than about one chunk per
//     host and the "group moves as a unit" invariant is preserved.
//
//   - r is the relocation the transfer carries out (see relocate): its
//     admit rule may veto the migration on any paused snapshot — one
//     veto aborts the whole group before commit — and its mutate edits
//     each snapshot before it ships. r.trace rides every wire body so
//     each participating node stamps its telemetry spans with it (0:
//     untraced, histograms still record).
//
// Every shipped snapshot gets its departure generation bumped on the
// coordinator — the one place every snapshot passes through — so each
// object's location reports for this migration outrank its earlier
// ones.
//
// On any failure before the commit the pauses are rolled back, the
// target's session is discarded, and the system is unchanged. Every
// failing exit aborts every host that may hold a pause — including
// veto exits after only some hosts responded. A group already live at
// its target, this node, does not travel at all (see stay).
func (n *Node) migrateGroup(ctx context.Context, r relocation, members map[core.OID]NodeID) ([]core.OID, error) {
	ids := sortedOIDs(members)
	switch stayed, err := n.stay(r, ids, members); {
	case err != nil:
		return nil, err
	case stayed:
		return ids, nil
	}
	t := &transfer{
		relocation: r, n: n, token: n.nextToken(), start: time.Now(),
		ids:  ids,
		gens: make(map[core.OID]uint64, len(members)),
	}
	// Group members by host, hosts in deterministic order. A group's
	// neighbours in canonical order mostly share a host, so the last
	// group is tried first.
	for _, oid := range t.ids {
		h := members[oid]
		g := len(t.groups) - 1
		for g >= 0 && t.groups[g].host != h {
			g--
		}
		if g < 0 {
			g = len(t.groups)
			t.groups = append(t.groups, hostGroup{host: h})
		}
		t.groups[g].objs = append(t.groups[g].objs, oid)
	}
	sort.Slice(t.groups, func(i, j int) bool { return t.groups[i].host < t.groups[j].host })

	if err := t.run(ctx); err != nil {
		// An undecided commit must not be rolled back (see send); every
		// other failure rolls the whole transfer back.
		if !t.undecided {
			t.abort()
		}
		return nil, err
	}
	return n.finishGroupMigration(ctx, t)
}

// stay carries out r for a working set already live at its target,
// this node: like the paper's stayed move-block it only records r's lock
// (or refix) on the members — no token, pause, snapshot, frame or
// advisory. Under the members' record locks, taken in canonical
// (ascending OID) order, every member is admitted before any is stamped,
// so one veto leaves the set untouched. It reports false, having changed
// nothing, unless the walk placed every member here and each is active;
// the transfer then meets the race, busy set or denial as it always did.
func (n *Node) stay(r relocation, ids []core.OID, members map[core.OID]NodeID) (bool, error) {
	if r.target != n.id {
		return false, nil
	}
	var buf [8]*store.Record
	recs := buf[:0]
	for _, oid := range ids {
		rec, ok := n.store.Get(oid)
		if !ok || members[oid] != n.id {
			return false, nil
		}
		recs = append(recs, rec)
	}
	locked := 0
	defer func() {
		for _, rec := range recs[:locked] {
			rec.Mu.Unlock()
		}
	}()
	for _, rec := range recs {
		rec.Mu.Lock()
		locked++
		if rec.Status != store.StatusActive {
			return false, nil
		}
	}
	for i, rec := range recs {
		if err := r.admit(ids[i], &rec.Pol); err != nil {
			return true, err
		}
	}
	for i, rec := range recs {
		r.mutate(ids[i], &rec.Pol)
	}
	return true, nil
}

// transfer is one group migration in flight at its coordinator: the
// relocation it carries out plus the state of its frames.
type transfer struct {
	relocation
	n      *Node
	token  uint64
	start  time.Time
	ids    []core.OID  // every member, canonical order
	groups []hostGroup // the members by host, hosts ascending

	mu        sync.Mutex          // guards gens: the per-host workers stamp concurrently
	gens      map[core.OID]uint64 // departure generation of every shipped snapshot
	bytesOut  atomic.Int64        // snapshot bytes the frames carried
	undecided bool                // the committing frame failed ambiguously
}

// hostGroup is the part of a migrating group that lives on one host.
type hostGroup struct {
	host NodeID
	objs []core.OID
}

// run sends the transfer's frames: the opening one, whatever
// continuation frames the group needs, the closing one.
func (t *transfer) run(ctx context.Context) error {
	// The opening frame. Its byte estimate is the summed state sizes of
	// the members hosted here; members living on other hosts are not
	// inspected (that would cost a round trip per host before anything
	// is even admitted), so the estimate is a floor.
	open := &wire.InstallReq{Members: t.ids}
	for _, oid := range t.ids {
		if rec, ok := t.n.store.Get(oid); ok {
			open.Bytes += rec.StateBytes
		}
	}
	pending := t.groups // what is still to pause, per host
	if len(pending) == 1 {
		batch, rest, err := t.pause(ctx, pending[0].host, pending[0].objs)
		if err != nil {
			return err
		}
		open.Snapshots, open.Commit = batch, len(rest) == 0
		pending = []hostGroup{{host: pending[0].host, objs: rest}}
	}
	if err := t.send(ctx, open); err != nil || open.Commit {
		return err
	}

	// Pause and stream, hosts in parallel. Each host worker drains its
	// host in chunk-bounded pause sub-batches and forwards every
	// sub-batch to the target as one frame. The first error cancels the
	// others.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	for _, g := range pending {
		wg.Add(1)
		go func(g hostGroup) {
			defer wg.Done()
			if err := t.drain(sctx, g.host, g.objs); err != nil {
				failOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return t.send(ctx, &wire.InstallReq{Commit: true})
}

// drain pauses rest at host h sub-batch by sub-batch, one continuation
// frame each.
func (t *transfer) drain(ctx context.Context, h NodeID, rest []core.OID) error {
	for len(rest) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch, left, err := t.pause(ctx, h, rest)
		if err != nil {
			return err
		}
		if err := t.send(ctx, &wire.InstallReq{Snapshots: batch}); err != nil {
			return err
		}
		rest = left
	}
	return nil
}

// pause pauses one chunk-bounded sub-batch of objs at host h (locally
// or over the wire) and runs it through the admission and mutation
// hooks. Every snapshot that will ship gets its departure generation
// stamped here. The pause span covers the whole round trip: the
// request, the host-side pause wait and snapshot encode, and the reply
// carrying the snapshots.
func (t *transfer) pause(ctx context.Context, h NodeID, objs []core.OID) (batch []wire.Snapshot, rest []core.OID, err error) {
	n := t.n
	req := &wire.PauseReq{
		Objs: objs, Token: t.token,
		MaxBytes: int64(n.migrate.ChunkBytes), Lease: n.migrate.Lease,
		From: n.id, Target: t.target, Trace: t.trace,
	}
	start := time.Now()
	resp, err := deliver(ctx, n, h, wire.KPause, req, func(req *wire.PauseReq) (*wire.PauseResp, error) {
		return n.handlePause(ctx, req)
	})
	if err != nil {
		return nil, nil, err
	}
	n.tel.span(t.trace, telemetry.PhasePause, start, 0, len(resp.Snapshots))
	if len(resp.Snapshots) == 0 {
		return nil, nil, wire.Errorf(wire.CodeInternal, "pause at %s made no progress", h)
	}
	for i := range resp.Snapshots {
		s := &resp.Snapshots[i]
		if err := t.admit(s.ID, &s.Pol); err != nil {
			return nil, nil, err
		}
		s.Gen++
		t.mu.Lock()
		t.gens[s.ID] = s.Gen
		t.mu.Unlock()
		t.mutate(s.ID, &s.Pol)
	}
	return resp.Snapshots, resp.Pending, nil
}

// send ships one frame of the transfer to the target. A frame that
// carries Commit is the point of no return, so it is guarded before and
// its failure is classified after.
func (t *transfer) send(ctx context.Context, req *wire.InstallReq) error {
	n := t.n
	req.Token, req.From, req.Trace = t.token, n.id, t.trace
	// Lease guard: committing close to the lease's edge could race the
	// sources' lease machinery and duplicate objects. A transfer that
	// burned more than half the lease (a pause that crawled through a
	// busy drain, a slow stream) aborts instead.
	if lease := n.migrate.Lease; req.Commit && lease > 0 && time.Since(t.start) > lease/2 {
		return wire.Errorf(wire.CodeDenied,
			"migration %d consumed over half the %v lease; aborted to stay clear of the sources' lease recovery", t.token, lease)
	}
	bytes := snapshotBytes(req.Snapshots)
	sent := time.Now()
	if _, err := deliver(ctx, n, t.target, wire.KInstall, req, n.handleInstall); err != nil {
		// For a committing frame the failure's nature matters: a definite
		// answer from the target proves nothing installed, and aborting
		// is safe. An ambiguous one (lost ack, expired context) leaves the
		// outcome unknown, so the sources stay paused for their leases to
		// resolve against the target; blind-aborting could resume sources
		// whose state is live at the target. Only with leases disabled is
		// the blind abort the lesser evil (nothing else would ever unpause
		// the sources).
		if req.Commit && !(definiteFailure(err) || n.migrate.Lease <= 0) {
			t.undecided = true
		}
		return err
	}
	if len(req.Snapshots) > 0 {
		// The gauges count payload frames, so StreamMaxChunkBytes is the
		// coordinator's true peak migration-frame size.
		n.tel.span(t.trace, telemetry.PhaseStream, sent, bytes, len(req.Snapshots))
		atomic.AddInt64(&n.stats.StreamChunksOut, 1)
		atomic.AddInt64(&n.stats.StreamBytesOut, bytes)
		maxInt64(&n.stats.StreamMaxChunkBytes, bytes)
		t.bytesOut.Add(bytes)
	}
	return nil
}

// abort rolls the whole transfer back: every host that may hold a pause
// and the target end the migration (see end) — each resumes what it
// paused, discards what it staged and keeps the migration's fence. Each
// gets one abort: a target that also hosts members gets theirs.
func (t *transfer) abort() {
	key := sessionKey{from: t.n.id, token: t.token}
	target := false
	for _, g := range t.groups {
		target = target || g.host == t.target
		_ = t.n.sendAbort(g.host, g.objs, key)
	}
	if !target {
		_ = t.n.sendAbort(t.target, nil, key)
	}
}

// definiteFailure reports whether err proves the request had no remote
// effect: an authoritative refusal from the remote (the request was
// received, processed and answered), or a delivery failure from before
// the request ever left (dial or send). Everything else — a lost ack,
// an expired context, a connection that died mid-call — is ambiguous:
// the remote may have processed the request.
func definiteFailure(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) ||
		errors.Is(err, rpc.ErrDialFailed) ||
		errors.Is(err, rpc.ErrSendFailed)
}

// collided reports whether a group-migration failure means the working
// set collided with another migration: a member moved between the
// closure walk and its pause — the believed host answered with a
// redirect (its forward) or with not-found (the forward was already
// retired once the origin confirmed the departure — see
// ConfirmDeparted) — or another migration holds a member paused
// (CodeMigrating). Either way the migration was not wrong, only early;
// callers re-walk the closure at once, and the walk waits the other
// migration out.
func collided(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) &&
		(re.Code == wire.CodeMoved || re.Code == wire.CodeNotFound || re.Code == wire.CodeMigrating)
}

// finishGroupMigration is the tail of a transfer, entered once the
// group is durably installed at the target: lift the coordinator's
// affinity observations, commit forwarding pointers at the old hosts,
// advise the origins, account and announce.
func (n *Node) finishGroupMigration(ctx context.Context, t *transfer) ([]core.OID, error) {
	ids, target, gens, trace := t.ids, t.target, t.gens, t.trace

	// The objects are leaving this node: lift the coordinator's
	// affinity observations now (commit drops them) so they can ride
	// the origin advisories as gossip. A same-node transfer keeps its
	// counters.
	var obs []affinity.Obs
	if target != n.id {
		obs = n.aff.Take(ids)
	}

	// Phase 3: commit forwarding pointers at the old hosts. The
	// target's own paused records were replaced by the installation.
	// A host that cannot be reached is retried in the background, and
	// its lease resolves the outcome against the target as the
	// backstop — the remaining hosts still get their commit now.
	var commitErr error
	commitStart := time.Now()
	for _, g := range t.groups {
		if g.host == target {
			continue
		}
		req := &wire.CommitReq{Objs: g.objs, NewHome: target, Token: t.token, From: n.id,
			Gens: gensFor(gens, g.objs), Trace: trace}
		if _, err := deliver(ctx, n, g.host, wire.KCommit, req, n.handleCommit); err != nil {
			n.retryCommit(g.host, req)
			if commitErr == nil {
				commitErr = fmt.Errorf("objmig: commit at %s failed (objects are at %s): %w", g.host, target, err)
			}
		}
	}
	n.tel.span(trace, telemetry.PhaseCommit, commitStart, 0, len(ids))
	if commitErr != nil {
		// The objects are installed at the target; report the partial
		// failure.
		return ids, commitErr
	}

	// Phase 4: advise the origins (asynchronous, best effort).
	n.notifyOrigins(ids, target, obs, gens, trace)
	atomic.AddInt64(&n.stats.MigrationsOut, 1)
	atomic.AddInt64(&n.stats.ObjectsMovedOut, int64(len(ids)))
	moved := oidRefs(ids)
	n.emit(Event{Kind: EventMigrateStream, Target: target, Outcome: "streamed",
		Bytes: t.bytesOut.Load(), Objects: moved})
	n.emit(Event{Kind: EventMigration, Target: target, Objects: moved})
	return ids, nil
}

// retryCommit keeps delivering a commit whose first attempt failed:
// the install is already durable at the target, so the old host must
// eventually learn it. Bounded — after the retries give up, the host's
// lease resolves the outcome against the target on its own.
func (n *Node) retryCommit(h NodeID, req *wire.CommitReq) {
	n.retry(10, 500*time.Millisecond, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return n.call(ctx, h, wire.KCommit, req, &wire.CommitResp{})
	})
}

// sendAbort tells node h that migration key is off: h ends it (see
// abortLocal), resuming objs as well. Best effort, on a fresh context —
// the migration's own context may already be cancelled.
func (n *Node) sendAbort(h NodeID, objs []core.OID, key sessionKey) error {
	req := &wire.AbortReq{Objs: objs, Token: key.token, From: key.from}
	actx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := deliver(actx, n, h, wire.KAbort, req, n.handleAbort)
	return err
}

// notifyOrigins advises the moved objects' origin nodes of their new
// home: one HomeUpdate RPC per remote origin (see advise), which also
// carries the coordinator's affinity observations as gossip. Each
// object is reported with its own departure generation.
func (n *Node) notifyOrigins(ids []core.OID, at NodeID, obs []affinity.Obs, gens map[core.OID]uint64, trace uint64) {
	byOrigin := make(map[NodeID][]core.OID)
	for _, oid := range ids {
		byOrigin[oid.Origin] = append(byOrigin[oid.Origin], oid)
	}
	var affByOrigin map[NodeID][]wire.AffinityObs
	if len(obs) > 0 {
		affByOrigin = make(map[NodeID][]wire.AffinityObs)
		for _, o := range obs {
			affByOrigin[o.Obj.Origin] = append(affByOrigin[o.Obj.Origin],
				wire.AffinityObs{Obj: o.Obj, From: o.From, Count: o.Count})
		}
	}
	for origin, objs := range byOrigin {
		if origin == n.id {
			// This node is the origin: update the home index directly
			// and fold the lifted observations straight back in — the
			// same warm-affinity knowledge a remote origin would merge
			// from the gossip.
			start := time.Now()
			n.store.HomeUpdate(objs, gensFor(gens, objs), at)
			n.tel.span(trace, telemetry.PhaseDirUpdate, start, 0, len(objs))
			n.mergeAffinityGossip(affByOrigin[origin])
			continue
		}
		if origin == at {
			// Installation already updated the target's tables, but
			// the lifted observations must still travel — the object
			// converging onto its creator is the autopilot's most
			// common outcome, and the new host should start warm. Send
			// a gossip-only advisory.
			if aff := affByOrigin[origin]; len(aff) > 0 {
				n.advise(origin, &wire.HomeUpdate{At: at, Aff: aff, Trace: trace})
			}
			continue
		}
		n.advise(origin, &wire.HomeUpdate{Objs: objs, Gens: gensFor(gens, objs), At: at,
			Aff: affByOrigin[origin], Trace: trace})
	}
}

// handlePause pauses and snapshots local objects for a migration.
//
// With a positive MaxBytes the response is size-bounded: objects are
// paused and snapshotted in request order until the cumulative encoded
// size exceeds the budget, and the untouched rest is returned as
// Pending for the coordinator to re-request — one pause sub-batch
// becomes one streamed chunk. At least one object is always processed
// so oversized objects cannot stall the stream. A failure rolls back
// only this call's pauses; earlier sub-batches of the same token stay
// paused in the migration's record and are covered by the coordinator's
// abort (and, should the coordinator be gone, by the record's lease).
func (n *Node) handlePause(ctx context.Context, req *wire.PauseReq) (*wire.PauseResp, error) {
	start := time.Now()
	var done []*store.Record
	rollback := func() {
		for _, rec := range done {
			rec.Unpause(req.Token)
		}
	}
	resp := &wire.PauseResp{}
	var bytes int64
	for i, oid := range req.Objs {
		if req.MaxBytes > 0 && bytes >= req.MaxBytes {
			resp.Pending = req.Objs[i:]
			break
		}
		rec, ok := n.store.Get(oid)
		if !ok {
			rollback()
			return nil, n.whereabouts(oid)
		}
		if err := rec.Pause(ctx, req.Token); err != nil {
			rollback()
			var re *wire.RemoteError
			if errors.As(err, &re) {
				return nil, re
			}
			return nil, wire.Errorf(wire.CodeDenied, "pause %s: %v", oid, err)
		}
		done = append(done, rec)
		t, ok := n.typeByName(rec.TypeName)
		if !ok {
			rollback()
			return nil, wire.Errorf(wire.CodeUnknownType, "type %q not registered at %s", rec.TypeName, n.id)
		}
		snap, err := rec.Snapshot(t.encodeState)
		if err != nil {
			rollback()
			return nil, wire.Errorf(wire.CodeInternal, "snapshot %s: %v", oid, err)
		}
		bytes += int64(wire.SnapshotSize(&snap))
		resp.Snapshots = append(resp.Snapshots, snap)
	}
	// A fenced migration refuses the pause; it is rolled back.
	pause := input{kind: inPause, recs: done, target: req.Target, lease: req.Lease}
	if err := n.drive(sessionKey{from: req.From, token: req.Token}, pause); err != nil {
		rollback()
		return nil, err
	}
	n.tel.span(req.Trace, telemetry.PhaseSnapshot, start, bytes, len(done))
	return resp, nil
}

// handleCommit finalises departures of local paused records: a commit
// ends the migration's record, and commitLocal departs the objects.
func (n *Node) handleCommit(req *wire.CommitReq) (*wire.CommitResp, error) {
	_ = n.drive(sessionKey{from: req.From, token: req.Token}, input{kind: inCommit})
	n.commitLocal(req)
	return &wire.CommitResp{}, nil
}

// commitLocal finalises departures in one store call (see store.Depart):
// every object paused by the commit's token leaves the object table,
// and its one location entry — the forward, or at the origin the home
// entry — names the new host. A departure to the object's own origin
// keeps no forward at all (see store.Departed): no home report will
// ever confirm it. The host's affinity observations for the departed
// objects are lifted and forwarded to the objects' origins as gossip —
// in a multi-host group migration the coordinator can only gossip its
// own counters, so each departing host ships its own. The amortised
// forward sweep is advanced.
func (n *Node) commitLocal(req *wire.CommitReq) {
	start := time.Now()
	departed := n.store.Depart(req.Objs, req.Gens, req.Token, req.NewHome)
	if len(departed) == 0 {
		return
	}
	n.store.MaybeCompact(len(departed))
	n.tel.span(req.Trace, telemetry.PhaseDirUpdate, start, 0, len(departed))
	n.gossipDeparted(departed, req.NewHome)
}

// gensFor aligns the stamped departure generations with an OID list
// (zero for objects that never produced a snapshot).
func gensFor(gens map[core.OID]uint64, ids []core.OID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = gens[id]
	}
	return out
}

// gossipDeparted lifts this host's observations for objects that just
// departed towards at and routes them to the objects' origins as
// gossip-only advisories (the migration coordinator sends the actual
// home updates). On the coordinator itself this is a no-op: its
// observations were already Taken before the commit phase.
func (n *Node) gossipDeparted(ids []core.OID, at NodeID) {
	obs := n.aff.Take(ids)
	if len(obs) == 0 {
		// Nothing to gossip; still forget the entries (Take skips the
		// deletes when the tracker is disabled).
		n.aff.Drop(ids)
		return
	}
	byOrigin := make(map[NodeID][]wire.AffinityObs)
	for _, o := range obs {
		byOrigin[o.Obj.Origin] = append(byOrigin[o.Obj.Origin],
			wire.AffinityObs{Obj: o.Obj, From: o.From, Count: o.Count})
	}
	for origin, aff := range byOrigin {
		if origin == n.id {
			// This host is the origin: keep the knowledge warm locally.
			n.mergeAffinityGossip(aff)
			continue
		}
		n.advise(origin, &wire.HomeUpdate{At: at, Aff: aff})
	}
}

// handleAbort rolls back local pauses.
func (n *Node) handleAbort(req *wire.AbortReq) (*wire.AbortResp, error) {
	n.abortLocal(req)
	return &wire.AbortResp{}, nil
}

// abortLocal ends the migration here (see end): everything this node's
// record of it holds is let go — not only the members req.Objs names,
// which resume too — and the record stays as the migration's fence.
func (n *Node) abortLocal(req *wire.AbortReq) {
	_ = n.drive(sessionKey{from: req.From, token: req.Token}, input{kind: inAbort, objs: req.Objs})
}

// Migrate moves an object (with the working set attached in the global
// context) to the target node. It respects fixing and transient-
// placement locks.
func (n *Node) Migrate(ctx context.Context, ref Ref, target NodeID) error {
	return n.MigrateIn(ctx, NoAlliance, ref, target)
}

// MigrateIn is Migrate issued inside an alliance: under A-transitive
// attachment only the alliance's attachments travel.
func (n *Node) MigrateIn(ctx context.Context, al AllianceID, ref Ref, target NodeID) error {
	_, err := n.migrateRequest(ctx, &wire.MigrateReq{Obj: ref.OID, Target: target, Alliance: al})
	return err
}

// MigrateToObject collocates ref with another object: "the target
// either names a node or another object" (Section 2.2).
func (n *Node) MigrateToObject(ctx context.Context, ref, with Ref) error {
	at, err := n.Locate(ctx, with)
	if err != nil {
		return fmt.Errorf("objmig: locate collocation target: %w", err)
	}
	return n.Migrate(ctx, ref, at)
}

// migrateRequest asks the object's host to execute the migrate
// primitive.
func (n *Node) migrateRequest(ctx context.Context, req *wire.MigrateReq) (*wire.MigrateResp, error) {
	resp, _, err := routed(ctx, n, req.Obj, "migrate", wire.KMigrate, req, n.handleMigrate,
		func(r *wire.MigrateResp) NodeID { return r.At })
	return resp, err
}

// handleMigrate executes the migrate primitive at the object's host.
func (n *Node) handleMigrate(ctx context.Context, rec *store.Record, req *wire.MigrateReq) (*wire.MigrateResp, error) {
	r := relocation{root: req.Obj, alliance: req.Alliance, target: req.Target, trace: n.nextTrace(), refix: req.Fix}
	rec.Mu.Lock()
	err := redirectLocked(rec)
	if err == nil {
		err = r.admit(req.Obj, &rec.Pol) // a fixed or placed root: nothing to walk
	}
	rec.Mu.Unlock()
	if err != nil {
		return nil, err
	}
	moved, err := n.relocate(ctx, r)
	if err != nil {
		return nil, err
	}
	return &wire.MigrateResp{At: req.Target, Moved: moved}, nil
}
