package objmig

// Migration jobs: the control plane over the migration machinery.
//
// Everything below internal/jobs moves one closure at a time; an
// operator runs *operations* — "drain this node for maintenance",
// "rebalance after adding capacity", "pin these closures here". A Job
// is one such operation: a move list computed by a pure planner
// (internal/jobs), previewable as a true dry run, executed in bounded
// concurrent waves through the standard migrateGroup machinery, and
// recoverable — cancel stops at the next wave boundary, and a
// checkpoint taken at any moment resumes from the last completed wave
// even on a different coordinator after a crash.
//
// The division of labour:
//
//   - internal/jobs owns planning: deterministic, veto-respecting
//     move lists over closure inventories and load samples. No RPCs,
//     no locks, no clocks.
//   - This file owns execution: live inventories (the store, the
//     KInventory RPC), the placement daemon's view, closure re-walks
//     before every move, per-move retry with backoff, and the
//     stale-view recovery rule — a vetoed move is never re-admitted
//     on the view that planned it; it is re-elected against the live
//     view with the refuser excluded.
//   - Crash safety is inherited, not reimplemented: an interrupted
//     move resolves through each participant's record of the
//     migration and its lease, claims included, so a resumed job only
//     needs the wave index — the cluster has already cleaned up the rest.
//
// A drain job additionally marks its node as draining for the length
// of the execution: inbound migrations are refused at admission
// (admitAndReserve), so the optimiser daemons cannot refill the node
// while the job empties it.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/core"
	"objmig/internal/jobs"
	"objmig/internal/placement"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// Job kinds, also the Checkpoint.Kind values.
const (
	jobKindDrain     = "drain"
	jobKindRebalance = "rebalance"
	jobKindPin       = "pin"
)

// JobConfig tunes a job's execution. The zero value selects the
// documented defaults.
type JobConfig struct {
	// WaveSize is the number of moves executed concurrently per wave.
	// Cancel and resume operate on wave boundaries, so the wave is
	// also the job's unit of recovery. Default 4.
	WaveSize int
	// WaveRetries is the attempt budget per move within its wave:
	// a failed move is retried (vetoed moves after re-election
	// against the live view) up to this many times before it counts
	// as failed. Default 3.
	WaveRetries int
	// RetryBackoff is the base delay between a move's attempts,
	// doubling per retry. Default 50ms.
	RetryBackoff time.Duration
}

// withDefaults fills the zero fields.
func (c JobConfig) withDefaults() JobConfig {
	if c.WaveSize <= 0 {
		c.WaveSize = 4
	}
	if c.WaveRetries <= 0 {
		c.WaveRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return c
}

// errJobCancelled signals a wave-boundary cancellation internally.
var errJobCancelled = errors.New("objmig: job cancelled")

// jobRetention bounds the job registry: registering a new job evicts
// the oldest terminal jobs beyond this many, so a long-lived node
// running periodic operations (cron drains, the /debug/jobs POST
// surface) does not accumulate finished jobs — and their full move
// lists — without bound. Planned and running jobs are never evicted.
const jobRetention = 64

// Job is one migration operation: planned once, executed at most once,
// ending in exactly one of done, cancelled or failed. Safe for
// concurrent use — Status, Preview, Checkpoint and Cancel may be
// called from any goroutine while Execute runs.
type Job struct {
	node  *Node
	id    uint64
	kind  string
	cfg   JobConfig
	trace uint64 // every move of the job shares this TraceID

	cancelc    chan struct{}
	cancelOnce sync.Once

	mu           sync.Mutex
	state        jobs.State
	started      bool // Execute ran (distinguishes pre-start cancellation)
	plan         jobs.Plan
	nextWave     int // first wave not yet completed
	sweepMoves   int // moves of a drain's re-plan passes, beyond plan
	movesDone    int
	movesSkipped int
	movesFailed  int
	retargets    int
	objectsMoved int64
	bytesMoved   int64
	moveErrs     []error // first few permanent move failures
	err          error   // terminal error (Failed only)
}

// JobStatus is one job's observable progress snapshot.
type JobStatus struct {
	ID       uint64
	Kind     string // drain, rebalance or pin
	State    string // planned, running, done, cancelled or failed
	Waves    int    // total waves in the current plan
	NextWave int    // first wave not yet completed
	// Moves counts the moves of every pass: the current plan's, and a
	// drain's re-plan passes after it. MovesDone + MovesSkipped +
	// MovesFailed never exceeds it.
	Moves int
	// MovesDone counts moves that migrated a group; MovesSkipped
	// moves found already satisfied (the closure had already reached
	// its goal — the resume path's common case); MovesFailed moves
	// that exhausted their retries.
	MovesDone    int
	MovesSkipped int
	MovesFailed  int
	// Retargets counts vetoed moves re-pointed at a fresh receiver.
	Retargets    int
	ObjectsMoved int64
	BytesMoved   int64
	Unplaced     int    // anchors the planner could not place
	Trace        uint64 // the job's shared migration TraceID
	Err          string // terminal error, if any
}

// JobPreview is a job's dry run: the projected moves in execution
// order and each sampled node's utilisation before and after the full
// plan. Computing a preview touches nothing — no pauses are taken and
// the reservation ledger is not consulted, let alone charged.
type JobPreview struct {
	Moves    []jobs.Move
	Deltas   []jobs.Delta
	Unplaced []Ref
}

// inventory is the one scan of this node's hosted objects as planning
// units — each object stands in for the closure the executor walks at
// move time, with the bytes and pressure jobs.ColdFirst ranks by. The
// drain planner, the KInventory handler and the shed pass all read it;
// max > 0 stops the scan after that many units.
func (n *Node) inventory(max int64) []jobs.Closure {
	var out []jobs.Closure
	n.store.Range(func(rec *store.Record) bool {
		out = append(out, jobs.Closure{
			Anchor: rec.ID, Host: n.id, Objects: 1,
			Bytes: rec.StateBytes, Pressure: n.aff.Total(rec.ID),
		})
		return max <= 0 || int64(len(out)) < max
	})
	return out
}

// handleInventory serves a planner's inventory fetch: the hosted units
// plus this node's fresh, authoritative load sample.
func (n *Node) handleInventory(req *wire.InventoryReq) (*wire.InventoryResp, error) {
	units := n.inventory(req.MaxUnits)
	resp := &wire.InventoryResp{Units: make([]wire.InventoryUnit, len(units))}
	for i, c := range units {
		resp.Units[i] = wire.InventoryUnit{Anchor: c.Anchor, Bytes: c.Bytes, Pressure: c.Pressure}
	}
	s := n.selfSample()
	resp.Load = wire.NodeLoad{
		Node: n.id, Objects: s.Objects, Bytes: s.Bytes,
		Capacity: s.Capacity, CapBytes: s.CapBytes, Seq: n.loadSeq.Add(1),
		Health: uint8(n.Health()),
	}
	return resp, nil
}

// jobPlacement returns the placement daemon every job needs: planners
// elect receivers from its load view, with its overload ratio as the
// receiver guard.
func (n *Node) jobPlacement(kind string) (*placementDaemon, error) {
	d := n.placementDaemonRef()
	if d == nil {
		return nil, fmt.Errorf("objmig: a %s job needs the placement subsystem running (EnablePlacement)", kind)
	}
	return d, nil
}

// NewDrainJob plans the evacuation of this node: every hosted closure
// is assigned to the fresh-sampled peer with the most headroom, and
// execution marks the node as draining so nothing migrates back in
// while the job runs. The returned job is planned, not started — call
// Preview for the dry run, Execute to run it.
func (n *Node) NewDrainJob(cfg JobConfig) (*Job, error) {
	d, err := n.jobPlacement(jobKindDrain)
	if err != nil {
		return nil, err
	}
	plan := jobs.PlanDrain(n.id, n.inventory(0), d.view.Snapshot(), d.cfg.OverloadRatio)
	return n.registerJob(jobKindDrain, plan, cfg, 0), nil
}

// NewRebalanceJob plans the relief of every overloaded node in this
// node's view: inventories are fetched from each sampled peer (the
// fetch doubles as a view refresh), and donors above the overload
// ratio shed their coldest closures to the least-utilised receivers
// until every node fits. The coordinator itself needs to host nothing
// — any placement-enabled node can run a rebalance.
func (n *Node) NewRebalanceJob(ctx context.Context, cfg JobConfig) (*Job, error) {
	d, err := n.jobPlacement(jobKindRebalance)
	if err != nil {
		return nil, err
	}
	self := n.selfSample()
	samples := []placement.Sample{self}
	closures := n.inventory(0)
	for _, peer := range d.view.Nodes() {
		if peer == n.id {
			continue
		}
		var resp wire.InventoryResp
		if err := n.call(ctx, peer, wire.KInventory, &wire.InventoryReq{}, &resp); err != nil {
			// Unreachable peer: keep its (stale) view sample so it can
			// still receive, but it cannot donate what we cannot list.
			if s, _, ok := d.view.Get(peer); ok {
				samples = append(samples, s)
			}
			continue
		}
		n.observeLoad(&resp.Load)
		samples = append(samples, placementSample(&resp.Load))
		for _, u := range resp.Units {
			closures = append(closures, jobs.Closure{
				Anchor: u.Anchor, Host: peer, Objects: 1,
				Bytes: u.Bytes, Pressure: u.Pressure,
			})
		}
	}
	plan := jobs.PlanRebalance(closures, samples, d.cfg.OverloadRatio)
	return n.registerJob(jobKindRebalance, plan, cfg, 0), nil
}

// NewPinJob plans moving the given closures onto target, locating each
// anchor first. The target's projected utilisation is respected like
// any other receiver's: anchors past its capacity are left unplaced.
func (n *Node) NewPinJob(ctx context.Context, cfg JobConfig, target NodeID, anchors []Ref) (*Job, error) {
	d, err := n.jobPlacement(jobKindPin)
	if err != nil {
		return nil, err
	}
	closures := make([]jobs.Closure, 0, len(anchors))
	hosts := make(map[NodeID][]int) // host -> indices into closures
	for _, ref := range anchors {
		host, err := n.Locate(ctx, ref)
		if err != nil {
			return nil, fmt.Errorf("objmig: pin plan: locate %s: %w", ref, err)
		}
		hosts[host] = append(hosts[host], len(closures))
		closures = append(closures, jobs.Closure{Anchor: ref.OID, Host: host, Objects: 1})
	}
	// The planner's byte-utilisation guard is only as good as the
	// closures' footprints: stamp each anchor's resident bytes, read
	// from the store for local anchors and one KInventory fetch per
	// remote host otherwise. An unreachable host degrades that anchor
	// to Bytes 0 — the plan still forms, and execution-time admission
	// has the final say.
	for host, idxs := range hosts {
		bytes := make(map[core.OID]int64)
		if host == n.id {
			for _, c := range n.inventory(0) {
				bytes[c.Anchor] = c.Bytes
			}
		} else {
			var resp wire.InventoryResp
			if err := n.call(ctx, host, wire.KInventory, &wire.InventoryReq{}, &resp); err != nil {
				continue
			}
			n.observeLoad(&resp.Load)
			for _, u := range resp.Units {
				bytes[u.Anchor] = u.Bytes
			}
		}
		for _, i := range idxs {
			closures[i].Bytes = bytes[closures[i].Anchor]
		}
	}
	plan := jobs.PlanPin(target, closures, d.view.Snapshot(), d.cfg.OverloadRatio)
	return n.registerJob(jobKindPin, plan, cfg, 0), nil
}

// ResumeJob re-creates a job from a checkpoint — typically on a fresh
// coordinator after the original crashed mid-job. Execution continues
// from the first wave the checkpoint had not completed; moves of the
// interrupted wave whose closures already reached their target are
// detected and skipped, so replaying the wave is idempotent. The
// checkpoint's wave size is kept (wave boundaries must mean what they
// meant when NextWave was recorded); retries and backoff come from cfg.
func (n *Node) ResumeJob(cp jobs.Checkpoint, cfg JobConfig) (*Job, error) {
	switch cp.Kind {
	case jobKindDrain, jobKindRebalance, jobKindPin:
	default:
		return nil, fmt.Errorf("objmig: resume: unknown job kind %q", cp.Kind)
	}
	if _, err := n.jobPlacement(cp.Kind); err != nil {
		return nil, err
	}
	cfg.WaveSize = cp.WaveSize
	plan := jobs.Plan{Moves: append([]jobs.Move(nil), cp.Moves...)}
	j := n.registerJob(cp.Kind, plan, cfg, cp.NextWave)
	n.emit(Event{Kind: EventJob, Outcome: "resume", Wave: cp.NextWave})
	return j, nil
}

// registerJob mints, registers and announces a planned job.
func (n *Node) registerJob(kind string, plan jobs.Plan, cfg JobConfig, nextWave int) *Job {
	j := &Job{
		node: n, id: n.jobSeq.Add(1), kind: kind,
		cfg: cfg.withDefaults(), trace: n.nextTrace(),
		cancelc: make(chan struct{}),
		state:   jobs.Planned, plan: plan, nextWave: nextWave,
	}
	n.jobMu.Lock()
	n.jobTable[j.id] = j
	n.pruneJobsLocked()
	n.jobMu.Unlock()
	n.emit(Event{Kind: EventJob, Outcome: "plan", Objects: oidRefs(anchorsOf(plan.Moves))})
	return j
}

// pruneJobsLocked evicts the oldest terminal jobs past jobRetention.
// Caller holds n.jobMu.
func (n *Node) pruneJobsLocked() {
	if len(n.jobTable) <= jobRetention {
		return
	}
	var term []*Job
	for _, j := range n.jobTable {
		if j.terminal() {
			term = append(term, j)
		}
	}
	sort.Slice(term, func(i, k int) bool { return term[i].id < term[k].id })
	for _, j := range term {
		if len(n.jobTable) <= jobRetention {
			return
		}
		delete(n.jobTable, j.id)
	}
}

// terminal reports whether the job ended (Done, Cancelled or Failed).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Jobs lists every job this node has planned, oldest first. Terminal
// jobs past a retention window are evicted as new jobs register, so
// the listing is complete only for recent operations.
func (n *Node) Jobs() []JobStatus {
	n.jobMu.Lock()
	js := make([]*Job, 0, len(n.jobTable))
	for _, j := range n.jobTable {
		js = append(js, j)
	}
	n.jobMu.Unlock()
	sort.Slice(js, func(i, k int) bool { return js[i].id < js[k].id })
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	return out
}

// JobByID returns a registered job.
func (n *Node) JobByID(id uint64) (*Job, bool) {
	n.jobMu.Lock()
	defer n.jobMu.Unlock()
	j, ok := n.jobTable[id]
	return j, ok
}

// ID returns the job's node-local identifier.
func (j *Job) ID() uint64 { return j.id }

// Kind returns "drain", "rebalance" or "pin".
func (j *Job) Kind() string { return j.kind }

// Status snapshots the job's progress.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state.String(),
		Waves:     len(jobs.Waves(j.plan.Moves, j.cfg.WaveSize)),
		NextWave:  j.nextWave,
		Moves:     len(j.plan.Moves) + j.sweepMoves,
		MovesDone: j.movesDone, MovesSkipped: j.movesSkipped,
		MovesFailed: j.movesFailed, Retargets: j.retargets,
		ObjectsMoved: j.objectsMoved, BytesMoved: j.bytesMoved,
		Unplaced: len(j.plan.Unplaced), Trace: j.trace,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Preview is the job's dry run: the planned moves plus the projected
// per-node utilisation deltas against the current view. Nothing is
// paused, claimed or reserved — preview is pure arithmetic, and when
// the view has not changed it is exactly the plan Execute's first
// waves will run.
func (j *Job) Preview() JobPreview {
	j.mu.Lock()
	moves := append([]jobs.Move(nil), j.plan.Moves...)
	unplaced := append([]core.OID(nil), j.plan.Unplaced...)
	j.mu.Unlock()
	var view []placement.Sample
	if d := j.node.placementDaemonRef(); d != nil {
		view = d.view.Snapshot()
		view = append(view, j.node.selfSample())
	}
	return JobPreview{Moves: moves, Deltas: jobs.ProjectDeltas(moves, view), Unplaced: oidRefs(unplaced)}
}

// Checkpoint snapshots the job's resume point: the full plan and the
// first wave not yet completed. Serializable (encoding/json or gob) —
// persist it wherever the deployment keeps operational state and hand
// it to ResumeJob after a coordinator restart.
func (j *Job) Checkpoint() jobs.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobs.Checkpoint{
		Kind: j.kind, WaveSize: j.cfg.WaveSize, NextWave: j.nextWave,
		Moves: append([]jobs.Move(nil), j.plan.Moves...),
	}
}

// Cancel requests the job stop at the next wave boundary: the wave in
// flight completes (its pauses resolve normally — cancellation never
// strands a paused object), nothing after it starts, and the job ends
// Cancelled. Cancelling a job that never ran cancels it immediately;
// cancelling a finished job is a no-op.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancelc) })
	j.mu.Lock()
	immediate := j.state == jobs.Planned
	if immediate {
		j.state = jobs.Cancelled
	}
	j.mu.Unlock()
	if immediate {
		atomic.AddInt64(&j.node.stats.JobsCancelled, 1)
		j.node.emit(Event{Kind: EventJob, Outcome: "cancelled"})
	}
}

// cancelRequested reports whether Cancel has been called.
func (j *Job) cancelRequested() bool {
	select {
	case <-j.cancelc:
		return true
	default:
		return false
	}
}

// Execute runs the job to a terminal state: the planned moves in
// bounded concurrent waves, each move re-walked against the live
// cluster and retried with backoff on transient failure. Drain jobs
// mark the node as draining for the duration and re-plan up to three
// extra passes afterwards, so objects that arrived mid-drain (or were
// in flight when the plan was computed) still leave. Returns nil when
// the job ends Done or Cancelled — including a job cancelled before
// Execute was called, which returns nil without running anything —
// and the terminal error when it Failed. A job executes at most once:
// Execute on a job that already ran returns an error.
func (j *Job) Execute(ctx context.Context) error {
	n := j.node
	j.mu.Lock()
	if j.state != jobs.Planned {
		state, started := j.state, j.started
		j.mu.Unlock()
		if state == jobs.Cancelled && !started {
			// Cancelled before it ever ran: the job is in the terminal
			// state the caller asked for, which Execute's contract
			// treats as success, not failure.
			return nil
		}
		return fmt.Errorf("objmig: job %d is %s, not planned", j.id, state)
	}
	j.state = jobs.Running
	j.started = true
	moves := j.plan.Moves
	first := j.nextWave
	j.mu.Unlock()

	atomic.AddInt64(&n.stats.JobsStarted, 1)
	if j.kind == jobKindDrain {
		n.draining.Store(true)
		defer n.draining.Store(false)
	}

	execErr := j.runWaves(ctx, moves, first, true)

	// Drain sweeps: anything still hosted (late arrivals, closures a
	// raced move left behind) gets re-planned against the live view.
	// These passes run outside the checkpointed plan — a resumed drain
	// re-plans its own sweeps.
	if execErr == nil && j.kind == jobKindDrain {
		for pass := 0; pass < 3 && execErr == nil; pass++ {
			if hosted, _ := n.store.HostedStats(); hosted == 0 {
				break
			}
			d := n.placementDaemonRef()
			if d == nil {
				break
			}
			p := jobs.PlanDrain(n.id, n.inventory(0), d.view.Snapshot(), d.cfg.OverloadRatio)
			j.mu.Lock()
			j.sweepMoves += len(p.Moves)
			if len(p.Moves) == 0 {
				j.plan.Unplaced = append(j.plan.Unplaced, p.Unplaced...)
			}
			j.mu.Unlock()
			if len(p.Moves) == 0 {
				break
			}
			execErr = j.runWaves(ctx, p.Moves, 0, false)
		}
	}

	// Terminal bookkeeping.
	j.mu.Lock()
	var final jobs.State
	switch {
	case errors.Is(execErr, errJobCancelled):
		final = jobs.Cancelled
	case execErr != nil:
		final = jobs.Failed
		j.err = execErr
	case j.movesFailed > 0:
		final = jobs.Failed
		j.err = fmt.Errorf("objmig: job %d: %d moves failed (first: %w)", j.id, j.movesFailed, j.moveErrs[0])
	case len(j.plan.Unplaced) > 0 && j.kind != jobKindRebalance:
		// A drain or pin that cannot place everything did not do its
		// job; a rebalance that relieved what it could is still useful.
		final = jobs.Failed
		j.err = fmt.Errorf("objmig: job %d: %d anchors unplaced", j.id, len(j.plan.Unplaced))
	default:
		final = jobs.Done
	}
	j.state = final
	retErr := j.err
	j.mu.Unlock()

	switch final {
	case jobs.Done:
		atomic.AddInt64(&n.stats.JobsCompleted, 1)
	case jobs.Cancelled:
		atomic.AddInt64(&n.stats.JobsCancelled, 1)
	case jobs.Failed:
		atomic.AddInt64(&n.stats.JobsFailed, 1)
	}
	n.emit(Event{Kind: EventJob, Outcome: final.String()})
	return retErr
}

// runWaves drives moves wave by wave. track selects whether completed
// waves advance the job's checkpointable nextWave (the planned moves)
// or not (drain sweeps, which a resume re-plans from scratch).
func (j *Job) runWaves(ctx context.Context, moves []jobs.Move, first int, track bool) error {
	n := j.node
	waves := jobs.Waves(moves, j.cfg.WaveSize)
	for w := first; w < len(waves); w++ {
		if j.cancelRequested() {
			return errJobCancelled
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if n.closed.Load() {
			return ErrClosed
		}
		n.emit(Event{Kind: EventJob, Outcome: "wave", Wave: w})

		var (
			wg        sync.WaitGroup
			tallyMu   sync.Mutex
			waveRefs  []Ref
			waveBytes int64
			done      int
			skipped   int
			failed    []error
		)
		for i := range waves[w] {
			m := &waves[w][i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				moved, skip, err := j.executeMove(ctx, m)
				tallyMu.Lock()
				defer tallyMu.Unlock()
				switch {
				case errors.Is(err, errJobCancelled):
					// Abandoned between attempts: neither done nor failed.
				case err != nil:
					failed = append(failed, fmt.Errorf("%s -> %s: %w", m.Anchor, m.To, err))
				case skip:
					skipped++
				default:
					done++
					for _, oid := range moved {
						waveRefs = append(waveRefs, Ref{OID: oid})
					}
					waveBytes += m.Bytes
				}
			}()
		}
		wg.Wait()

		j.mu.Lock()
		j.movesDone += done
		j.movesSkipped += skipped
		j.movesFailed += len(failed)
		j.objectsMoved += int64(len(waveRefs))
		j.bytesMoved += waveBytes
		for _, err := range failed {
			if len(j.moveErrs) < 8 {
				j.moveErrs = append(j.moveErrs, err)
			}
		}
		// A wave only counts as completed when every move settled AND
		// every wave before it did: a checkpoint taken after a
		// crash-torn wave must replay it (the goal checks make the
		// replay idempotent), not skip past the moves the crash
		// swallowed — even when later waves went through cleanly.
		if track && len(failed) == 0 && j.nextWave == w {
			j.nextWave = w + 1
		}
		j.mu.Unlock()

		atomic.AddInt64(&n.stats.JobWaves, 1)
		atomic.AddInt64(&n.stats.JobMoves, int64(done))
		atomic.AddInt64(&n.stats.JobObjectsMoved, int64(len(waveRefs)))
		n.emit(Event{Kind: EventJob, Outcome: "wave-done", Wave: w,
			Objects: waveRefs, Bytes: waveBytes})
	}
	return nil
}

// executeMove drives one planned move to a verdict: migrated (moved
// lists the closure), skipped (the closure had already reached the
// move's goal), or failed after the retry budget. Every attempt
// re-walks the live closure — membership is never trusted across
// attempts. A closure that collided with another migration (a member
// raced away, or is held paused) is re-walked at once: the walk waits
// that migration out, and the receiver did nothing wrong. A veto by
// the target re-elects the receiver against the live view with the
// refuser excluded before the next attempt: retrying a full target on
// the stale view that planned it would hammer the veto until the
// budget ran out. Pin moves are the exception: their target is the
// point, so a vetoed pin is never re-pointed — it retries the named
// target and fails if refused. Only a veto or a failure backs off.
func (j *Job) executeMove(ctx context.Context, m *jobs.Move) (moved []core.OID, skipped bool, err error) {
	n := j.node
	exclude := make(map[NodeID]bool)
	var lastErr error
	for attempt := 0; attempt < j.cfg.WaveRetries; attempt++ {
		if attempt > 0 && !collided(lastErr) {
			if err := j.backoff(ctx, attempt); err != nil {
				return nil, false, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}

		members, err := n.closureOf(ctx, m.Anchor, NoAlliance)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return nil, true, nil // the anchor ended: nothing to move
			}
			lastErr = err
			continue
		}
		// Goal check — what makes wave replay after a resume
		// idempotent. A pin wants residency at the target; a drain or
		// rebalance wants absence from the source.
		if j.kind == jobKindPin {
			if nodesAllAt(members, m.To) {
				return nil, true, nil
			}
		} else if !nodesAnyAt(members, m.From) {
			return nil, true, nil
		}

		ids, err := n.migrateGroup(ctx, relocation{root: m.Anchor, target: m.To, trace: j.trace}, members)
		if err == nil {
			return ids, false, nil
		}
		lastErr = err
		switch {
		case isCode(err, wire.CodeFixed):
			return nil, false, err // a fixed member vetoes the closure for good
		case collided(err):
			// Stale membership or a busy member: the next walk settles it.
		case isCode(err, wire.CodeDenied) && j.kind == jobKindPin:
			// A pin has exactly one legitimate destination — the node
			// the operator named. Electing a substitute would "succeed"
			// by parking the closure somewhere else, so a vetoed pin
			// move just retries and, if the target keeps refusing,
			// exhausts its budget and fails.
		case isCode(err, wire.CodeDenied):
			exclude[m.To] = true
			if to, ok := j.retarget(m, exclude); ok {
				// m points into j.plan.Moves, which Checkpoint and
				// Preview copy under j.mu — the retarget write must
				// hold it too.
				j.mu.Lock()
				j.retargets++
				m.To = to
				j.mu.Unlock()
				atomic.AddInt64(&n.stats.JobRetargets, 1)
				n.emit(Event{Kind: EventJob, Outcome: "retarget",
					Obj: Ref{OID: m.Anchor}, Target: to})
			}
		}
	}
	return nil, false, lastErr
}

// retarget re-elects a vetoed move's receiver against the live view.
func (j *Job) retarget(m *jobs.Move, exclude map[NodeID]bool) (NodeID, bool) {
	d := j.node.placementDaemonRef()
	if d == nil {
		return "", false
	}
	return jobs.Retarget(*m, d.view.Snapshot(), exclude, d.cfg.OverloadRatio)
}

// backoff sleeps the move's doubling retry delay, aborted by the
// call's context or a job cancellation.
func (j *Job) backoff(ctx context.Context, attempt int) error {
	d := j.cfg.RetryBackoff << uint(attempt-1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-j.cancelc:
		return errJobCancelled
	}
}

// nodesAllAt reports whether every member is hosted at node.
func nodesAllAt(members map[core.OID]NodeID, node NodeID) bool {
	for _, host := range members {
		if host != node {
			return false
		}
	}
	return true
}

// nodesAnyAt reports whether any member is hosted at node.
func nodesAnyAt(members map[core.OID]NodeID, node NodeID) bool {
	for _, host := range members {
		if host == node {
			return true
		}
	}
	return false
}

// anchorsOf lists a plan's anchors, in move order.
func anchorsOf(moves []jobs.Move) []core.OID {
	out := make([]core.OID, len(moves))
	for i, m := range moves {
		out[i] = m.Anchor
	}
	return out
}

// oidRefs wraps OIDs as public references.
func oidRefs(oids []core.OID) []Ref {
	if len(oids) == 0 {
		return nil
	}
	out := make([]Ref, len(oids))
	for i, oid := range oids {
		out[i] = Ref{OID: oid}
	}
	return out
}
