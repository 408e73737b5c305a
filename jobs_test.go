package objmig

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/jobs"
	"objmig/internal/store"
)

// jobNode builds one placement-enabled node for job tests: fast
// heartbeats so views converge quickly, short migration leases so
// crash recovery resolves within test patience, origin pass off so
// the only migrations are the ones the job under test performs.
func jobNode(t *testing.T, cl *Cluster, id NodeID, capacity int64, obs Observer) *Node {
	t.Helper()
	n, err := NewNode(Config{
		ID: id, Cluster: cl, Capacity: capacity, Observer: obs,
		Migrate: MigrateConfig{Lease: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	t.Cleanup(func() { _ = n.Close() })
	if err := n.RegisterType(newCounterType()); err != nil {
		t.Fatal(err)
	}
	if err := n.EnablePlacement(PlacementConfig{
		Heartbeat:  20 * time.Millisecond,
		OriginPass: -1,
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// fullMesh teaches every node the rest of the cluster, so the load
// gossip converges without waiting for organic traffic to reveal
// peers (a LocalCluster routes by ID; the address is informational).
func fullMesh(nodes ...*Node) {
	for _, n := range nodes {
		for _, peer := range nodes {
			if peer.ID() != n.ID() {
				n.AddPeer(peer.ID(), string(peer.ID()))
			}
		}
	}
}

// waitForView blocks until n's placement view holds fresh samples for
// at least peers other nodes — the precondition for any planner run.
func waitForView(t *testing.T, n *Node, peers int) {
	t.Helper()
	d := n.placementDaemonRef()
	if d == nil {
		t.Fatalf("%s: placement not enabled", n.ID())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, peer := range d.view.Nodes() {
			if peer != n.ID() {
				got++
			}
		}
		if got >= peers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: view has %d peers after 10s, want %d", n.ID(), got, peers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitReservationsDrained blocks until every node's admission ledger
// is empty — the "no leaked reservations" invariant after any job run,
// crash included.
func waitReservationsDrained(t *testing.T, nodes ...*Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		leaked := ""
		for _, n := range nodes {
			if res := n.resv.Reserved(); res.Objects != 0 || res.Bytes != 0 {
				leaked = fmt.Sprintf("%s holds %d objects / %d bytes", n.ID(), res.Objects, res.Bytes)
			}
		}
		if leaked == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservation leaked: %s", leaked)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitUnpaused blocks until no object on n is mid-migration: after a
// coordinator crash the orphaned pauses resolve against their targets
// when the pause lease fires, and only then is the node quiescent.
func waitUnpaused(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		paused := 0
		n.store.Range(func(rec *store.Record) bool {
			rec.Mu.Lock()
			if rec.Status == store.StatusPaused {
				paused++
			}
			rec.Mu.Unlock()
			return true
		})
		if paused == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still has %d paused objects after 10s", n.ID(), paused)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hostsOf counts which live nodes host oid right now.
func hostsOf(oid core.OID, nodes []*Node) []NodeID {
	var at []NodeID
	for _, n := range nodes {
		if _, ok := n.store.Get(oid); ok {
			at = append(at, n.ID())
		}
	}
	return at
}

// TestDrainJobEmptiesNodeUnderTraffic is the headline e2e: invokers
// hammer every node while a drain job empties one of them. The drained
// node must reach zero hosted objects, every reference must still
// resolve with no update lost, and the directory churn must stay
// within the chase hop budget.
func TestDrainJobEmptiesNodeUnderTraffic(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	cl := NewLocalCluster()
	nodes := []*Node{
		jobNode(t, cl, "a", 32, nil),
		jobNode(t, cl, "b", 32, nil),
		jobNode(t, cl, "c", 32, nil),
		jobNode(t, cl, "d", 32, nil),
	}
	drained := nodes[0]
	fullMesh(nodes...)

	const objects = 16
	refs := make([]Ref, objects)
	var expected [objects]atomic.Int64
	for i := range refs {
		refs[i] = mustCreate(t, drained)
	}
	waitForView(t, drained, 3)

	// Traffic: four workers call through every node, including the one
	// being drained, for the whole run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 7))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := r.Intn(objects)
				n := nodes[(w+i)%len(nodes)]
				if _, err := Call[int, int](ctx, n, refs[obj], "Add", 1); err != nil {
					if errors.Is(err, ErrUnreachable) {
						continue // not executed; don't count
					}
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				expected[obj].Add(1)
			}
		}(w)
	}

	// Let the traffic build before draining, so the job runs against a
	// hot cluster rather than an idle one.
	for deadline := time.Now().Add(10 * time.Second); ; {
		var calls int64
		for i := range expected {
			calls += expected[i].Load()
		}
		if calls >= 500 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("traffic never built up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	j, err := drained.NewDrainJob(JobConfig{WaveSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("drain job: %v (status %+v)", err, j.Status())
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if st := j.Status(); st.State != "done" {
		t.Fatalf("job state %s, want done (%+v)", st.State, st)
	}
	if hosted, _ := drained.store.HostedStats(); hosted != 0 {
		t.Fatalf("drained node still hosts %d objects", hosted)
	}
	if drained.Stats().JobsCompleted != 1 {
		t.Fatalf("JobsCompleted = %d, want 1", drained.Stats().JobsCompleted)
	}
	// Every reference chase-resolves from every node with no update
	// lost, despite the traffic racing the migrations.
	var total int64
	for i, ref := range refs {
		for _, n := range nodes {
			v, err := Call[struct{}, int](ctx, n, ref, "Get", struct{}{})
			if err != nil {
				t.Fatalf("object %d unreachable via %s after drain: %v", i, n.ID(), err)
			}
			if int64(v) != expected[i].Load() {
				t.Fatalf("object %d: value %d, expected %d", i, v, expected[i].Load())
			}
		}
		total += expected[i].Load()
	}
	// The drain moved 16 objects once each; stale hints cost at most a
	// couple of extra hops, so over-budget chases must stay marginal
	// relative to the traffic.
	var over int64
	for _, n := range nodes {
		over += n.Stats().ChasesOverBudget
	}
	if over > total/10+int64(objects) {
		t.Fatalf("ChasesOverBudget = %d across %d calls: directory churn out of bounds", over, total)
	}
	waitReservationsDrained(t, nodes...)
}

// TestChaosJobResumeAfterCoordinatorRestart kills the coordinating
// node mid-wave and resumes the job from its checkpoint on a fresh
// coordinator. The chaos battery's invariants: no object is lost or
// duplicated, no reservation leaks, the resumed job completes, and the
// overloaded donor ends within its capacity.
func TestChaosJobResumeAfterCoordinatorRestart(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	cl := NewLocalCluster()
	// The wave-1 signal: the observer fires when the coordinator
	// announces its second wave, and a helper goroutine kills the
	// coordinator while that wave's migrations are in flight.
	waveSig := make(chan struct{})
	var sigOnce sync.Once
	obs := func(e Event) {
		if e.Kind == EventJob && e.Outcome == "wave" && e.Wave >= 1 {
			sigOnce.Do(func() { close(waveSig) })
		}
	}

	a := jobNode(t, cl, "a", 4, nil) // donor: 12 objects on capacity 4
	b := jobNode(t, cl, "b", 8, nil)
	c := jobNode(t, cl, "c", 8, nil)
	coord := jobNode(t, cl, "coord", 1, obs)
	fullMesh(a, b, c, coord)
	// Ballast pins the coordinator at exactly its capacity: neither a
	// donor (utilisation 1.0 is not over the ratio) nor a receiver
	// (any incoming closure would project past it). It dies with the
	// coordinator and is excluded from the invariants below.
	mustCreate(t, coord)

	const objects = 12
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, a)
		if _, err := Call[int, int](ctx, a, refs[i], "Add", i+1); err != nil {
			t.Fatal(err)
		}
	}
	waitForView(t, coord, 3)

	j, err := coord.NewRebalanceJob(ctx, JobConfig{WaveSize: 4, RetryBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Moves < 8 {
		t.Fatalf("rebalance planned %d moves, want >= 8 (donor must shed to capacity)", st.Moves)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = j.Execute(ctx) // dies with the coordinator; the checkpoint is what survives
	}()
	select {
	case <-waveSig:
	case <-ctx.Done():
		t.Fatal("job never reached wave 1")
	}
	_ = coord.Close() // the crash: mid-wave, pauses and sessions in flight
	<-done

	cp := j.Checkpoint()
	if cp.NextWave < 1 {
		t.Fatalf("checkpoint NextWave = %d, want >= 1 (wave 0 completed before the crash)", cp.NextWave)
	}
	if cp.Kind != "rebalance" || cp.WaveSize != 4 || len(cp.Moves) != j.Status().Moves {
		t.Fatalf("checkpoint does not carry the plan: %+v", cp)
	}

	// The cluster heals on its own: orphaned pauses resolve against
	// their targets when the lease fires, orphaned staging sessions
	// expire, and every reservation the dead coordinator claimed is
	// released.
	waitReservationsDrained(t, a, b, c)
	waitUnpaused(t, a)

	// A fresh coordinator resumes from the checkpoint.
	coord2 := jobNode(t, cl, "coord2", 1, nil)
	fullMesh(a, b, c, coord2)
	waitForView(t, coord2, 3)
	j2, err := coord2.ResumeJob(cp, JobConfig{RetryBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Execute(ctx); err != nil {
		t.Fatalf("resumed job: %v (status %+v)", err, j2.Status())
	}
	if st := j2.Status(); st.State != "done" || st.MovesFailed != 0 {
		t.Fatalf("resumed job status %+v, want done with no failures", st)
	}

	// Invariant 1: every object is hosted exactly once across the
	// live nodes — the torn wave neither lost nor duplicated anything.
	live := []*Node{a, b, c, coord2}
	for i, ref := range refs {
		at := hostsOf(ref.OID, live)
		if len(at) != 1 {
			t.Fatalf("object %d hosted at %v, want exactly one node", i, at)
		}
	}
	// Invariant 2: no update was lost — values survive the crash.
	for i, ref := range refs {
		v, err := Call[struct{}, int](ctx, b, ref, "Get", struct{}{})
		if err != nil || v != i+1 {
			t.Fatalf("object %d: value %d, err %v, want %d", i, v, err, i+1)
		}
	}
	// Invariant 3: the donor was actually relieved.
	if hosted := a.store.HostedCount(); hosted > 4 {
		t.Fatalf("donor still hosts %d objects, capacity 4", hosted)
	}
	// Invariant 4: nothing stays reserved once the dust settles.
	waitReservationsDrained(t, live...)
}

// TestJobVetoRetargetUsesLiveView is the regression test for the
// stale-view retry loop: a planned receiver that vetoes at migration
// time must be re-elected against the live view with the refuser
// excluded — not hammered with the full retry budget on the view that
// planned it. The refuser here is a draining node: its gossiped sample
// still advertises plenty of headroom, but its live admission refuses
// everything.
func TestJobVetoRetargetUsesLiveView(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 8, nil)
	b := jobNode(t, cl, "b", 100, nil) // the planner's obvious pick
	c := jobNode(t, cl, "c", 10, nil)  // the live view's fallback
	fullMesh(a, b, c)

	ref := mustCreate(t, a)
	if _, err := Call[int, int](ctx, a, ref, "Add", 41); err != nil {
		t.Fatal(err)
	}
	waitForView(t, a, 2)

	// b's view sample says "100 slots free"; its live state refuses.
	b.draining.Store(true)
	defer b.draining.Store(false)

	j, err := a.NewDrainJob(JobConfig{WaveRetries: 3, RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pv := j.Preview()
	if len(pv.Moves) != 1 || pv.Moves[0].To != "b" {
		t.Fatalf("plan = %+v, want the lone move aimed at b (the headroom winner)", pv.Moves)
	}
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("drain: %v (status %+v)", err, j.Status())
	}

	if at, err := a.Locate(ctx, ref); err != nil || at != "c" {
		t.Fatalf("object at %v (err %v), want c after the retarget", at, err)
	}
	// Exactly one veto: the executor asked b once, then re-elected. A
	// stale-view retry loop would have burned the whole retry budget
	// against b (3 vetoes) and failed the job.
	if got := b.Stats().PlacementVetoes; got != 1 {
		t.Fatalf("b.PlacementVetoes = %d, want exactly 1 (no stale-view hammering)", got)
	}
	if st := j.Status(); st.State != "done" || st.Retargets != 1 {
		t.Fatalf("status %+v, want done with 1 retarget", st)
	}
	if got := a.Stats().JobRetargets; got != 1 {
		t.Fatalf("JobRetargets = %d, want 1", got)
	}
	if v, err := Call[struct{}, int](ctx, c, ref, "Get", struct{}{}); err != nil || v != 41 {
		t.Fatalf("value after retargeted move: %d, %v", v, err)
	}
}

// TestDrainWaitsOutBusyClosure: a drain move whose closure another
// migration holds is not vetoed, only early. The move waits that
// migration out and lands at its planned receiver — no retarget away
// from a receiver that did nothing wrong, no failed move.
func TestDrainWaitsOutBusyClosure(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 8, nil)
	b := jobNode(t, cl, "b", 100, nil) // the planned receiver
	c := jobNode(t, cl, "c", 10, nil)  // where a retarget would go
	fullMesh(a, b, c)
	ref := mustCreate(t, a)
	waitForView(t, a, 2)

	j, err := a.NewDrainJob(JobConfig{WaveRetries: 3, RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if pv := j.Preview(); len(pv.Moves) != 1 || pv.Moves[0].To != "b" {
		t.Fatalf("plan = %+v, want the lone move aimed at b", pv.Moves)
	}
	pauseFor(t, a, ref, 200*time.Millisecond)
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("drain: %v (status %+v)", err, j.Status())
	}
	st := j.Status()
	if st.State != "done" || st.MovesDone != 1 || st.MovesFailed != 0 || st.Retargets != 0 {
		t.Fatalf("status %+v, want done with one move, none failed, no retarget", st)
	}
	checkMoveTally(t, st)
	if got := a.Stats().JobRetargets; got != 0 {
		t.Fatalf("JobRetargets = %d, want 0", got)
	}
	if at, err := a.Locate(ctx, ref); err != nil || at != "b" {
		t.Fatalf("object at %v (err %v), want b", at, err)
	}
}

// checkMoveTally asserts that a job's settled moves are a part of the
// moves it reports: Moves counts every pass.
func checkMoveTally(t *testing.T, st JobStatus) {
	t.Helper()
	if settled := st.MovesDone + st.MovesSkipped + st.MovesFailed; settled > st.Moves {
		t.Fatalf("status %+v: %d moves settled of %d", st, settled, st.Moves)
	}
}

// TestDrainSweepCountsItsMoves creates an object on the draining node
// after the drain was planned: only the sweep's re-plan finds it, and
// its move counts in Moves as in MovesDone.
func TestDrainSweepCountsItsMoves(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 8, nil)
	b := jobNode(t, cl, "b", 100, nil)
	fullMesh(a, b)
	planned := mustCreate(t, a)
	waitForView(t, a, 1)

	j, err := a.NewDrainJob(JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pv := j.Preview(); len(pv.Moves) != 1 {
		t.Fatalf("plan = %+v, want one move", pv.Moves)
	}
	late := mustCreate(t, a)
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("drain: %v (status %+v)", err, j.Status())
	}
	st := j.Status()
	if st.State != "done" || st.Moves != 2 || st.MovesDone != 2 || st.Waves != 1 {
		t.Fatalf("status %+v, want done with 2 moves over the plan's 1 wave", st)
	}
	checkMoveTally(t, st)
	for _, ref := range []Ref{planned, late} {
		if at, err := a.Locate(ctx, ref); err != nil || at != "b" {
			t.Fatalf("%v at %v (err %v), want b", ref, at, err)
		}
	}
}

// TestJobCancelStopsAtWaveBoundary cancels a drain from inside the
// first wave-done event: exactly one wave's moves land, nothing after
// it starts, and the half-drained cluster is fully consistent — every
// object reachable, locations agreed, no reservations held.
func TestJobCancelStopsAtWaveBoundary(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	var jptr atomic.Pointer[Job]
	obs := func(e Event) {
		// Cancelling synchronously inside the wave-done emission beats
		// the executor to the next wave boundary, deterministically.
		if e.Kind == EventJob && e.Outcome == "wave-done" && e.Wave == 0 {
			if j := jptr.Load(); j != nil {
				j.Cancel()
			}
		}
	}
	a := jobNode(t, cl, "a", 16, obs)
	b := jobNode(t, cl, "b", 16, nil)
	c := jobNode(t, cl, "c", 16, nil)
	fullMesh(a, b, c)

	const objects = 8
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, a)
		if _, err := Call[int, int](ctx, a, refs[i], "Add", i+1); err != nil {
			t.Fatal(err)
		}
	}
	waitForView(t, a, 2)

	j, err := a.NewDrainJob(JobConfig{WaveSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	jptr.Store(j)
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("cancelled Execute returned %v, want nil", err)
	}

	st := j.Status()
	if st.State != "cancelled" || st.NextWave != 1 || st.MovesDone != 2 {
		t.Fatalf("status %+v, want cancelled after exactly wave 0 (2 moves)", st)
	}
	if a.Stats().JobsCancelled != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", a.Stats().JobsCancelled)
	}
	if hosted := a.store.HostedCount(); hosted != objects-2 {
		t.Fatalf("a hosts %d objects, want %d (one wave drained)", hosted, objects-2)
	}
	// Consistency: everything reachable with the right value, all
	// nodes agreeing where everything is, nothing reserved.
	nodes := []*Node{a, b, c}
	for i, ref := range refs {
		v, err := Call[struct{}, int](ctx, c, ref, "Get", struct{}{})
		if err != nil || v != i+1 {
			t.Fatalf("object %d: value %d, err %v, want %d", i, v, err, i+1)
		}
		var first NodeID
		for k, n := range nodes {
			at, err := n.Locate(ctx, ref)
			if err != nil {
				t.Fatalf("locate %d from %s: %v", i, n.ID(), err)
			}
			if k == 0 {
				first = at
			} else if at != first {
				t.Fatalf("object %d: %s says %v, %s says %v", i, nodes[0].ID(), first, n.ID(), at)
			}
		}
	}
	waitReservationsDrained(t, nodes...)

	// Cancel is terminal: the job cannot be re-run.
	if err := j.Execute(ctx); err == nil {
		t.Fatal("Execute after cancel succeeded")
	}
}

// TestJobPreviewIsPureAndMatchesExecute: a preview takes no pauses and
// charges no reservations, re-planning on an unchanged view reproduces
// it exactly, and executing it lands every closure precisely where the
// preview said it would.
func TestJobPreviewIsPureAndMatchesExecute(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)
	b := jobNode(t, cl, "b", 16, nil)
	c := jobNode(t, cl, "c", 16, nil)
	fullMesh(a, b, c)

	const objects = 6
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, a)
	}
	waitForView(t, a, 2)

	j, err := a.NewDrainJob(JobConfig{WaveSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	pv := j.Preview()
	if len(pv.Moves) != objects || len(pv.Unplaced) != 0 {
		t.Fatalf("preview: %d moves, %d unplaced, want %d / 0", len(pv.Moves), len(pv.Unplaced), objects)
	}
	for _, m := range pv.Moves {
		if m.From != "a" || (m.To != "b" && m.To != "c") {
			t.Fatalf("move %+v escapes the cluster", m)
		}
	}
	// Purity: the dry run reserved nothing anywhere and paused
	// nothing — an invoke on a previewed object answers immediately.
	for _, n := range []*Node{a, b, c} {
		if res := n.resv.Reserved(); res.Objects != 0 || res.Bytes != 0 {
			t.Fatalf("preview charged the ledger on %s: %+v", n.ID(), res)
		}
	}
	// The utilisation projection covers the drained node and shows it
	// emptying; receivers only ever gain.
	seenA := false
	for _, d := range pv.Deltas {
		switch d.Node {
		case "a":
			seenA = true
			if d.After >= d.Before || d.After != 0 {
				t.Fatalf("drained node delta %+v, want utilisation projected to 0", d)
			}
		default:
			if d.After < d.Before {
				t.Fatalf("receiver delta %+v lost load in a drain projection", d)
			}
		}
	}
	if !seenA {
		t.Fatal("no delta row for the drained node")
	}

	// Determinism: planning again on the unchanged view reproduces the
	// preview move for move — the preview IS the plan Execute runs.
	j2, err := a.NewDrainJob(JobConfig{WaveSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j2.Preview().Moves, pv.Moves) {
		t.Fatalf("replanned moves differ from preview:\n%+v\nvs\n%+v", j2.Preview().Moves, pv.Moves)
	}
	// Nothing was paused either: an invoke through a previewed object
	// answers immediately. (Probed after the replan — the call itself
	// perturbs the affinity pressure the planners rank by.)
	if _, err := Call[int, int](ctx, a, refs[0], "Add", 1); err != nil {
		t.Fatalf("object unusable after preview: %v", err)
	}

	if err := j.Execute(ctx); err != nil {
		t.Fatalf("execute: %v (status %+v)", err, j.Status())
	}
	if st := j.Status(); st.Retargets != 0 {
		t.Fatalf("unexpected retargets %d: the preview's targets should have admitted", st.Retargets)
	}
	for _, m := range pv.Moves {
		at, err := a.Locate(ctx, Ref{OID: m.Anchor})
		if err != nil || at != m.To {
			t.Fatalf("anchor %s at %v (err %v), preview promised %v", m.Anchor, at, err, m.To)
		}
	}
}

// TestJobsDebugEndpoint drives the whole HTTP surface objmig-admin
// wraps: POST starts a drain, GET reports it greppably through to the
// terminal state, cancel validates its id, and garbage is rejected.
func TestJobsDebugEndpoint(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)
	b := jobNode(t, cl, "b", 16, nil)
	fullMesh(a, b)

	const objects = 4
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustCreate(t, a)
	}
	waitForView(t, a, 1)

	srv := httptest.NewServer(a.MetricsHandler())
	defer srv.Close()
	post := func(form url.Values) (int, string) {
		t.Helper()
		resp, err := http.PostForm(srv.URL+"/debug/jobs", form)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := post(url.Values{"action": {"frobnicate"}}); code != http.StatusBadRequest {
		t.Fatalf("bad action: status %d, want 400", code)
	}
	if code, _ := post(url.Values{"action": {"cancel"}, "id": {"999"}}); code != http.StatusNotFound {
		t.Fatalf("cancel unknown id: status %d, want 404", code)
	}

	code, body := post(url.Values{"action": {"drain"}})
	if code != http.StatusOK || !strings.HasPrefix(body, "job ") {
		t.Fatalf("drain start: %d %q", code, body)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/debug/jobs")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		listing := string(b)
		if !strings.Contains(listing, "node a: ") {
			t.Fatalf("listing missing header: %q", listing)
		}
		if strings.Contains(listing, "state=done") {
			if !strings.Contains(listing, "kind=drain") || !strings.Contains(listing, "trace=") {
				t.Fatalf("terminal listing missing fields: %q", listing)
			}
			break
		}
		if strings.Contains(listing, "state=failed") {
			t.Fatalf("endpoint drain failed: %q", listing)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not terminal: %q", listing)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if hosted, _ := a.store.HostedStats(); hosted != 0 {
		t.Fatalf("node still hosts %d objects after endpoint drain", hosted)
	}
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeJobValidation: a checkpoint with an unknown kind is
// rejected, and a well-formed one preserves its wave geometry.
func TestResumeJobValidation(t *testing.T) {
	t.Parallel()
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)
	if _, err := a.ResumeJob(jobs.Checkpoint{Kind: "frobnicate", WaveSize: 4}, JobConfig{}); err == nil {
		t.Fatal("resume accepted an unknown kind")
	}
	j, err := a.ResumeJob(jobs.Checkpoint{Kind: "drain", WaveSize: 7, NextWave: 2}, JobConfig{WaveSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	cp := j.Checkpoint()
	if cp.WaveSize != 7 || cp.NextWave != 2 {
		t.Fatalf("resume rewrote the wave geometry: %+v (a resumed job must keep the checkpoint's WaveSize)", cp)
	}
}

// TestResumeJobSkipsVanishedAnchor: a resumed move whose anchor no node
// knows any more is skipped ("the anchor ended: nothing to move"), not
// retried until the job fails.
func TestResumeJobSkipsVanishedAnchor(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)
	b := jobNode(t, cl, "b", 16, nil)
	fullMesh(a, b)
	gone := core.OID{Origin: "a", Seq: 1 << 40}
	cp := jobs.Checkpoint{Kind: "pin", WaveSize: 1, Moves: []jobs.Move{{Anchor: gone, From: "a", To: "b", Objects: 1}}}
	j, err := a.ResumeJob(cp, JobConfig{WaveRetries: 3, RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if st := j.Status(); st.State != "done" || st.MovesSkipped != 1 || st.MovesFailed != 0 {
		t.Fatalf("status = %+v, want done with the vanished anchor skipped", st)
	}
}

// TestJobCheckpointDuringRetarget is the -race regression for the
// retarget write: Checkpoint and Preview copy the plan's moves under
// the job mutex while executeMove re-points a vetoed move's To field,
// so the write must hold the same mutex. The scenario forces a
// retarget (the planned receiver drains and vetoes) while a second
// goroutine checkpoints in a tight loop for the whole execution.
func TestJobCheckpointDuringRetarget(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 8, nil)
	b := jobNode(t, cl, "b", 100, nil) // planned receiver, vetoes live
	c := jobNode(t, cl, "c", 10, nil)  // retarget fallback
	fullMesh(a, b, c)

	ref := mustCreate(t, a)
	if _, err := Call[int, int](ctx, a, ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	waitForView(t, a, 2)
	b.draining.Store(true)
	defer b.draining.Store(false)

	j, err := a.NewDrainJob(JobConfig{WaveRetries: 3, RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var snaps atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				cp := j.Checkpoint()
				pv := j.Preview()
				snaps.Add(int64(len(cp.Moves) + len(pv.Moves)))
			}
		}
	}()
	err = j.Execute(ctx)
	close(stop)
	if err != nil {
		t.Fatalf("drain: %v (status %+v)", err, j.Status())
	}
	if st := j.Status(); st.Retargets != 1 {
		t.Fatalf("status %+v, want exactly 1 retarget (the race under test needs one)", st)
	}
	if snaps.Load() == 0 {
		t.Fatal("checkpoint loop never observed the plan")
	}
}

// TestPinJobVetoDoesNotRetarget: a pin's target is the point of the
// job, so a veto by that target must not re-elect a substitute — the
// move retries the named node, exhausts its budget and fails, leaving
// the closure where it was.
func TestPinJobVetoDoesNotRetarget(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)
	b := jobNode(t, cl, "b", 16, nil) // the pin target, refusing inbound
	c := jobNode(t, cl, "c", 16, nil) // the substitute a retarget would pick
	fullMesh(a, b, c)

	ref := mustCreate(t, a)
	if _, err := Call[int, int](ctx, a, ref, "Add", 7); err != nil {
		t.Fatal(err)
	}
	waitForView(t, a, 2)
	b.draining.Store(true)
	defer b.draining.Store(false)

	j, err := a.NewPinJob(ctx, JobConfig{WaveRetries: 2, RetryBackoff: 5 * time.Millisecond}, "b", []Ref{ref})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Execute(ctx); err == nil {
		t.Fatal("pin onto a refusing target succeeded, want failure")
	}
	st := j.Status()
	if st.State != "failed" || st.MovesFailed != 1 || st.Retargets != 0 {
		t.Fatalf("status %+v, want failed with 1 failed move and 0 retargets", st)
	}
	if at, err := a.Locate(ctx, ref); err != nil || at != "a" {
		t.Fatalf("object at %v (err %v), want still at a — a vetoed pin must not migrate elsewhere", at, err)
	}
}

// TestJobExecuteAfterPrestartCancel: cancelling a job that never ran
// puts it in Cancelled, and a later Execute honours Execute's contract
// — a job ending Cancelled returns nil — without running any moves.
// (Cancelling a job that DID run stays an error on re-Execute; see
// TestJobCancelStopsAtWaveBoundary.)
func TestJobExecuteAfterPrestartCancel(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)
	b := jobNode(t, cl, "b", 16, nil)
	fullMesh(a, b)
	ref := mustCreate(t, a)
	waitForView(t, a, 1)

	j, err := a.NewDrainJob(JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	if err := j.Execute(ctx); err != nil {
		t.Fatalf("Execute after pre-start cancel: %v, want nil", err)
	}
	if st := j.Status(); st.State != "cancelled" || st.MovesDone != 0 {
		t.Fatalf("status %+v, want cancelled with no moves run", st)
	}
	if at, err := a.Locate(ctx, ref); err != nil || at != "a" {
		t.Fatalf("object at %v (err %v): a cancelled job must not have moved it", at, err)
	}
	if got := a.Stats().JobsCancelled; got != 1 {
		t.Fatalf("JobsCancelled = %d, want 1 (no double count)", got)
	}
}

// TestJobTableRetention: terminal jobs past the retention window are
// evicted as new jobs register, and non-terminal jobs survive the
// pruning no matter how old they are.
func TestJobTableRetention(t *testing.T) {
	t.Parallel()
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)

	keep, err := a.NewDrainJob(JobConfig{}) // stays Planned: never evicted
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobRetention+10; i++ {
		j, err := a.NewDrainJob(JobConfig{})
		if err != nil {
			t.Fatal(err)
		}
		j.Cancel() // immediately terminal
	}
	js := a.Jobs()
	if len(js) > jobRetention {
		t.Fatalf("registry holds %d jobs, want <= %d", len(js), jobRetention)
	}
	if _, ok := a.JobByID(keep.ID()); !ok {
		t.Fatalf("planned job %d was evicted; only terminal jobs may be pruned", keep.ID())
	}
}

// TestPinJobPlansRealBytes: the pin planner's byte-utilisation guard
// must see the anchors' real resident footprint — fetched from the
// hosting node's inventory — not zero. A target whose byte capacity
// the closure exceeds refuses it at planning time.
func TestPinJobPlansRealBytes(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	a := jobNode(t, cl, "a", 16, nil)
	b := jobNode(t, cl, "b", 16, nil)
	// The pin target: plenty of object slots, a 1-byte budget.
	c, err := NewNode(Config{ID: "c", Cluster: cl, Capacity: 16, CapacityBytes: 1,
		Migrate: MigrateConfig{Lease: 300 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.RegisterType(newCounterType()); err != nil {
		t.Fatal(err)
	}
	if err := c.EnablePlacement(PlacementConfig{Heartbeat: 20 * time.Millisecond, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}
	fullMesh(a, b, c)

	// Host the anchor on b via a real migration, so b's record carries
	// the snapshot's StateBytes.
	ref := mustCreate(t, a)
	if _, err := Call[int, int](ctx, a, ref, "Add", 42); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(ctx, ref, "b"); err != nil {
		t.Fatal(err)
	}
	waitForView(t, a, 2)

	j, err := a.NewPinJob(ctx, JobConfig{}, "c", []Ref{ref})
	if err != nil {
		t.Fatal(err)
	}
	// With the real footprint the projection exceeds c's 1-byte budget
	// and the planner refuses the anchor up front. A Bytes-0 closure
	// would have admitted it, deferring the veto to execution-time
	// admission where it only surfaces as retries and a failed job.
	pv := j.Preview()
	if len(pv.Moves) != 0 {
		t.Fatalf("plan admitted %+v onto a 1-byte target; the byte guard saw Bytes 0", pv.Moves)
	}
	if len(pv.Unplaced) != 1 || pv.Unplaced[0].OID != ref.OID {
		t.Fatalf("unplaced = %+v, want the over-budget anchor", pv.Unplaced)
	}
}
