package store

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/wire"
)

type testState struct{ Value int }

func testRecord() *Record {
	return NewRecord(core.OID{Origin: "n", Seq: 1}, "counter", &testState{})
}

func gobEncodeState(inst interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(inst); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func isCode(err error, code wire.ErrCode) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == code
}

func TestRecordAcquireRelease(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	ctx := context.Background()
	if err := rec.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// A second acquirer must wait until release.
	done := make(chan error, 1)
	go func() {
		done <- rec.Acquire(ctx)
	}()
	select {
	case <-done:
		t.Fatal("second acquire did not wait")
	case <-time.After(20 * time.Millisecond):
	}
	rec.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second acquire never woke")
	}
	rec.Release()
}

func TestRecordAcquireRespectsContext(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	if err := rec.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := rec.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	rec.Release()
}

// errSpy reports each Err call: Await polls ctx.Err under the record
// lock at the top of every attempt, so the test learns when a waiter
// has started one.
type errSpy struct {
	context.Context
	polled chan struct{}
}

func (c errSpy) Err() error {
	select {
	case c.polled <- struct{}{}:
	default:
	}
	return c.Context.Err()
}

// A context cancelled while Acquire or Pause sleeps on the record wakes
// it: the cancellation hook is registered lazily, but before the wait.
func TestRecordCancelWakesWaiter(t *testing.T) {
	t.Parallel()
	waits := map[string]func(*Record, context.Context) error{
		"Acquire": func(r *Record, ctx context.Context) error { return r.Acquire(ctx) },
		"Pause":   func(r *Record, ctx context.Context) error { return r.Pause(ctx, 1) },
		"EdgeOp": func(r *Record, ctx context.Context) error {
			return r.EdgeOp(ctx, func() *wire.RemoteError { return nil })
		},
	}
	for name, wait := range waits {
		rec := testRecord()
		if name == "EdgeOp" { // edge ops wait out a pause, not an invocation
			if err := rec.Pause(context.Background(), 9); err != nil {
				t.Fatal(err)
			}
		} else if err := rec.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		inner, cancel := context.WithCancel(context.Background())
		ctx := errSpy{Context: inner, polled: make(chan struct{}, 1)}
		done := make(chan error, 1)
		go func() { done <- wait(rec, ctx) }()
		<-ctx.polled
		// The waiter polled with Mu held; once Mu can be taken it has
		// found the record unavailable and is parked in cond.Wait.
		rec.Mu.Lock()
		rec.Mu.Unlock()
		select {
		case err := <-done:
			t.Fatalf("%s returned %v while the record was unavailable", name, err)
		default:
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s after cancel: %v, want context.Canceled", name, err)
		}
	}
}

// An already-cancelled context is refused even when the record is free
// (the uncontended fast path), and leaves the record untouched.
func TestRecordCancelledContextRefusedWhenFree(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := testRecord()
	if err := rec.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on a free record: %v, want context.Canceled", err)
	}
	if err := rec.Pause(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Pause on a free record: %v, want context.Canceled", err)
	}
	// Neither refusal marked the record busy or paused.
	if err := rec.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec.Release()
	if err := rec.Pause(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
}

// The uncontended Acquire/Release pair is the invoke path's per-call
// cost on a record: it must not allocate.
func TestRecordAcquireUncontendedDoesNotAllocate(t *testing.T) {
	rec := testRecord()
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if err := rec.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		rec.Release()
	}); n != 0 {
		t.Fatalf("uncontended Acquire+Release allocates %v times", n)
	}
}

func TestRecordPauseSemantics(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	ctx := context.Background()
	if err := rec.Pause(ctx, 7); err != nil {
		t.Fatal(err)
	}
	// Pause never waits on pause: a concurrent migration fails fast,
	// telling the caller to wait that migration out.
	if err := rec.Pause(ctx, 8); !isCode(err, wire.CodeMigrating) {
		t.Fatalf("double pause: %v, want migrating", err)
	}
	// Unpause with the wrong token is ignored.
	rec.Unpause(99)
	if err := rec.Pause(ctx, 9); !isCode(err, wire.CodeMigrating) {
		t.Fatal("wrong-token unpause released the pause")
	}
	rec.Unpause(7)
	if err := rec.Pause(ctx, 10); err != nil {
		t.Fatalf("pause after unpause: %v", err)
	}
}

func TestRecordPauseWaitsForActiveInvocation(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	ctx := context.Background()
	if err := rec.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rec.Pause(ctx, 1) }()
	select {
	case <-done:
		t.Fatal("pause did not wait for the busy invocation")
	case <-time.After(20 * time.Millisecond):
	}
	rec.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRecordDepartReleasesWaiters(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	ctx := context.Background()
	if err := rec.Pause(ctx, 3); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- rec.Acquire(ctx)
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if !rec.depart(3, redirectTo("elsewhere", 4)) {
		t.Fatal("depart failed")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeMoved || re.To != "elsewhere" || re.Gen != 4 {
			t.Fatalf("waiter got %v, want moved-to-elsewhere at generation 4", err)
		}
	}
	if status(rec) != StatusGone {
		t.Fatal("record not gone after depart")
	}
}

func TestRecordDepartTokenMismatch(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	if rec.depart(5, redirectTo("x", 1)) {
		t.Fatal("depart succeeded without a pause")
	}
	if err := rec.Pause(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if rec.depart(6, redirectTo("x", 1)) {
		t.Fatal("depart succeeded with the wrong token")
	}
	if !rec.depart(5, redirectTo("x", 1)) {
		t.Fatal("depart failed with the right token")
	}
}

func TestRecordEdgeBookkeeping(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	o1 := core.OID{Origin: "n", Seq: 2}
	o2 := core.OID{Origin: "n", Seq: 3}
	rec.AddEdge(o1, 1)
	rec.AddEdge(o1, 2)
	rec.AddEdge(o2, 1)
	if rec.Degree() != 2 {
		t.Fatalf("degree = %d, want 2 partners", rec.Degree())
	}
	if !rec.PairedWith(o1) || rec.PairedWith(core.OID{Origin: "n", Seq: 9}) {
		t.Fatal("PairedWith mismatch")
	}
	rec.Mu.Lock()
	edges := rec.EdgeListLocked()
	rec.Mu.Unlock()
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	// Canonical order: (o1,1), (o1,2), (o2,1).
	if edges[0].Alliance != 1 || edges[1].Alliance != 2 || edges[2].Other != o2 {
		t.Fatalf("edge order = %v", edges)
	}
	if !rec.DelEdge(o1, 1) || rec.DelEdge(o1, 1) {
		t.Fatal("DelEdge idempotence broken")
	}
	if rec.Degree() != 2 {
		t.Fatalf("degree after partial del = %d", rec.Degree())
	}
	rec.DelEdge(o1, 2)
	if rec.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", rec.Degree())
	}
}

func TestSnapshotCarriesPolicyState(t *testing.T) {
	t.Parallel()
	rec := testRecord()
	rec.Pol.Fixed = true
	rec.Pol.Lock = core.LockState{Held: true, Owner: "w", Block: 9}
	rec.AddEdge(core.OID{Origin: "n", Seq: 2}, 4)
	snap, err := rec.Snapshot(gobEncodeState)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Pol.Fixed || !snap.Pol.Lock.Held || snap.Pol.Lock.Owner != "w" {
		t.Fatalf("policy state lost: %+v", snap.Pol)
	}
	if len(snap.Edges) != 1 || snap.Edges[0].Alliance != 4 {
		t.Fatalf("edges lost: %v", snap.Edges)
	}
	if snap.Type != "counter" {
		t.Fatalf("type = %q", snap.Type)
	}
}

// redirectTo is a departure's location entry for Record.depart: it
// writes nothing and names to at gen.
func redirectTo(to core.NodeID, gen uint64) func() (core.NodeID, uint64) {
	return func() (core.NodeID, uint64) { return to, gen }
}
