package objmig

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaseBudgetSemantics pins the two halves of the chase budget:
// the attempt count always runs in full, and the deadline extends it.
func TestChaseBudgetSemantics(t *testing.T) {
	t.Parallel()
	ctx := context.Background()

	// Attempts only (deadline disabled): exactly the attempt budget.
	n := &Node{retries: 3, chaseDeadline: -1}
	got := 0
	for c := n.newChase(Ref{}.OID); c.next(ctx); {
		got++
	}
	if got != 3 {
		t.Fatalf("attempt-only budget ran %d attempts, want 3", got)
	}

	// Deadline beyond the attempt budget: the chase keeps going until
	// the wall clock runs out.
	n = &Node{retries: 1, chaseDeadline: 80 * time.Millisecond}
	start := time.Now()
	got = 0
	for c := n.newChase(Ref{}.OID); c.next(ctx); {
		got++
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("deadline budget gave up after %v", elapsed)
	}
	if got < 2 {
		t.Fatalf("deadline budget ran only %d attempts", got)
	}

	// A cancelled context stops a chase regardless of budget.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	n = &Node{retries: 100, chaseDeadline: time.Hour}
	got = 0
	for c := n.newChase(Ref{}.OID); c.next(cctx); {
		got++
	}
	if got != 0 {
		t.Fatalf("cancelled chase ran %d attempts", got)
	}
}

// TestChaseSurvivesMigrationPingPong is the regression test for the
// chase-exhaustion flake (ROADMAP, pre-existing since the seed): under
// heavy migration ping-pong a locate/invoke chase could exhaust its
// fixed attempt budget while the object was merely in flight and
// report ErrUnreachable. The attempt budget here is deliberately tiny
// (2), so the old fixed-budget behaviour fails within a few calls;
// the chase deadline must carry every call through the churn.
func TestChaseSurvivesMigrationPingPong(t *testing.T) {
	t.Parallel()
	cl := NewLocalCluster()
	bt := newBenchType()
	mk := func(id NodeID) *Node {
		n, err := NewNode(Config{ID: id, Cluster: cl, Policy: PolicyConventional})
		if err != nil {
			t.Fatal(err)
		}
		n.retries, n.chaseDeadline = 2, 10*time.Second
		if err := n.RegisterType(bt); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	a, _, c := mk("a"), mk("b"), mk("c")
	ref, err := a.Create("bench")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Ping-pong the object between a and b as fast as migrations
	// complete, for the duration of the invoke storm.
	var stop atomic.Bool
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		targets := []NodeID{"b", "a"}
		for i := 0; !stop.Load(); i++ {
			if err := a.Migrate(ctx, ref, targets[i%2]); err != nil {
				t.Errorf("ping-pong migrate %d: %v", i, err)
				return
			}
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	calls := 0
	for time.Now().Before(deadline) {
		if _, err := Call[int, int](ctx, c, ref, "Add", 1); err != nil {
			if errors.Is(err, ErrUnreachable) {
				t.Fatalf("chase exhausted under ping-pong after %d calls: %v", calls, err)
			}
			t.Fatalf("invoke %d: %v", calls, err)
		}
		calls++
	}
	stop.Store(true)
	<-migDone
	if calls == 0 {
		t.Fatal("no invokes completed")
	}
}
