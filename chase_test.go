package objmig

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaseSurvivesMigrationPingPong: under heavy migration ping-pong
// an invoke chase must reach the object every time. Each redirect it
// meets is newer than the last (the object's generation grows with
// every hop), or the object is paused and the call parks on it, so no
// chase gives up while the object is merely in flight.
func TestChaseSurvivesMigrationPingPong(t *testing.T) {
	t.Parallel()
	cl := NewLocalCluster()
	bt := newBenchType()
	mk := func(id NodeID) *Node {
		n, err := NewNode(Config{ID: id, Cluster: cl, Policy: PolicyConventional})
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("chase gave up under ping-pong after %d calls: %v", calls, err)
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
