package objmig

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/store"
)

// TestDirectoryChurnBoundedChases ring-migrates an attachment closure
// around a three-node cluster while invokers on every node chase the
// members concurrently. It pins the directory's liveness guarantees
// under churn: every chase terminates (no stale-forward loops), the
// per-chase hop count stays bounded, and retirement plus forward
// compaction never strand a reachable object — after the storm every
// member still resolves from every node and the forwarding state left
// behind is proportional to the group, not to the number of hops it
// took.
func TestDirectoryChurnBoundedChases(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	var chaseEvents sync.Map // NodeID -> *atomic.Int64
	nodes := testCluster(t, 3, Config{Attach: AttachUnrestricted,
		Observer: func(e Event) {
			if e.Kind != EventChase {
				return
			}
			c, _ := chaseEvents.LoadOrStore(e.Node, new(atomic.Int64))
			c.(*atomic.Int64).Add(1)
		}})
	n0 := nodes[0]

	const members = 8
	refs := make([]Ref, members)
	for i := range refs {
		refs[i] = mustCreate(t, n0)
	}
	anchor := refs[0]
	for _, r := range refs[1:] {
		if err := n0.Attach(ctx, anchor, r, NoAlliance); err != nil {
			t.Fatal(err)
		}
	}

	// Ring-migrate the closure as fast as transfers complete.
	var stop atomic.Bool
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		ring := []NodeID{"n1", "n2", "n0"}
		for i := 0; !stop.Load(); i++ {
			if err := n0.Migrate(ctx, anchor, ring[i%len(ring)]); err != nil {
				t.Errorf("ring migrate %d: %v", i, err)
				return
			}
		}
	}()

	// Invoker storm: two goroutines per node, each walking the members.
	var wg sync.WaitGroup
	var calls atomic.Int64
	deadline := time.Now().Add(500 * time.Millisecond)
	for _, inv := range nodes {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(n *Node, seed int) {
				defer wg.Done()
				for i := seed; time.Now().Before(deadline); i++ {
					if _, err := Call[int, int](ctx, n, refs[i%members], "Add", 1); err != nil {
						t.Errorf("invoke %s from %s: %v", refs[i%members], n.ID(), err)
						return
					}
					calls.Add(1)
				}
			}(inv, k*3)
		}
	}
	wg.Wait()
	stop.Store(true)
	<-migDone
	if calls.Load() == 0 {
		t.Fatal("no invocations completed under churn")
	}

	// Retirement must never strand a reachable object: every member
	// still resolves from every node once the dust settles.
	for _, n := range nodes {
		for _, r := range refs {
			if _, err := n.Locate(ctx, r); err != nil {
				t.Fatalf("member %s unreachable from %s after churn: %v", r.OID, n.ID(), err)
			}
		}
	}

	// The chase instrumentation observed the storm, and every chase the
	// budget flagged also surfaced as an EventChase — the counter and
	// the event stream must agree.
	var chased int64
	for _, n := range nodes {
		st := n.Stats()
		chased += st.HintHits + st.HintMisses
		var events int64
		if c, ok := chaseEvents.Load(n.ID()); ok {
			events = c.(*atomic.Int64).Load()
		}
		if events != st.ChasesOverBudget {
			t.Errorf("%s: %d EventChase emissions vs ChasesOverBudget=%d",
				n.ID(), events, st.ChasesOverBudget)
		}
	}
	if chased == 0 {
		t.Error("no remote chases recorded under churn")
	}

	// Forwarding state is proportional to the group, not the churn:
	// thousands of hops must not leave thousands of entries behind.
	for _, n := range nodes {
		n.CompactDirectory()
		st := n.Stats()
		if bound := int64(members * 4); st.LocForwards > bound {
			t.Errorf("%s: %d forwards outlive the churn (bound %d)",
				n.ID(), st.LocForwards, bound)
		}
	}
	// The origin's home index names every member's host.
	originsNameHosts(t, nodes, refs)
	// A departed record left its table at commit: every record still
	// in one is the object itself.
	for _, n := range nodes {
		n.store.Range(func(rec *store.Record) bool {
			rec.Mu.Lock()
			st := rec.Status
			rec.Mu.Unlock()
			if st == store.StatusGone {
				t.Errorf("%s: departed record %s still in the table", n.ID(), rec.ID)
			}
			return true
		})
	}
}
