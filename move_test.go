package objmig

import (
	"context"
	"errors"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/wire"
)

func TestPlacementMoveBlockWinsAndLocks(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])

	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("first move not granted")
		}
		if b.At != "n1" {
			t.Errorf("object at %v, want n1", b.At)
		}
		if at := whereIs(t, ctx, nodes[1], ref); at != "n1" {
			t.Errorf("Where = %v, want n1", at)
		}
		// A conflicting move-block from n2 is denied, but its calls
		// work fine (forwarded to n1).
		return nodes[2].Move(ctx, ref, func(ctx context.Context, b2 *Block) error {
			if b2.Granted {
				t.Error("conflicting move was granted over a placement lock")
			}
			v, err := Call[int, int](ctx, nodes[2], ref, "Add", 5)
			if err != nil || v != 5 {
				t.Errorf("loser call = %d, %v", v, err)
			}
			// The object stayed with the winner.
			if at := whereIs(t, ctx, nodes[2], ref); at != "n1" {
				t.Errorf("object stolen to %v", at)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the winner's end-request the lock is gone: n2 can win.
	err = nodes[2].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("move after unlock not granted")
		}
		if at := whereIs(t, ctx, nodes[2], ref); at != "n2" {
			t.Errorf("Where = %v, want n2", at)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlacementLockBlocksMigrate(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])

	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if err := nodes[0].Migrate(ctx, ref, "n0"); !errors.Is(err, ErrDenied) {
			t.Errorf("migrate against lock: %v, want ErrDenied", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unlocked now.
	if err := nodes[0].Migrate(ctx, ref, "n0"); err != nil {
		t.Fatalf("migrate after end: %v", err)
	}
}

func TestConventionalMoveThrashes(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Policy: PolicyConventional})
	ref := mustCreate(t, nodes[0])

	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("first move not granted")
		}
		// Under conventional migration the second mover steals the
		// object mid-block: the thrash of Section 2.4.
		return nodes[2].Move(ctx, ref, func(ctx context.Context, b2 *Block) error {
			if !b2.Granted {
				t.Error("conventional second move was denied")
			}
			if at := whereIs(t, ctx, nodes[2], ref); at != "n2" {
				t.Errorf("object at %v, want stolen to n2", at)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSedentaryMoveDenied(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicySedentary})
	ref := mustCreate(t, nodes[0])

	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if b.Granted {
			t.Error("sedentary system granted a move")
		}
		// Calls still work remotely.
		v, err := Call[int, int](ctx, nodes[1], ref, "Add", 1)
		if err != nil || v != 1 {
			t.Errorf("call = %d, %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A move from the hosting node itself succeeds trivially.
	err = nodes[0].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted || b.At != "n0" {
			t.Errorf("local move: granted=%v at=%v", b.Granted, b.At)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVisitReturnsObject(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])

	err := nodes[1].Visit(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("visit move not granted")
		}
		if at := whereIs(t, ctx, nodes[1], ref); at != "n1" {
			t.Errorf("during visit, Where = %v", at)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if at := whereIs(t, ctx, nodes[0], ref); at != "n0" {
		t.Fatalf("after visit, Where = %v, want n0 (migrated back)", at)
	}
}

func TestMoveOnFixedObjectDenied(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])
	if err := nodes[0].Fix(ctx, ref); err != nil {
		t.Fatal(err)
	}
	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if b.Granted {
			t.Error("move on fixed object granted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if at := whereIs(t, ctx, nodes[1], ref); at != "n0" {
		t.Fatalf("fixed object moved to %v", at)
	}
}

func TestMoveBodyErrorPropagates(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])
	boom := errors.New("boom")
	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// And the lock was still released by the end-request.
	if err := nodes[0].Migrate(ctx, ref, "n0"); err != nil {
		t.Fatalf("object still locked after failing block: %v", err)
	}
}

func TestCompareNodesStealsOnMajority(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Policy: PolicyCompareNodes})
	ref := mustCreate(t, nodes[0])

	// First move wins 1:0 and the object goes to n1.
	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("first move not granted")
		}
		// n2's first move ties 1:1 and is denied.
		return nodes[2].Move(ctx, ref, func(ctx context.Context, b2 *Block) error {
			if b2.Granted {
				t.Error("tying move was granted")
			}
			// n2's second concurrent block makes it 2:1: granted,
			// the object is pulled away mid-block (no locks here).
			return nodes[2].Move(ctx, ref, func(ctx context.Context, b3 *Block) error {
				if !b3.Granted {
					t.Error("majority move was denied")
				}
				if at := whereIs(t, ctx, nodes[2], ref); at != "n2" {
					t.Errorf("Where = %v, want n2", at)
				}
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpenMoves(t, ctx, nodes, ref)
}

func TestCompareReinstantiateHandsObjectToMajority(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Policy: PolicyCompareReinstantiate})
	ref := mustCreate(t, nodes[0])

	// n1 wins the object. While n1's block runs, n2 opens a block
	// (denied, 1:1 tie) and keeps it open across n1's end. With n1
	// ended, n2 holds the clear majority of open move-requests (1:0),
	// so the end-request reinstantiates the object at n2.
	done := make(chan error, 1)
	started := make(chan struct{})
	err := nodes[1].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted {
			t.Error("first move not granted")
		}
		go func() {
			done <- nodes[2].Move(ctx, ref, func(ctx context.Context, b2 *Block) error {
				close(started)
				// Wait until the object lands on n2 (reinstantiation
				// is asynchronous).
				for {
					select {
					case <-ctx.Done():
						return ctx.Err()
					default:
					}
					if at := whereIs(t, ctx, nodes[2], ref); at == "n2" {
						return nil
					}
				}
			})
		}()
		<-started
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if at := whereIs(t, ctx, nodes[0], ref); at != "n2" {
		t.Fatalf("Where = %v, want n2 after reinstantiation", at)
	}
	requireNoOpenMoves(t, ctx, nodes, ref)
}

func TestMoveStayWhenAlreadyLocal(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])
	err := nodes[0].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		if !b.Granted || b.At != "n0" {
			t.Errorf("local move: granted=%v at=%v", b.Granted, b.At)
		}
		// Still locked against others.
		return nodes[1].Move(ctx, ref, func(ctx context.Context, b2 *Block) error {
			if b2.Granted {
				t.Error("lock from a stay-move was not honoured")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveDecisionReasonSurfaced(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
	ref := mustCreate(t, nodes[0])
	err := nodes[0].Move(ctx, ref, func(ctx context.Context, b *Block) error {
		resp, _, err := nodes[1].moveRequest(ctx, &wire.MoveReq{
			Obj: ref.OID, From: "n1", Block: 999,
		})
		if err != nil {
			return err
		}
		if resp.Reason != core.ReasonLocked {
			t.Errorf("reason = %v, want locked", resp.Reason)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMoveDenialsCounted: MovesGranted + MovesStayed + MovesDenied
// classify every decided move-request, so a placement move refused
// because another migration holds its working set is counted and
// announced like a policy denial — whether that migration holds the
// root itself (denied at once, while it still holds it) or only a
// member (waited out, and found placed by the other migration).
func TestMoveDenialsCounted(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		held int // the group member the other migration holds paused
		// lock is what the other migration leaves on its member; a
		// waited-out migration is released 20 ms into the move, any
		// other only once the move has returned.
		lock   core.LockState
		waited bool
	}{
		{"root paused", 0, core.LockState{}, false},
		{"member paused", 1, core.LockState{Held: true, Owner: "n2", Block: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx := ctxShort(t)
			cl, tap := newTappedCluster()
			rec := &recorder{}
			nodes := testClusterOn(t, cl, 3, Config{Policy: PolicyPlacement, Observer: rec.observe})
			group := attachedGroup(t, nodes[0], 2)
			release := holdMigration(t, tap, nodes[0], "n2", tc.lock, group[tc.held])
			if tc.waited {
				time.AfterFunc(20*time.Millisecond, release)
			}
			err := nodes[1].Move(ctx, group[0], func(_ context.Context, b *Block) error {
				if b.Granted {
					t.Error("move granted while another migration holds its working set")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			release()
			if got := nodes[0].Stats().MovesDenied; got != 1 {
				t.Errorf("MovesDenied = %d, want 1", got)
			}
			if got := rec.count(EventMoveDecision, "denied"); got != 1 {
				t.Errorf("%d denied events, want 1", got)
			}
		})
	}
}

// parkSignal is a context that reports when a waiter parks on it:
// Record.Await registers its cancellation hook only once it has to
// wait, and context.AfterFunc hands the hook to a context that
// schedules its own. It is never cancelled.
type parkSignal chan struct{}

var neverDone = make(chan struct{})

func (parkSignal) Deadline() (time.Time, bool) { return time.Time{}, false }
func (parkSignal) Done() <-chan struct{}       { return neverDone }
func (parkSignal) Err() error                  { return nil }
func (parkSignal) Value(any) any               { return nil }

func (p parkSignal) AfterFunc(func()) func() bool {
	select {
	case p <- struct{}{}:
	default:
	}
	return func() bool { return true }
}

// TestParkedMoveGrantedAtUnpause: under conventional migration a
// move-request whose root another migration holds paused parks on the
// record and is granted as soon as that pause ends (an abort or an
// expired lease is an Unpause). The object goes back and forth between
// two nodes, one parked move per trip. A wait that polled the record
// every 2 ms would add at least 400 ms to the 200 moves; parked, they
// take about what the same moves take unpaused.
func TestParkedMoveGrantedAtUnpause(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyConventional})
	ref := mustCreate(t, nodes[0])
	const moves = 200
	trips := func(paused bool) time.Duration {
		var took time.Duration
		for i := 0; i < moves; i++ {
			host, mover := nodes[i%2], nodes[(i+1)%2]
			rec, ok := host.store.Get(ref.OID)
			if !ok {
				t.Fatalf("move %d: object not at %s", i, host.id)
			}
			const token = 1 << 40 // no migration of this node uses it
			parked := make(parkSignal, 1)
			if paused {
				if err := rec.Pause(ctx, token); err != nil {
					t.Fatal(err)
				}
			}
			type result struct {
				resp *wire.MoveResp
				err  error
			}
			done := make(chan result, 1)
			start := time.Now()
			go func() {
				resp, err := host.handleMove(parked, rec, &wire.MoveReq{Obj: ref.OID, From: mover.id, Block: mover.nextBlock()})
				done <- result{resp, err}
			}()
			if paused {
				select {
				case <-parked:
					rec.Unpause(token)
				case <-time.After(5 * time.Second):
					rec.Unpause(token)
					t.Fatalf("move %d never parked on the paused record", i)
				}
			}
			r := <-done
			took += time.Since(start)
			if r.err != nil || r.resp.Outcome != wire.MoveMigrated {
				t.Fatalf("move %d (paused %v): %+v, %v; want granted", i, paused, r.resp, r.err)
			}
		}
		return took
	}
	base := trips(false)
	parked := trips(true)
	t.Logf("%d moves: %v unpaused, %v parked", moves, base, parked)
	if extra := parked - base; extra >= 100*time.Millisecond {
		t.Fatalf("%d parked moves took %v longer than unpaused ones, want < 100ms", moves, extra)
	}
}
