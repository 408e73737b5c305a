package objmig

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/transport"
	"objmig/internal/wire"
)

// TestRelocationRule is the working-set admission rule, caller by
// caller: what each kind of relocation tolerates on a member, and what
// it stamps onto one it admits.
func TestRelocationRule(t *testing.T) {
	t.Parallel()
	root, member := core.OID{Origin: "n0", Seq: 1}, core.OID{Origin: "n0", Seq: 2}
	own := core.LockState{Held: true, Owner: "n1", Block: 7}
	foreign := core.LockState{Held: true, Owner: "n2", Block: 9}
	plain := relocation{root: root, target: "n1"}              // move, migrate, reinstantiation, optimisers, jobs
	refix := relocation{root: root, target: "n1", refix: true} // refix
	placed := relocation{root: root, target: "n1", lock: own}  // a placement move-block

	for _, tc := range []struct {
		name string
		r    relocation
		id   core.OID
		pol  core.ObjState
		want wire.ErrCode // 0: admitted
	}{
		{"plain admits a free member", plain, member, core.ObjState{}, 0},
		{"plain refuses a fixed member", plain, member, core.ObjState{Fixed: true}, wire.CodeFixed},
		{"plain refuses a fixed root", plain, root, core.ObjState{Fixed: true}, wire.CodeFixed},
		{"plain refuses a placed member", plain, member, core.ObjState{Lock: foreign}, wire.CodeDenied},
		{"refix admits its fixed root", refix, root, core.ObjState{Fixed: true}, 0},
		{"refix refuses a fixed member", refix, member, core.ObjState{Fixed: true}, wire.CodeFixed},
		{"refix refuses a placed root", refix, root, core.ObjState{Lock: foreign}, wire.CodeDenied},
		{"placed tolerates its own lock", placed, member, core.ObjState{Lock: own}, 0},
		{"placed refuses a foreign lock", placed, member, core.ObjState{Lock: foreign}, wire.CodeDenied},
		{"placed refuses a fixed member", placed, member, core.ObjState{Lock: own, Fixed: true}, wire.CodeFixed},
		{"placed refuses a fixed root", placed, root, core.ObjState{Fixed: true}, wire.CodeFixed},
	} {
		err := tc.r.admit(tc.id, &tc.pol)
		if tc.want == 0 && err != nil || tc.want != 0 && !isCode(err, tc.want) {
			t.Errorf("%s: admit = %v, want code %d", tc.name, err, tc.want)
		}
	}

	stamp := func(r relocation, id core.OID) (pol core.ObjState) {
		r.mutate(id, &pol)
		return pol
	}
	if got := stamp(plain, root); got.Fixed || got.Lock.Held {
		t.Errorf("plain relocation stamped %+v onto its root", got)
	}
	if got := stamp(refix, root); !got.Fixed {
		t.Error("refix did not fix its root")
	}
	if got := stamp(refix, member); got.Fixed {
		t.Error("refix fixed a member other than its root")
	}
	if got := stamp(placed, member); got.Lock != own {
		t.Errorf("placement move stamped lock %+v, want %+v", got.Lock, own)
	}
}

// polAtHost reads the object's policy state off the record at its
// current host.
func polAtHost(t *testing.T, ctx context.Context, nodes []*Node, ref Ref) core.ObjState {
	t.Helper()
	at := whereIs(t, ctx, nodes[0], ref)
	for _, n := range nodes {
		if n.ID() != at {
			continue
		}
		rec, ok := n.store.Get(ref.OID)
		if !ok {
			t.Fatalf("%s reported at %s, which does not host it", ref, at)
		}
		rec.Mu.Lock()
		defer rec.Mu.Unlock()
		return rec.Pol.Clone()
	}
	t.Fatalf("%s reported at unknown node %s", ref, at)
	return core.ObjState{}
}

// requireNoOpenMoves asserts that every move-request counted on the
// object has been matched by its end-request.
func requireNoOpenMoves(t *testing.T, ctx context.Context, nodes []*Node, ref Ref) {
	t.Helper()
	if open := polAtHost(t, ctx, nodes, ref).OpenMoves; len(open) != 0 {
		t.Fatalf("OpenMoves = %v after every block ended, want none", open)
	}
}

// TestOpenMovesBalancedAfterBusyRetries: a move-request is judged — and
// counted — once, however often its transfer has to chase a busy
// working set. The comparing strategies vote with these counters and
// they travel with the object, so a retry that re-ran the policy would
// leave phantom open requests behind for good.
func TestOpenMovesBalancedAfterBusyRetries(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyCompareNodes})
	a, b := mustCreate(t, nodes[0]), mustCreate(t, nodes[0])
	if err := nodes[0].Attach(ctx, a, b, NoAlliance); err != nil {
		t.Fatal(err)
	}

	// Another migration holds the attached member for a while.
	brec, ok := nodes[0].store.Get(b.OID)
	if !ok {
		t.Fatal("b not hosted at n0")
	}
	const foreignToken = 0xF00D
	if err := brec.Pause(ctx, foreignToken); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(15 * time.Millisecond)
		brec.Unpause(foreignToken)
	}()

	err := nodes[1].Move(ctx, a, func(ctx context.Context, blk *Block) error {
		if !blk.Granted || blk.At != "n1" {
			t.Errorf("move through the busy member: granted=%v at=%v", blk.Granted, blk.At)
		}
		if open := polAtHost(t, ctx, nodes, a).OpenMoves; len(open) != 1 || open["n1"] != 1 {
			t.Errorf("OpenMoves inside the block = %v, want {n1: 1}", open)
		}
		return nil
	})
	<-released
	if err != nil {
		t.Fatal(err)
	}
	if at := whereIs(t, ctx, nodes[0], b); at != "n1" {
		t.Fatalf("attached member at %v, want n1", at)
	}
	requireNoOpenMoves(t, ctx, nodes, a)
}

// foreignPause is a pause token no migration of a test cluster uses.
const foreignPause = 1 << 41

// pauseFor pauses the record of ref at n under foreignPause, as another
// migration would, and resumes it after d. The returned channel yields
// the moment of the Unpause.
func pauseFor(t *testing.T, n *Node, ref Ref, d time.Duration) <-chan time.Time {
	t.Helper()
	rec, ok := n.store.Get(ref.OID)
	if !ok {
		t.Fatalf("%s not hosted at %s", ref, n.ID())
	}
	if err := rec.Pause(ctxShort(t), foreignPause); err != nil {
		t.Fatal(err)
	}
	unpaused := make(chan time.Time, 1)
	stop := time.AfterFunc(d, func() {
		unpaused <- time.Now() // before the Unpause wakes anyone
		rec.Unpause(foreignPause)
	})
	t.Cleanup(func() {
		if stop.Stop() {
			rec.Unpause(foreignPause)
		}
	})
	return unpaused
}

// TestRelocationWaitsOutForeignPause: under conventional migration a
// working set whose member another migration holds is waited out,
// however long that migration takes — here three times what the old
// 50 × 2 ms poll allowed — and travels as soon as the member is free,
// or follows the member if that migration carries it elsewhere; and a
// former host that still holds a paused copy is retried until that
// migration's commit lands.
func TestRelocationWaitsOutForeignPause(t *testing.T) {
	t.Parallel()
	const hold = 300 * time.Millisecond

	t.Run("move", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := testCluster(t, 2, Config{Policy: PolicyConventional})
		group := attachedGroup(t, nodes[0], 2)
		unpaused := pauseFor(t, nodes[0], group[1], hold)
		err := nodes[1].Move(ctx, group[0], func(ctx context.Context, b *Block) error {
			if !b.Granted || b.At != "n1" || len(b.Moved) != len(group) {
				t.Errorf("move through the busy member: granted=%v at=%v moved=%d", b.Granted, b.At, len(b.Moved))
			}
			if late := time.Since(<-unpaused); late >= 100*time.Millisecond {
				t.Errorf("the set landed %v after the Unpause, want < 100ms", late)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range group {
			if at := whereIs(t, ctx, nodes[0], m); at != "n1" {
				t.Errorf("member %d at %v, want n1", i, at)
			}
		}
	})

	t.Run("migrate", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := testCluster(t, 2, Config{Policy: PolicyConventional})
		group := attachedGroup(t, nodes[0], 2)
		pauseFor(t, nodes[0], group[1], hold)
		if err := nodes[0].Migrate(ctx, group[0], "n1"); err != nil {
			t.Fatal(err)
		}
		for i, m := range group {
			if at := whereIs(t, ctx, nodes[0], m); at != "n1" {
				t.Errorf("member %d at %v, want n1", i, at)
			}
		}
	})

	t.Run("holder commits the member elsewhere", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		cl, tap := newTappedCluster()
		nodes := testClusterOn(t, cl, 3, Config{Policy: PolicyConventional})
		group := attachedGroup(t, nodes[0], 2)
		release := holdMigration(t, tap, nodes[0], "n2", core.LockState{}, group[1])
		time.AfterFunc(hold, release)
		err := nodes[1].Move(ctx, group[0], func(ctx context.Context, b *Block) error {
			if !b.Granted || len(b.Moved) != len(group) {
				t.Errorf("move after the member left: granted=%v moved=%d", b.Granted, len(b.Moved))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range group {
			if at := whereIs(t, ctx, nodes[0], m); at != "n1" {
				t.Errorf("member %d at %v, want n1", i, at)
			}
		}
	})

	t.Run("former host still holds a paused copy", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		net := transport.NewNetwork()
		commits := &sendTap{Transport: net.Transport(), kind: wire.KCommit, to: "n1"}
		refused := make(chan struct{}, 1)
		observe := func(e Event) {
			if e.Kind == EventMigrateStream && e.Node == "n1" && e.Target == "n0" && e.Outcome == "abort" {
				select {
				case refused <- struct{}{}:
				default:
				}
			}
		}
		nodes := testClusterOn(t, &Cluster{tr: commits, mem: net}, 3, Config{Policy: PolicyConventional, Observer: observe})
		x := mustCreate(t, nodes[1])

		// n2 carries x from n1 to n0 and holds its commit to n1: x is live
		// at n0 and still paused at n1.
		held, unblock := make(chan struct{}), make(chan struct{})
		release := sync.OnceFunc(func() { close(unblock) })
		t.Cleanup(release)
		commits.arm(func() { close(held); <-unblock })
		first := make(chan error, 1)
		go func() {
			_, err := nodes[2].migrateGroup(ctx, relocation{root: x.OID, target: "n0"}, map[core.OID]NodeID{x.OID: "n1"})
			first <- err
		}()
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			t.Fatal("the commit to the former host was never sent")
		}
		// The commit lands once n1 has refused the move back at least once.
		go func() {
			select {
			case <-refused:
			case <-ctx.Done():
			}
			release()
		}()
		if err := nodes[0].Migrate(ctx, x, "n1"); err != nil {
			t.Fatal(err)
		}
		if err := <-first; err != nil {
			t.Fatalf("the first migration: %v", err)
		}
		if at := whereIs(t, ctx, nodes[0], x); at != "n1" {
			t.Errorf("x at %v, want n1", at)
		}
	})
}

// TestMoveVetoFailsAtOnce: a move under conventional migration
// towards a node that refuses admission fails at once with the veto's
// own message — a refusal that stands is not retried as if the working
// set were busy.
func TestMoveVetoFailsAtOnce(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{Policy: PolicyConventional})
	group := attachedGroup(t, nodes[0], 2)
	nodes[1].draining.Store(true)
	start := time.Now()
	err := nodes[1].Move(ctx, group[0], func(context.Context, *Block) error {
		t.Error("the block ran although its move was vetoed")
		return nil
	})
	took := time.Since(start)
	if !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), "node n1 is draining") {
		t.Fatalf("move = %v, want the draining veto", err)
	}
	if took >= 20*time.Millisecond {
		t.Errorf("vetoed move took %v, want < 20ms", took)
	}
	for i, m := range group {
		if at := whereIs(t, ctx, nodes[0], m); at != "n0" {
			t.Errorf("member %d at %v, want n0", i, at)
		}
	}
}

// sendTap wraps a transport so a test can run a hook, synchronously,
// just before the first request frame of one kind leaves any node —
// and, armed with armFail, drop that frame: its Send fails and the
// frame never leaves. Like installTap it reads the rpc frame header
// (direction byte, 8-byte call ID, kind byte); the tests assert the
// hook fired, so a layout change fails loudly.
type sendTap struct {
	transport.Transport
	kind wire.Kind
	to   string // frames to this address only; "": to any

	mu   sync.Mutex
	hook func() // nil: disarmed
	fail bool   // the hooked frame is dropped
}

func (t *sendTap) arm(hook func()) { t.set(hook, false) }

// armFail is arm, and the hooked frame is dropped.
func (t *sendTap) armFail(hook func()) { t.set(hook, true) }

func (t *sendTap) set(hook func(), fail bool) {
	t.mu.Lock()
	t.hook, t.fail = hook, fail
	t.mu.Unlock()
}

func (t *sendTap) Dial(addr string) (transport.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil || t.to != "" && addr != t.to {
		return c, err
	}
	return &sendTapConn{Conn: c, tap: t}, nil
}

type sendTapConn struct {
	transport.Conn
	tap *sendTap
}

var errTapDropped = errors.New("sendTap: frame dropped")

func (c *sendTapConn) Send(frame []byte) error {
	if len(frame) >= 10 && frame[0] == 0 && wire.Kind(frame[9]) == c.tap.kind {
		c.tap.mu.Lock()
		hook, fail := c.tap.hook, c.tap.fail
		c.tap.hook, c.tap.fail = nil, false
		c.tap.mu.Unlock()
		if hook != nil {
			hook()
			if fail {
				return errTapDropped
			}
		}
	}
	return c.Conn.Send(frame)
}

// TestReinstantiationRespectsFixedMember: the end-request's
// reinstantiation is an ordinary relocation. A fixed member vetoes it —
// the closure moves as a unit or not at all — and a member that
// migrated between the closure walk and its pause makes it walk again
// instead of silently giving up.
func TestReinstantiationRespectsFixedMember(t *testing.T) {
	t.Parallel()

	// reinstantiate drives the scenario on a four-node comparing-and-
	// reinstantiation cluster: n1 wins a, inside runs while n1's block
	// is open, n2 opens a block on a (denied on the 1:1 tie) and holds
	// it across n1's end — n2 then has the clear majority, so n1's
	// end-request reinstantiates a's working set at n2. settled runs
	// while n2's block is still open.
	reinstantiate := func(t *testing.T, cl *Cluster, inside func(ctx context.Context, nodes []*Node, a, b Ref),
		settled func(ctx context.Context, nodes []*Node, a, b Ref)) {

		ctx := ctxShort(t)
		nodes := testClusterOn(t, cl, 4, Config{Policy: PolicyCompareReinstantiate})
		a, b := mustCreate(t, nodes[0]), mustCreate(t, nodes[0])

		held, release := make(chan struct{}), make(chan struct{})
		done := make(chan error, 1)
		err := nodes[1].Move(ctx, a, func(ctx context.Context, blk *Block) error {
			if !blk.Granted {
				t.Error("n1's move not granted")
			}
			inside(ctx, nodes, a, b)
			go func() {
				done <- nodes[2].Move(ctx, a, func(ctx context.Context, b2 *Block) error {
					if b2.Granted {
						t.Error("n2's tying move was granted")
					}
					close(held)
					<-release
					return nil
				})
			}()
			<-held
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		settled(ctx, nodes, a, b)
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		requireNoOpenMoves(t, ctx, nodes, a)
	}

	t.Run("fixed member vetoes", func(t *testing.T) {
		t.Parallel()
		reinstantiate(t, NewLocalCluster(),
			func(ctx context.Context, nodes []*Node, a, b Ref) {
				// The working set assembles at n1, then b is fixed there.
				if err := nodes[1].Attach(ctx, a, b, NoAlliance); err != nil {
					t.Fatal(err)
				}
				if err := nodes[1].CollocateNow(ctx, a, b); err != nil {
					t.Fatal(err)
				}
				if err := nodes[1].Fix(ctx, b); err != nil {
					t.Fatal(err)
				}
			},
			func(ctx context.Context, nodes []*Node, a, b Ref) {
				// The reinstantiation runs in the background and, vetoed,
				// leaves no trace: watch for a while that nothing moves.
				for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
					if at := whereIs(t, ctx, nodes[0], b); at != "n1" {
						t.Fatalf("fixed member b dragged to %v", at)
					}
					if at := whereIs(t, ctx, nodes[0], a); at != "n1" {
						t.Fatalf("a left for %v without its fixed member", at)
					}
				}
				if fixed, err := nodes[0].IsFixed(ctx, b); err != nil || !fixed {
					t.Fatalf("IsFixed(b) = %v, %v; want true", fixed, err)
				}
			})
	})

	t.Run("raced member is re-walked", func(t *testing.T) {
		t.Parallel()
		net := transport.NewNetwork()
		tap := &sendTap{Transport: net.Transport(), kind: wire.KPause}
		fired := make(chan struct{})
		reinstantiate(t, &Cluster{tr: tap, mem: net},
			func(ctx context.Context, nodes []*Node, a, b Ref) {
				// b is attached but stays behind at n0, so the
				// reinstantiation pauses it over the wire — and just
				// before that pause leaves n1, b alone moves on to n3.
				if err := nodes[1].Attach(ctx, a, b, NoAlliance); err != nil {
					t.Fatal(err)
				}
				tap.arm(func() {
					defer close(fired)
					r := relocation{root: b.OID, target: "n3"}
					if _, err := nodes[0].migrateGroup(ctx, r, map[core.OID]NodeID{b.OID: "n0"}); err != nil {
						t.Errorf("moving b out from under the walk: %v", err)
					}
				})
			},
			func(ctx context.Context, nodes []*Node, a, b Ref) {
				select {
				case <-fired:
				case <-time.After(5 * time.Second):
					t.Fatal("the reinstantiation never paused b over the wire")
				}
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
					atA, atB := whereIs(t, ctx, nodes[0], a), whereIs(t, ctx, nodes[0], b)
					if atA == "n2" && atB == "n2" {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("a at %v, b at %v; want the working set reinstantiated at n2", atA, atB)
					}
				}
			})
	})
}

// TestEnableRacesClose: enabling a daemon concurrently with Close must
// end with both calls returned — either the enable loses (ErrClosed) or
// Close's sweep stops what it installed. An enable that slipped in
// after the sweep would leave Close waiting on a goroutine nobody stops,
// or a later Disable waiting on one that never started.
func TestEnableRacesClose(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		enable  func(*Node) error
		disable func(*Node)
	}{
		{"health", func(n *Node) error { return n.EnableHealth(HealthConfig{}) }, (*Node).DisableHealth},
		{"autopilot", func(n *Node) error { return n.EnableAutopilot(AutopilotConfig{}) }, (*Node).DisableAutopilot},
		{"placement", func(n *Node) error { return n.EnablePlacement(PlacementConfig{}) }, (*Node).DisablePlacement},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 300; i++ {
				n := testCluster(t, 1, Config{})[0]
				start := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					var wg sync.WaitGroup
					wg.Add(2)
					go func() {
						defer wg.Done()
						<-start
						_ = tc.enable(n)
					}()
					go func() {
						defer wg.Done()
						<-start
						_ = n.Close()
					}()
					close(start)
					wg.Wait()
					tc.disable(n) // must not wait on a daemon that never started
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("iteration %d: enable, Close and disable did not all return", i)
				}
				if err := tc.enable(n); err != ErrClosed {
					t.Fatalf("iteration %d: enable on a closed node = %v, want ErrClosed", i, err)
				}
			}
		})
	}
}

// holdMigration starts migrating objs, all hosted at from, to target as
// one group that arrives under lock (a zero lock: unplaced), and returns
// once tap holds the group's committing install frame back: until
// release, every member stays paused at from by a migration in flight.
// release delivers the frame and waits for the migration to succeed;
// calling it again is a no-op.
func holdMigration(t *testing.T, tap *installTap, from *Node, target NodeID, lock core.LockState, objs ...Ref) (release func()) {
	t.Helper()
	tap.setDecide(func(req *wire.InstallReq) tapAction {
		if req.Commit {
			return tapHold
		}
		return tapDeliver
	})
	members := make(map[core.OID]NodeID, len(objs))
	for _, o := range objs {
		members[o.OID] = from.ID()
	}
	ctx, seen := ctxShort(t), tap.seen()
	done := make(chan error, 1)
	go func() {
		_, err := from.migrateGroup(ctx, relocation{root: objs[0].OID, target: target, lock: lock}, members)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); tap.seen() == seen; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held migration never sent its install frame")
		}
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			tap.setDecide(nil)
			if err := tap.release(); err != nil {
				t.Error(err)
			}
			if err := <-done; err != nil {
				t.Errorf("held migration: %v", err)
			}
		})
	}
	t.Cleanup(release)
	return release
}

// relocationCounters are the counters a transfer moves and a stay
// leaves alone, summed over a cluster.
type relocationCounters struct {
	migrationsOut, movedOut, installed, homeUpdates, sessions int64
}

func countRelocations(nodes []*Node) (c relocationCounters) {
	for _, n := range nodes {
		s := n.Stats()
		c.migrationsOut += s.MigrationsOut
		c.movedOut += s.ObjectsMovedOut
		c.installed += s.ObjectsInstalled
		c.homeUpdates += s.HomeUpdatesQueued
		c.sessions += int64(n.sessionCount())
	}
	return c
}

// TestRelocateStay: a relocation whose working set is already live at
// its target, the node that runs it, stamps the set under the members'
// record locks and transfers nothing — and falls back to the transfer,
// unchanged, whenever one member is not live there.
func TestRelocateStay(t *testing.T) {
	t.Parallel()

	// lockedBy asserts that every member carries (or, with a zero lock,
	// does not carry) the placement lock want.
	lockedBy := func(t *testing.T, ctx context.Context, nodes []*Node, group []Ref, want core.LockState) {
		t.Helper()
		for i, m := range group {
			if got := polAtHost(t, ctx, nodes, m).Lock; got != want {
				t.Errorf("member %d lock = %+v, want %+v", i, got, want)
			}
		}
	}

	t.Run("stayed block transfers nothing", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		rec := &recorder{}
		nodes := observedCluster(t, 3, PolicyPlacement, rec)
		// The closure lives at n1 and was created at n0, so a transfer
		// would have an origin to advise.
		group := attachedGroup(t, nodes[0], 4)
		if err := nodes[0].Migrate(ctx, group[0], "n1"); err != nil {
			t.Fatal(err)
		}
		before, migrations := countRelocations(nodes), rec.count(EventMigration, "")
		err := nodes[1].Move(ctx, group[0], func(ctx context.Context, b *Block) error {
			if !b.Granted || b.At != "n1" || len(b.Moved) != len(group) {
				t.Errorf("stayed block: granted=%v at=%v moved=%d", b.Granted, b.At, len(b.Moved))
			}
			lock := polAtHost(t, ctx, nodes, group[0]).Lock
			if !lock.Held || lock.Owner != "n1" {
				t.Fatalf("root lock = %+v, want held by n1", lock)
			}
			lockedBy(t, ctx, nodes, group, lock)
			for i, m := range group {
				err := nodes[2].Move(ctx, m, func(ctx context.Context, b2 *Block) error {
					if b2.Granted {
						t.Errorf("member %d granted to n2 inside n1's block", i)
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if after := countRelocations(nodes); after != before {
			t.Errorf("counters moved across the stay: %+v, then %+v", before, after)
		}
		if got := rec.count(EventMigration, ""); got != migrations {
			t.Errorf("%d migration events after the stay, want %d", got, migrations)
		}
		if got := rec.count(EventMoveDecision, "stayed"); got != 1 || nodes[1].Stats().MovesStayed != 1 {
			t.Errorf("stayed decisions: %d events, MovesStayed %d; want 1 and 1", got, nodes[1].Stats().MovesStayed)
		}
		lockedBy(t, ctx, nodes, group, core.LockState{})
	})

	t.Run("member elsewhere transfers", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		rec := &recorder{}
		nodes := observedCluster(t, 3, PolicyPlacement, rec)
		group := attachedGroup(t, nodes[0], 4)
		if err := nodes[0].Migrate(ctx, group[0], "n1"); err != nil {
			t.Fatal(err)
		}
		last := group[3]
		if _, err := nodes[1].migrateGroup(ctx, relocation{root: last.OID, target: "n2"}, map[core.OID]NodeID{last.OID: "n1"}); err != nil {
			t.Fatal(err)
		}
		before, migrations := countRelocations(nodes), rec.count(EventMigration, "")
		err := nodes[1].Move(ctx, group[0], func(ctx context.Context, b *Block) error {
			if at := whereIs(t, ctx, nodes[1], last); at != "n1" {
				t.Errorf("the member left at n2 is at %v inside the block, want n1", at)
			}
			lockedBy(t, ctx, nodes, group, core.LockState{Held: true, Owner: "n1", Block: polAtHost(t, ctx, nodes, group[0]).Lock.Block})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		after := countRelocations(nodes)
		if after.migrationsOut != before.migrationsOut+1 || after.installed != before.installed+int64(len(group)) {
			t.Errorf("transfer counters %+v, then %+v; want one migration installing %d", before, after, len(group))
		}
		if got := rec.count(EventMigration, ""); got != migrations+1 {
			t.Errorf("%d migration events, want %d", got, migrations+1)
		}
	})

	t.Run("fixed member vetoes and nothing is stamped", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		nodes := testCluster(t, 2, Config{Policy: PolicyPlacement})
		group := attachedGroup(t, nodes[0], 4)
		// The last member in canonical order: every other member is
		// admitted before it is.
		if err := nodes[0].Fix(ctx, group[3]); err != nil {
			t.Fatal(err)
		}
		err := nodes[0].Move(ctx, group[0], func(context.Context, *Block) error {
			t.Error("the block ran although its working set holds a fixed member")
			return nil
		})
		if !errors.Is(err, ErrFixed) {
			t.Fatalf("move = %v, want ErrFixed", err)
		}
		lockedBy(t, ctx, nodes, group, core.LockState{})
		if c := countRelocations(nodes); c.migrationsOut != 0 {
			t.Errorf("%d migrations, want none", c.migrationsOut)
		}
	})

	t.Run("paused member falls back and is denied", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		cl, tap := newTappedCluster()
		rec := &recorder{}
		nodes := testClusterOn(t, cl, 2, Config{Policy: PolicyPlacement, Observer: rec.observe})
		group := attachedGroup(t, nodes[0], 4)
		// The walk waits out the migration holding group[2], which then
		// leaves it placed at n1: the stay falls back to the transfer,
		// and the transfer meets the foreign lock.
		foreign := core.LockState{Held: true, Owner: "n1", Block: 99}
		release := holdMigration(t, tap, nodes[0], "n1", foreign, group[2])
		time.AfterFunc(20*time.Millisecond, release)
		err := nodes[0].Move(ctx, group[0], func(context.Context, *Block) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		release()
		if s := nodes[0].Stats(); s.MovesDenied != 1 || s.MovesStayed != 0 {
			t.Errorf("MovesDenied %d, MovesStayed %d; want 1 and 0", s.MovesDenied, s.MovesStayed)
		}
		if got := rec.count(EventMoveDecision, "denied"); got != 1 {
			t.Errorf("%d denied events, want 1", got)
		}
		lockedBy(t, ctx, nodes, []Ref{group[0], group[1], group[3]}, core.LockState{})
		lockedBy(t, ctx, nodes, group[2:3], foreign)
	})

	t.Run("refix in place", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		rec := &recorder{}
		nodes := observedCluster(t, 2, PolicyPlacement, rec)
		group := attachedGroup(t, nodes[0], 2)
		if err := nodes[1].Refix(ctx, group[0], "n0"); err != nil {
			t.Fatal(err)
		}
		for i, want := range []bool{true, false} {
			if fixed, err := nodes[1].IsFixed(ctx, group[i]); err != nil || fixed != want {
				t.Errorf("IsFixed(member %d) = %v, %v; want %v", i, fixed, err, want)
			}
		}
		if c := countRelocations(nodes); c.migrationsOut != 0 || c.installed != 0 || rec.count(EventMigration, "") != 0 {
			t.Errorf("refix in place transferred: %+v", c)
		}
	})
}

// TestRelocateStayRacesMigrations runs stays, granted and denied blocks
// and cross-node migrations of overlapping working sets at once: the
// stay's record locks and the transfers' pauses must serialise, so
// afterwards every object is live, unpaused, on exactly one node.
func TestRelocateStayRacesMigrations(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Policy: PolicyPlacement})
	objs := make([]Ref, 8)
	for i := range objs {
		objs[i] = mustCreate(t, nodes[0])
	}
	// Two chains of three and two singletons: a block or a migration on
	// any chain member drags the whole chain.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		if err := nodes[0].Attach(ctx, objs[e[0]], objs[e[1]], NoAlliance); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				o, n := objs[rng.Intn(len(objs))], nodes[rng.Intn(len(nodes))]
				var err error
				switch rng.Intn(3) {
				case 0: // most often a stay: from where the object is
					var at NodeID
					if at, err = n.Locate(ctx, o); err != nil {
						break
					}
					for _, h := range nodes {
						if h.ID() == at {
							n = h
						}
					}
					fallthrough
				case 1:
					err = n.Move(ctx, o, func(ctx context.Context, _ *Block) error {
						_, err := Call[int, int](ctx, n, o, "Add", 1)
						return err
					})
				case 2:
					err = n.Migrate(ctx, o, nodes[rng.Intn(len(nodes))].ID())
				}
				if err != nil && !errors.Is(err, ErrDenied) {
					t.Errorf("%s: %v", o, err)
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
	for _, o := range objs {
		var live []NodeID
		for _, n := range nodes {
			if rec, ok := n.store.Get(o.OID); ok {
				rec.Mu.Lock()
				if rec.Status != store.StatusActive || rec.Pol.Lock.Held {
					t.Errorf("%s at %s: status %d, lock %+v after every block ended", o, n.ID(), rec.Status, rec.Pol.Lock)
				}
				rec.Mu.Unlock()
				live = append(live, n.ID())
			}
		}
		if len(live) != 1 {
			t.Errorf("%s live at %v, want exactly one node", o, live)
		}
	}
}
