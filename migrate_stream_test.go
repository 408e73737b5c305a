package objmig

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/rpc"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

// TestStreamedGroupMigration: a multi-host group whose snapshots do not
// fit one chunk migrates as a stream of several InstallReq frames and
// still moves as a unit — every member arrives, every value survives,
// and no staging session is left behind on any node.
func TestStreamedGroupMigration(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	// ChunkBytes of 1 forces one snapshot per pause sub-batch and per
	// chunk: the smallest possible stream granularity.
	nodes := testCluster(t, 3, Config{Migrate: MigrateConfig{ChunkBytes: 1}})
	root := mustCreate(t, nodes[0])
	members := []Ref{root}
	for i := 0; i < 4; i++ {
		m := mustCreate(t, nodes[0])
		members = append(members, m)
	}
	// One member lives on another host, so the stream spans hosts.
	remote := mustCreate(t, nodes[1])
	members = append(members, remote)
	for _, m := range members[1:] {
		if err := nodes[0].Attach(ctx, root, m, NoAlliance); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range members {
		if _, err := Call[int, int](ctx, nodes[0], m, "Add", 10+i); err != nil {
			t.Fatal(err)
		}
	}

	if err := nodes[0].Migrate(ctx, root, "n2"); err != nil {
		t.Fatal(err)
	}

	for i, m := range members {
		if at := whereIs(t, ctx, nodes[0], m); at != "n2" {
			t.Fatalf("member %d at %v, want n2", i, at)
		}
		v, err := Call[struct{}, int](ctx, nodes[0], m, "Get", struct{}{})
		if err != nil || v != 10+i {
			t.Fatalf("member %d value %d (%v), want %d", i, v, err, 10+i)
		}
	}
	st := nodes[0].Stats()
	if st.StreamChunksOut < int64(len(members)-1) {
		t.Fatalf("coordinator streamed %d chunks for a %d-member group at 1-byte chunking", st.StreamChunksOut, len(members))
	}
	if st.StreamBytesOut == 0 {
		t.Fatal("no streamed bytes counted")
	}
	tgt := nodes[2].Stats()
	if tgt.StreamSessionsOpened != 1 {
		t.Fatalf("target opened %d sessions, want 1", tgt.StreamSessionsOpened)
	}
	if tgt.StreamChunksIn != st.StreamChunksOut {
		t.Fatalf("target staged %d chunks, coordinator sent %d", tgt.StreamChunksIn, st.StreamChunksOut)
	}
	for i, n := range nodes {
		if c := n.sessionCount(); c != 0 {
			t.Fatalf("node %d holds %d staging sessions after a committed migration", i, c)
		}
	}
}

// TestMigrateVetoResumesAllHosts: when a veto stops a group migration
// after some hosts have already paused and answered, every paused
// object on every host must be resumed — a veto must never strand a
// member in the paused state. Both vetoes run at both frame counts: the
// coordinator's per-snapshot admission check on a two-host group, and
// the target's capacity admission on a single-host group, whose first
// sub-batch is paused before the target is even asked.
func TestMigrateVetoResumesAllHosts(t *testing.T) {
	t.Parallel()
	for _, chunk := range []int{0, 1} {
		chunk := chunk
		t.Run(fmt.Sprintf("admit/ChunkBytes=%d", chunk), func(t *testing.T) {
			t.Parallel()
			ctx := ctxShort(t)
			nodes := testCluster(t, 3, Config{Migrate: MigrateConfig{ChunkBytes: chunk}})
			root := mustCreate(t, nodes[0])
			near := mustCreate(t, nodes[0])
			far := mustCreate(t, nodes[1]) // second host: the veto crosses nodes
			for _, m := range []Ref{near, far} {
				if err := nodes[0].Attach(ctx, root, m, NoAlliance); err != nil {
					t.Fatal(err)
				}
			}
			// Fixing the remote member makes the per-snapshot admission check
			// veto the whole group.
			if err := nodes[1].Fix(ctx, far); err != nil {
				t.Fatal(err)
			}
			err := nodes[0].Migrate(ctx, root, "n2")
			if !errors.Is(err, ErrFixed) {
				t.Fatalf("migration with a fixed member: %v, want ErrFixed", err)
			}
			assertGroupResumed(t, nodes, []Ref{root, near, far}, []NodeID{"n0", "n0", "n1"})
		})
		t.Run(fmt.Sprintf("capacity/ChunkBytes=%d", chunk), func(t *testing.T) {
			t.Parallel()
			ctx := ctxShort(t)
			mc := MigrateConfig{ChunkBytes: chunk}
			nodes := nodesOn(t, NewLocalCluster(),
				Config{ID: "n0", Migrate: mc}, Config{ID: "n1", Migrate: mc, Capacity: 2})
			if err := nodes[1].EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
				t.Fatal(err)
			}
			group := attachedGroup(t, nodes[0], 3)
			err := nodes[0].Migrate(ctx, group[0], "n1")
			if !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), "capacity") {
				t.Fatalf("migration of 3 objects to a 2-object node: %v, want a capacity denial", err)
			}
			assertGroupResumed(t, nodes, group, []NodeID{"n0", "n0", "n0"})
			if res := nodes[1].resv.Reserved(); res.Objects != 0 {
				t.Fatalf("vetoed migration left a claim behind: %+v", res)
			}
		})
	}
}

// TestAbortOncePerParticipant: a transfer the admission vetoes sends
// each participant one abort. The target also hosts a member, and its
// abort names it; the target is not sent a second abort for its session.
func TestAbortOncePerParticipant(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	tap := &sendTap{Transport: cl.tr, kind: wire.KAbort, to: "n2"}
	cl.tr = tap
	nodes := nodesOn(t, cl, Config{ID: "n0"}, Config{ID: "n1"}, Config{ID: "n2"})
	root, far, there := mustCreate(t, nodes[0]), mustCreate(t, nodes[1]), mustCreate(t, nodes[2])
	for _, m := range []Ref{far, there} {
		if err := nodes[0].Attach(ctx, root, m, NoAlliance); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[1].Fix(ctx, far); err != nil { // the admission vetoes far's snapshot
		t.Fatal(err)
	}
	var aborts atomic.Int32
	var count func()
	count = func() { aborts.Add(1); tap.arm(count) }
	tap.arm(count)
	if err := nodes[0].Migrate(ctx, root, "n2"); !errors.Is(err, ErrFixed) {
		t.Fatalf("migration with a fixed member: %v, want ErrFixed", err)
	}
	if got := aborts.Load(); got != 1 {
		t.Fatalf("the target was sent %d aborts, want 1", got)
	}
	assertGroupResumed(t, nodes, []Ref{root, far, there}, []NodeID{"n0", "n1", "n2"})
}

// nodesOn starts one counter-hosting node per config on cl.
func nodesOn(t *testing.T, cl *Cluster, cfgs ...Config) []*Node {
	t.Helper()
	nodes := make([]*Node, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Cluster = cl
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[i] = n
	}
	return nodes
}

// attachedGroup creates size counters on n, attached to the first, and
// gives member i the value 10+i.
func attachedGroup(t *testing.T, n *Node, size int) []Ref {
	t.Helper()
	ctx := ctxShort(t)
	group := make([]Ref, size)
	for i := range group {
		group[i] = mustCreate(t, n)
		if i > 0 {
			if err := n.Attach(ctx, group[0], group[i], NoAlliance); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Call[int, int](ctx, n, group[i], "Add", 10+i); err != nil {
			t.Fatal(err)
		}
	}
	return group
}

// assertGroupResumed checks that a migration that did not happen left
// nothing behind: every member answers promptly where it was (a
// stranded pause would block the call until its context dies) and no
// node holds a staging session.
func assertGroupResumed(t *testing.T, nodes []*Node, group []Ref, at []NodeID) {
	t.Helper()
	ctx, cancel := context.WithTimeout(ctxShort(t), 5*time.Second)
	defer cancel()
	for i, m := range group {
		if _, err := Call[int, int](ctx, nodes[0], m, "Add", 0); err != nil {
			t.Fatalf("member %d unusable: %v", i, err)
		}
		if got := whereIs(t, ctx, nodes[0], m); got != at[i] {
			t.Fatalf("member %d at %v, want %v", i, got, at[i])
		}
	}
	for i, n := range nodes {
		if c := n.sessionCount(); c != 0 {
			t.Fatalf("node %d holds %d staging sessions", i, c)
		}
	}
}

// TestCrashRulesAtEveryFrameCount runs both ends of the point-of-no-
// return rule through the real coordinator, once with the group in one
// frame and once in many (told apart on the wire, by the tap's frame
// count): the commit-bearing frame's ack is lost, or the frame itself
// is held back until the sources' leases have given up on it — and
// then released either after the lease resolved or just as the lease
// fences the target.
func TestCrashRulesAtEveryFrameCount(t *testing.T) {
	t.Parallel()
	arms := []struct {
		name   string
		chunk  int
		frames int // install frames of a 3-member single-host group
	}{
		{"one-frame", 0, 1},
		{"many-frames", 1, 4}, // open+first member, two more members, commit
	}
	for _, arm := range arms {
		arm := arm
		// world's aborts tap runs a hook just before the first abort frame
		// leaves any node.
		world := func(t *testing.T) (src, tgt *Node, group []Ref, tap *installTap, aborts *sendTap) {
			cl, tap := newTappedCluster()
			aborts = &sendTap{Transport: cl.tr, kind: wire.KAbort}
			cl.tr = aborts
			// The lease leaves the coordinator half a second for everything
			// before its commit, even on a loaded machine.
			mc := MigrateConfig{ChunkBytes: arm.chunk, Lease: time.Second}
			nodes := nodesOn(t, cl, Config{ID: "n0", Migrate: mc}, Config{ID: "n1", Migrate: mc})
			return nodes[0], nodes[1], attachedGroup(t, nodes[0], 3), tap, aborts
		}
		holdCommit := func(req *wire.InstallReq) tapAction {
			if req.Commit {
				return tapHold
			}
			return tapDeliver
		}
		// migrate runs the doomed migration: its commit-bearing frame
		// never gets an answer, so the call ends with its context.
		migrate := func(t *testing.T, src *Node, root Ref, tap *installTap) {
			mctx, cancel := context.WithTimeout(ctxShort(t), 400*time.Millisecond)
			defer cancel()
			if err := src.Migrate(mctx, root, "n1"); err == nil {
				t.Fatal("migration succeeded without an answer to its commit")
			}
			if got := tap.seen(); got != arm.frames {
				t.Fatalf("%d install frames on the wire, want %d", got, arm.frames)
			}
		}
		values := func(t *testing.T, via *Node, group []Ref, at NodeID) {
			ctx := ctxShort(t)
			for i, m := range group {
				if v, err := Call[struct{}, int](ctx, via, m, "Get", struct{}{}); err != nil || v != 10+i {
					t.Fatalf("member %d reads %d (%v), want %d", i, v, err, 10+i)
				}
				if got := whereIs(t, ctx, via, m); got != at {
					t.Fatalf("member %d at %v, want %v", i, got, at)
				}
			}
		}

		// The ack is lost: the install happened, the coordinator cannot
		// know, and must not abort. The lease asks the target and
		// finishes the commit.
		t.Run(arm.name+"/lost-ack-resolves-committed", func(t *testing.T) {
			t.Parallel()
			src, tgt, group, tap, _ := world(t)
			tap.setDecide(func(req *wire.InstallReq) tapAction {
				if req.Commit {
					return tapLoseReply
				}
				return tapDeliver
			})
			migrate(t, src, group[0], tap)
			eventually(t, 5*time.Second, func() bool { return src.Stats().ObjectsHosted == 0 },
				"sources never departed after a committed-but-unacked migration")
			values(t, src, group, "n1")
			if st := src.Stats(); st.PauseLeasesExpired != 1 {
				t.Fatalf("PauseLeasesExpired = %d, want 1", st.PauseLeasesExpired)
			}
			if got := tgt.Stats().ObjectsHosted; got != 3 {
				t.Fatalf("target hosts %d objects, want 3", got)
			}
		})

		// The frame never arrives: nothing installed, the lease asks the
		// target, fences the migration there and resumes. When the frame
		// finally lands it must bounce off the fence.
		t.Run(arm.name+"/dropped-frame-resolves-aborted", func(t *testing.T) {
			t.Parallel()
			src, tgt, group, tap, _ := world(t)
			tap.setDecide(holdCommit)
			migrate(t, src, group[0], tap)
			eventually(t, 5*time.Second, func() bool { return src.Stats().PauseLeasesExpired == 1 },
				"the pause lease never fired")
			assertGroupResumed(t, []*Node{src, tgt}, group, []NodeID{"n0", "n0", "n0"})
			if err := tap.release(); err != nil {
				t.Fatal(err)
			}
			select {
			case dir := <-tap.late:
				if dir != 2 {
					t.Fatalf("the late frame was answered with direction %d, want an error reply", dir)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the late frame was never answered")
			}
			values(t, src, group, "n0")
			if got := tgt.Stats().ObjectsHosted; got != 0 {
				t.Fatalf("target hosts %d objects after a fenced late frame, want 0", got)
			}
		})

		// The held frame lands, installed and answered, just before the
		// lease's fence leaves for the target. A lease that probed the
		// target before fencing it read "never installed" and now resumes
		// copies the target also holds; fencing first makes the probe read
		// the target as the fence left it. However the race falls, the
		// group must be live exactly once.
		t.Run(arm.name+"/commit-lands-between-probe-and-fence", func(t *testing.T) {
			t.Parallel()
			src, tgt, group, tap, aborts := world(t)
			tap.setDecide(holdCommit)
			landed := make(chan struct{})
			aborts.arm(func() { // on the lease's goroutine
				if err := tap.release(); err != nil {
					t.Error(err)
				}
				select {
				case <-tap.late: // the install has been answered
					close(landed)
				case <-time.After(5 * time.Second):
				}
			})
			migrate(t, src, group[0], tap)
			select {
			case <-landed:
			case <-time.After(10 * time.Second):
				t.Fatal("the held frame never landed ahead of the lease's fence")
			}
			eventually(t, 5*time.Second, func() bool {
				for _, m := range group {
					if rec, ok := src.store.Get(m.OID); ok {
						rec.Mu.Lock()
						paused := rec.Status == store.StatusPaused
						rec.Mu.Unlock()
						if paused {
							return false
						}
					}
				}
				return true
			}, "the lease never resolved the migration")
			if live := src.Stats().ObjectsHosted + tgt.Stats().ObjectsHosted; live != 3 {
				t.Fatalf("%d live copies of a 3-member group, want 3", live)
			}
			if st := src.Stats(); st.PauseLeasesExpired != 1 {
				t.Fatalf("PauseLeasesExpired = %d, want 1", st.PauseLeasesExpired)
			}
		})
	}
}

// TestTransferFrameCounts pins the wire cost of a transfer: the frames
// the target receives, counted on the wire, and the payload-frame
// counters at both ends.
func TestTransferFrameCounts(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl, tap := newTappedCluster()
	nodes := nodesOn(t, cl, Config{ID: "n0"}, Config{ID: "n1"}, Config{ID: "n2"})
	for _, n := range nodes {
		if err := n.RegisterType(newBlobType()); err != nil {
			t.Fatal(err)
		}
	}
	// migrate moves root's group to n2 and reports the install frames it
	// put on the wire and the payload frames counted at both ends.
	migrate := func(coord *Node, root Ref) (frames int, out, in int64) {
		t.Helper()
		frames, out, in = tap.seen(), coord.Stats().StreamChunksOut, nodes[2].Stats().StreamChunksIn
		if err := coord.Migrate(ctx, root, "n2"); err != nil {
			t.Fatal(err)
		}
		return tap.seen() - frames, coord.Stats().StreamChunksOut - out, nodes[2].Stats().StreamChunksIn - in
	}

	// A single-host group within one chunk is exactly one frame.
	small := attachedGroup(t, nodes[0], 4)
	if frames, out, in := migrate(nodes[0], small[0]); frames != 1 || out != 1 || in != 1 {
		t.Fatalf("small group: %d frames, %d payload out, %d payload in; want 1, 1, 1", frames, out, in)
	}

	// Two hosts: the opening frame goes out before anything is paused,
	// then one frame per host and the commit — what begin + chunks +
	// commit cost before.
	pair := attachedGroup(t, nodes[0], 1)
	far := mustCreate(t, nodes[1])
	if err := nodes[0].Attach(ctx, pair[0], far, NoAlliance); err != nil {
		t.Fatal(err)
	}
	if frames, out, in := migrate(nodes[0], pair[0]); frames != 4 || out != 2 || in != 2 {
		t.Fatalf("two-host group: %d frames, %d payload out, %d payload in; want 4, 2, 2", frames, out, in)
	}

	// The migrate-bulk shape: 16 × 256 KiB from one host at the default
	// chunk size is one snapshot per frame. Before, that was begin + 16
	// chunks + commit = 18 frames; the opening frame now carries the
	// first snapshot.
	const bulk = 16
	root, err := nodes[0].Create("blob")
	if err != nil {
		t.Fatal(err)
	}
	blobs := []Ref{root}
	for i := 1; i < bulk; i++ {
		m, err := nodes[0].Create("blob")
		if err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Attach(ctx, root, m, NoAlliance); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, m)
	}
	for _, m := range blobs {
		if _, err := Call[int, int](ctx, nodes[0], m, "Fill", 256<<10); err != nil {
			t.Fatal(err)
		}
	}
	if frames, out, in := migrate(nodes[0], root); frames > bulk+2 || out != bulk || in != bulk {
		t.Fatalf("bulk group: %d frames, %d payload out, %d payload in; want at most %d, %d, %d",
			frames, out, in, bulk+2, bulk, bulk)
	}
}

// TestMigrateTargetMissingTypeAborts: a target that cannot host the
// group's type fails the stream at chunk-staging time, and the sources
// resume as if nothing happened.
func TestMigrateTargetMissingTypeAborts(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	src, err := NewNode(Config{ID: "src", Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.RegisterType(newCounterType()); err != nil {
		t.Fatal(err)
	}
	bare, err := NewNode(Config{ID: "bare", Cluster: cl}) // no types registered
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Close(); _ = bare.Close() })

	ref, err := src.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Call[int, int](ctx, src, ref, "Add", 3); err != nil {
		t.Fatal(err)
	}
	if err := src.Migrate(ctx, ref, "bare"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("migration to type-less node: %v, want ErrUnknownType", err)
	}
	if v, err := Call[struct{}, int](ctx, src, ref, "Get", struct{}{}); err != nil || v != 3 {
		t.Fatalf("object unusable after aborted stream: %d, %v", v, err)
	}
	if c := bare.sessionCount(); c != 0 {
		t.Fatalf("failed stream left %d sessions at the target", c)
	}
}

// TestPauseMaxBytesBoundsResponse: handlePause honours the byte budget,
// returning the overflow as Pending and always making progress.
func TestPauseMaxBytesBoundsResponse(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 1, Config{})
	n := nodes[0]
	objs := make([]core.OID, 10)
	for i := range objs {
		objs[i] = mustCreate(t, n).OID
	}
	resp, err := n.handlePause(ctx, &wire.PauseReq{Objs: objs, Token: 42, MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Snapshots) != 1 {
		t.Fatalf("1-byte budget returned %d snapshots, want 1", len(resp.Snapshots))
	}
	if len(resp.Pending) != 9 {
		t.Fatalf("pending %d, want 9", len(resp.Pending))
	}
	// Unbounded request drains the pending tail.
	resp2, err := n.handlePause(ctx, &wire.PauseReq{Objs: resp.Pending, Token: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Snapshots) != 9 || len(resp2.Pending) != 0 {
		t.Fatalf("unbounded follow-up: %d snapshots, %d pending", len(resp2.Snapshots), len(resp2.Pending))
	}
	n.abortLocal(&wire.AbortReq{Objs: objs, Token: 42})
	for _, oid := range objs {
		if _, err := Call[int, int](ctx, n, Ref{OID: oid}, "Add", 1); err != nil {
			t.Fatalf("object %s not resumed: %v", oid, err)
		}
	}
}

// TestStreamSessionExpiryAndPauseLease: a coordinator that dies
// mid-stream must leave the target clean (the staging session expires,
// nothing is installed) and the sources resumed (the pause lease
// fires). The test plays the coordinator by hand and simply stops
// after the first chunk.
func TestStreamSessionExpiryAndPauseLease(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{
		Migrate: MigrateConfig{Lease: 100 * time.Millisecond},
	})
	src, tgt := nodes[0], nodes[1]
	o1, o2 := mustCreate(t, src), mustCreate(t, src)
	if _, err := Call[int, int](ctx, src, o1, "Add", 7); err != nil {
		t.Fatal(err)
	}

	// The ghost coordinator: open, pause with a lease, one chunk, die.
	const token = 777
	if _, err := tgt.handleInstall(&wire.InstallReq{
		Token: token, From: "ghost", Members: []core.OID{o1.OID, o2.OID},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := src.handlePause(ctx, &wire.PauseReq{
		Objs: []core.OID{o1.OID, o2.OID}, Token: token, Lease: 150 * time.Millisecond,
		From: "ghost", Target: "n1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Snapshots) != 2 {
		t.Fatalf("paused %d objects, want 2", len(resp.Snapshots))
	}
	if _, err := tgt.handleInstall(&wire.InstallReq{
		Token: token, From: "ghost", Snapshots: resp.Snapshots[:1],
	}); err != nil {
		t.Fatal(err)
	}
	// …the coordinator is dead. Nobody commits, nobody aborts.

	eventually(t, 5*time.Second, func() bool { return tgt.sessionCount() == 0 },
		"target staging session never expired")
	if st := tgt.Stats(); st.StreamSessionsExpired != 1 {
		t.Fatalf("StreamSessionsExpired = %d, want 1", st.StreamSessionsExpired)
	}
	if hosted := tgt.Stats().ObjectsHosted; hosted != 0 {
		t.Fatalf("target hosts %d objects from an expired session, want 0", hosted)
	}
	eventually(t, 5*time.Second, func() bool {
		cctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		defer cancel()
		_, e1 := Call[struct{}, int](cctx, src, o1, "Get", struct{}{})
		_, e2 := Call[struct{}, int](cctx, src, o2, "Get", struct{}{})
		return e1 == nil && e2 == nil
	}, "paused sources never resumed after the lease")
	if v, err := Call[struct{}, int](ctx, src, o1, "Get", struct{}{}); err != nil || v != 7 {
		t.Fatalf("value after lease resume: %d, %v, want 7", v, err)
	}
	if st := src.Stats(); st.PauseLeasesExpired != 1 {
		t.Fatalf("PauseLeasesExpired = %d, want 1", st.PauseLeasesExpired)
	}
}

// TestPauseLeaseResolvesCommittedMigration: the dangerous half of
// coordinator death — it dies *after* the target committed the install
// but before the sources received their commit. Blindly resuming would
// leave the object live in two places; the lease must instead discover
// the commit by asking the target and finish the departure locally.
// The ghost coordinator ships the group as one frame and as three.
func TestPauseLeaseResolvesCommittedMigration(t *testing.T) {
	t.Parallel()
	for _, frames := range []int{1, 3} {
		frames := frames
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			t.Parallel()
			ctx := ctxShort(t)
			nodes := testCluster(t, 2, Config{
				Migrate: MigrateConfig{Lease: 10 * time.Second},
			})
			src, tgt := nodes[0], nodes[1]
			o1, o2 := mustCreate(t, src), mustCreate(t, src)
			if _, err := Call[int, int](ctx, src, o1, "Add", 7); err != nil {
				t.Fatal(err)
			}

			// Ghost coordinator: full transfer + target commit, then death
			// before the sources' CommitReq.
			const token = 888
			resp, err := src.handlePause(ctx, &wire.PauseReq{
				Objs: []core.OID{o1.OID, o2.OID}, Token: token, Lease: 150 * time.Millisecond,
				From: "ghost", Target: "n1",
			})
			if err != nil {
				t.Fatal(err)
			}
			transfer := []*wire.InstallReq{
				{Members: []core.OID{o1.OID, o2.OID}, Snapshots: resp.Snapshots, Commit: true},
			}
			if frames == 3 {
				transfer = []*wire.InstallReq{
					{Members: []core.OID{o1.OID, o2.OID}}, {Snapshots: resp.Snapshots}, {Commit: true},
				}
			}
			for i, f := range transfer {
				f.Token, f.From = token, "ghost"
				if _, err := tgt.handleInstall(f); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
			}
			// …the coordinator dies here: src never hears the commit.

			// The lease fires, asks n1, learns the install committed, and
			// departs the local records — one live copy, at the target.
			eventually(t, 5*time.Second, func() bool {
				_, ok := src.store.Get(o1.OID)
				return !ok
			}, "source records never departed after a committed-but-unacked migration")
			if v, err := Call[struct{}, int](ctx, src, o1, "Get", struct{}{}); err != nil || v != 7 {
				t.Fatalf("value after lease-resolved commit: %d, %v, want 7", v, err)
			}
			for _, o := range []Ref{o1, o2} {
				if at := whereIs(t, ctx, src, o); at != "n1" {
					t.Fatalf("object %s at %v after lease-resolved commit, want n1", o.OID, at)
				}
			}
			if hosted := src.Stats().ObjectsHosted; hosted != 0 {
				t.Fatalf("source still hosts %d objects (duplicate live copies)", hosted)
			}
			if st := src.Stats(); st.PauseLeasesExpired != 1 {
				t.Fatalf("PauseLeasesExpired = %d, want 1", st.PauseLeasesExpired)
			}
		})
	}
}

// TestPauseLeaseKeyedPerCoordinator: two coordinators minting the same
// token must not share (or cancel) each other's leases at a common
// source host.
func TestPauseLeaseKeyedPerCoordinator(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	src := nodes[0]
	oA, oB := mustCreate(t, src), mustCreate(t, src)

	const token = 5 // same token from two different "coordinators"
	if _, err := src.handlePause(ctx, &wire.PauseReq{
		Objs: []core.OID{oA.OID}, Token: token, Lease: 10 * time.Second, From: "coordA", Target: "n1",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.handlePause(ctx, &wire.PauseReq{
		Objs: []core.OID{oB.OID}, Token: token, Lease: 150 * time.Millisecond, From: "coordB", Target: "n1",
	}); err != nil {
		t.Fatal(err)
	}
	// coordA commits nothing and aborts: only oA may resume, and only
	// coordA's lease is disarmed.
	src.abortLocal(&wire.AbortReq{Objs: []core.OID{oA.OID}, Token: token, From: "coordA"})
	if _, err := Call[int, int](ctx, src, oA, "Add", 1); err != nil {
		t.Fatalf("coordA's object not resumed by coordA's abort: %v", err)
	}
	// coordB's lease must still be armed and fire on its own schedule.
	eventually(t, 5*time.Second, func() bool {
		cctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		defer cancel()
		_, err := Call[int, int](cctx, src, oB, "Add", 1)
		return err == nil
	}, "coordB's lease was clobbered by coordA's abort")
}

// TestExpiredLeaseFenceResumesTargetPause: a source's expired lease
// fences the migration at its target with an abort that names no
// objects. When the target paused members of the same migration too,
// that fence must end them as well — the target's member answers again
// long before its own, much longer, lease would have run out.
func TestExpiredLeaseFenceResumesTargetPause(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	src, tgt := nodes[0], nodes[1]
	atSrc, atTgt := mustCreate(t, src), mustCreate(t, tgt)

	// The ghost coordinator pauses one member at each host, then dies.
	const token = 999
	for _, p := range []struct {
		host  *Node
		obj   Ref
		lease time.Duration
	}{{src, atSrc, 150 * time.Millisecond}, {tgt, atTgt, 10 * time.Second}} {
		if _, err := p.host.handlePause(ctx, &wire.PauseReq{
			Objs: []core.OID{p.obj.OID}, Token: token, Lease: p.lease, From: "ghost", Target: tgt.ID(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, 5*time.Second, func() bool { return src.Stats().PauseLeasesExpired == 1 },
		"the source's lease never fired")
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	for _, m := range []Ref{atTgt, atSrc} {
		if _, err := Call[int, int](cctx, src, m, "Add", 1); err != nil {
			t.Fatalf("%v still paused 2 s after the source's lease fired: %v", m, err)
		}
	}
}

// TestCoordinatorCloseMidStreamLeavesClusterClean: the integrated
// version of the chaos scenario — the coordinator node is closed while
// a streamed migration is in flight on a slow network. Whatever the
// race's outcome (aborted, leased back, or completed), the cluster must
// settle clean: the surviving source's member answers again and no node
// is left holding a staging session.
func TestCoordinatorCloseMidStreamLeavesClusterClean(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	mcfg := MigrateConfig{
		ChunkBytes: 1, // chunk per object: many frames, long stream
		Lease:      400 * time.Millisecond,
	}
	var beginMu sync.Mutex
	began := false
	mk := func(id NodeID, obs Observer) *Node {
		n, err := NewNode(Config{ID: id, Cluster: cl, Migrate: mcfg, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
		return n
	}
	tgt := mk("tgt", func(e Event) {
		if e.Kind == EventMigrateStream && e.Outcome == "begin" {
			beginMu.Lock()
			began = true
			beginMu.Unlock()
		}
	})
	coord := mk("coord", nil)
	src := mk("src", nil)
	t.Cleanup(func() { _ = coord.Close(); _ = src.Close(); _ = tgt.Close() })

	root, err := coord.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	group := []Ref{root}
	for i := 0; i < 16; i++ {
		m, err := coord.Create("counter")
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, m)
	}
	survivor, err := src.Create("counter")
	if err != nil {
		t.Fatal(err)
	}
	group = append(group, survivor)
	for _, m := range group[1:] {
		if err := coord.Attach(ctx, root, m, NoAlliance); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Call[int, int](ctx, src, survivor, "Add", 5); err != nil {
		t.Fatal(err)
	}

	cl.SetLatency(2 * time.Millisecond)
	migDone := make(chan error, 1)
	go func() {
		mctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		migDone <- coord.Migrate(mctx, root, "tgt")
	}()
	eventually(t, 5*time.Second, func() bool {
		beginMu.Lock()
		defer beginMu.Unlock()
		return began
	}, "migration never opened a session at the target")
	time.Sleep(10 * time.Millisecond) // let a few chunks through
	_ = coord.Close()                 // the coordinator dies mid-stream
	<-migDone
	cl.SetLatency(0)

	// The surviving source's member must answer again — resumed by
	// abort or lease, or installed at the target; any of those, but
	// never stuck paused.
	eventually(t, 5*time.Second, func() bool {
		cctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		defer cancel()
		v, err := Call[struct{}, int](cctx, src, survivor, "Get", struct{}{})
		return err == nil && v == 5
	}, "surviving source's member stuck after coordinator death")
	// And no staging session outlives the crash anywhere.
	eventually(t, 5*time.Second, func() bool {
		return tgt.sessionCount() == 0 && src.sessionCount() == 0
	}, "staging session survived the coordinator's death")
}

// TestStreamedMigrationConcurrentWithInvocations: streaming pause
// sub-batches interleave with live traffic; updates must neither be
// lost nor duplicated across the transfer.
func TestStreamedMigrationConcurrentWithInvocations(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{Migrate: MigrateConfig{ChunkBytes: 1}})
	root := mustCreate(t, nodes[0])
	members := []Ref{root}
	for i := 0; i < 7; i++ {
		m := mustCreate(t, nodes[0])
		members = append(members, m)
		if err := nodes[0].Attach(ctx, root, m, NoAlliance); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var adds atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := (w + i) % len(members)
				if _, err := Call[int, int](ctx, nodes[1], members[m], "Add", 1); err == nil {
					adds.Add(1)
				}
			}
		}(w)
	}
	// One migration in the middle of the traffic.
	time.Sleep(5 * time.Millisecond)
	if err := nodes[0].Migrate(ctx, root, "n2"); err != nil && !errors.Is(err, ErrDenied) {
		t.Fatalf("migration under load: %v", err)
	}
	wg.Wait()
	// Sum of all member values must equal the successful adds: nothing
	// lost to the pause window, nothing duplicated by the install.
	total := int64(0)
	for _, m := range members {
		v, err := Call[struct{}, int](ctx, nodes[0], m, "Get", struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		total += int64(v)
	}
	if total != adds.Load() {
		t.Fatalf("sum of values %d != successful adds %d (lost or duplicated updates)", total, adds.Load())
	}
}

// TestStreamAbortDiscardsSession: an explicit abort with the
// coordinator's identity removes the staged session.
func TestStreamAbortDiscardsSession(t *testing.T) {
	t.Parallel()
	nodes := testCluster(t, 1, Config{})
	n := nodes[0]
	oid := mustCreate(t, n).OID
	open := &wire.InstallReq{Token: 9, From: "ghost", Members: []core.OID{oid}}
	if _, err := n.handleInstall(open); err != nil {
		t.Fatal(err)
	}
	if n.sessionCount() != 1 {
		t.Fatal("session not opened")
	}
	n.abortLocal(&wire.AbortReq{Token: 9, From: "ghost"})
	if n.sessionCount() != 0 {
		t.Fatal("abort left the session staged")
	}
	// A commit for the aborted session must fail, not install.
	if _, err := n.handleInstall(&wire.InstallReq{Token: 9, From: "ghost", Commit: true}); err == nil {
		t.Fatal("commit of an aborted session succeeded")
	}
	// The abort fence blocks frames that were still in flight: a late
	// whole-group frame and a late session re-open must both be refused,
	// or the resumed source and the install would duplicate the object.
	late := wire.Snapshot{ID: core.OID{Origin: "ghost", Seq: 1}, Type: "counter"}
	if _, err := n.handleInstall(&wire.InstallReq{
		Token: 9, From: "ghost", Members: []core.OID{late.ID}, Snapshots: []wire.Snapshot{late}, Commit: true,
	}); err == nil {
		t.Fatal("late install landed after the abort fence")
	}
	if _, err := n.handleInstall(open); err == nil {
		t.Fatal("session re-opened through the abort fence")
	}
}

// TestDefiniteFailureClassification: only provably-undelivered or
// provably-refused requests count as definite; everything ambiguous
// must defer to the lease machinery.
func TestDefiniteFailureClassification(t *testing.T) {
	t.Parallel()
	definite := []error{
		wire.Errorf(wire.CodeDenied, "no"),
		fmt.Errorf("wrapped: %w", &wire.RemoteError{Code: wire.CodeNotFound, Msg: "x"}),
		fmt.Errorf("%w: n9: no listener", rpc.ErrDialFailed),
		fmt.Errorf("%w: conn gone", rpc.ErrSendFailed),
	}
	for _, err := range definite {
		if !definiteFailure(err) {
			t.Errorf("%v classified ambiguous, want definite", err)
		}
	}
	ambiguous := []error{
		context.DeadlineExceeded,
		context.Canceled,
		rpc.ErrPeerClosed,
		fmt.Errorf("%w: read reset", rpc.ErrPeerClosed),
		errors.New("some transport mishap"),
	}
	for _, err := range ambiguous {
		if definiteFailure(err) {
			t.Errorf("%v classified definite, want ambiguous", err)
		}
	}
}

// TestMigrateConfigDefaults: the zero config selects the documented
// defaults.
func TestMigrateConfigDefaults(t *testing.T) {
	t.Parallel()
	c := MigrateConfig{}.withDefaults()
	if c.ChunkBytes != DefaultChunkBytes {
		t.Fatalf("ChunkBytes default %d, want %d", c.ChunkBytes, DefaultChunkBytes)
	}
	if c.Lease != 30*time.Second {
		t.Fatalf("lease default %v, want 30s", c.Lease)
	}
	// Negative values survive (explicit "disabled").
	d := MigrateConfig{ChunkBytes: -1, Lease: -1}.withDefaults()
	if d.ChunkBytes != -1 || d.Lease != -1 {
		t.Fatalf("negative settings overridden: %+v", d)
	}
	_ = fmt.Sprintf("%v", c)
}

// ledgerState is a state type with everything the state codec has to
// carry across a migration: a nested struct, a slice of structs and a
// map.
type ledgerState struct {
	Owner   ledgerOwner
	Entries []ledgerEntry
	Totals  map[string]int64
	Note    *string
}

type ledgerOwner struct {
	Name string
	Ref  Ref
}

type ledgerEntry struct {
	Key   string
	Delta int64
}

func newLedgerType() *Type[ledgerState] {
	t := NewType[ledgerState]("ledger")
	HandleFunc(t, "Load", func(c *Ctx, s *ledgerState, in ledgerState) (int, error) {
		*s = in
		return len(s.Entries), nil
	})
	HandleFunc(t, "Dump", func(c *Ctx, s *ledgerState, _ struct{}) (ledgerState, error) {
		return *s, nil
	})
	return t
}

// TestStateCodecSurvivesBothTransferShapes: structured state migrates
// A→B→A unchanged as a one-frame transfer and as a many-frame one,
// repeatedly — every hop after the first runs on encoders and decoders
// the previous hop left primed.
func TestStateCodecSurvivesBothTransferShapes(t *testing.T) {
	t.Parallel()
	shapes := map[string]MigrateConfig{
		"one-frame":  {},
		"many-frame": {ChunkBytes: 1},
	}
	for name, mc := range shapes {
		ctx := ctxShort(t)
		nodes := testCluster(t, 2, Config{Migrate: mc})
		for _, n := range nodes {
			if err := n.RegisterType(newLedgerType()); err != nil {
				t.Fatal(err)
			}
		}
		// Two attached ledgers: a group of one always fits one frame,
		// whatever the chunk budget.
		var group [2]Ref
		var want [2]ledgerState
		for i := range group {
			ref, err := nodes[0].Create("ledger")
			if err != nil {
				t.Fatal(err)
			}
			note := fmt.Sprint("carried by pointer ", i)
			group[i] = ref
			want[i] = ledgerState{
				Owner:   ledgerOwner{Name: "treasury", Ref: ref},
				Entries: []ledgerEntry{{"rent", -1200}, {"salary", 4100 + int64(i)}, {"", 0}},
				Totals:  map[string]int64{"in": 4100, "out": -1200, "zero": 0},
				Note:    &note,
			}
			if n, err := Call[ledgerState, int](ctx, nodes[1], ref, "Load", want[i]); err != nil || n != 3 {
				t.Fatalf("%s: Load = %d, %v", name, n, err)
			}
		}
		if err := nodes[0].Attach(ctx, group[0], group[1], NoAlliance); err != nil {
			t.Fatal(err)
		}
		for hop, to := range []NodeID{"n1", "n0", "n1", "n0"} {
			if err := nodes[0].Migrate(ctx, group[0], to); err != nil {
				t.Fatalf("%s hop %d: %v", name, hop, err)
			}
			for i, ref := range group {
				for _, from := range nodes {
					got, err := Call[struct{}, ledgerState](ctx, from, ref, "Dump", struct{}{})
					if err != nil {
						t.Fatalf("%s hop %d: Dump via %s: %v", name, hop, from.ID(), err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("%s hop %d via %s:\n got  %+v\n want %+v", name, hop, from.ID(), got, want[i])
					}
				}
			}
		}
		// Four hops of a two-member group from one host, coordinated by
		// whichever node hosts it: one payload frame per hop within a
		// chunk, one per member at 1-byte chunks.
		frames := nodes[0].Stats().StreamChunksOut + nodes[1].Stats().StreamChunksOut
		if want := map[string]int64{"one-frame": 4, "many-frame": 8}[name]; frames != want {
			t.Fatalf("%s: %d payload frames over 4 hops, want %d", name, frames, want)
		}
	}
}
