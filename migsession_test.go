package objmig

import (
	"strings"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// installWorld is the fixture of the target state-machine table: three
// members (a < b < c in canonical order) and a stranger, snapshotted at
// a source node, and the capped target whose handleInstall is driven
// frame by frame.
type installWorld struct {
	tgt     *Node
	members []core.OID
	snaps   map[string]wire.Snapshot // "a", "b", "c", "stranger"
	local   []core.OID               // objects the target paused for the transfer (see pauseHere)
}

const (
	installToken = 4242
	installFrom  = NodeID("ghost")
)

func newInstallWorld(t *testing.T, capBytes int64, ttl time.Duration) *installWorld {
	t.Helper()
	ctx := ctxShort(t)
	nodes := nodesOn(t, NewLocalCluster(), Config{ID: "src"},
		Config{ID: "tgt", Capacity: 8, CapacityBytes: capBytes, Migrate: MigrateConfig{Lease: ttl}})
	src := nodes[0]
	w := &installWorld{tgt: nodes[1], snaps: make(map[string]wire.Snapshot)}
	// Capped and placement-enabled: every admitted transfer holds a
	// ledger claim the table can watch.
	if err := w.tgt.EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}
	var oids []core.OID
	for range []string{"a", "b", "c", "stranger"} {
		oids = append(oids, mustCreate(t, src).OID)
	}
	core.SortOIDs(oids)
	resp, err := src.handlePause(ctx, &wire.PauseReq{Objs: oids, Token: installToken})
	if err != nil {
		t.Fatal(err)
	}
	src.abortLocal(&wire.AbortReq{Objs: oids, Token: installToken})
	for i, name := range []string{"a", "b", "c", "stranger"} {
		w.snaps[name] = resp.Snapshots[i]
	}
	w.members = oids[:3]
	return w
}

// pauseHere makes the target a source of the transfer too: one object
// created there is paused under the transfer's key, with a lease far
// longer than any row.
func (w *installWorld) pauseHere(t *testing.T) {
	t.Helper()
	oid := mustCreate(t, w.tgt).OID
	if _, err := w.tgt.handlePause(ctxShort(t), &wire.PauseReq{Objs: []core.OID{oid}, Token: installToken,
		Lease: 10 * time.Second, From: installFrom, Target: w.tgt.ID()}); err != nil {
		t.Fatal(err)
	}
	w.local = append(w.local, oid)
}

// pausedHere counts the target's own objects still paused.
func (w *installWorld) pausedHere() int {
	paused := 0
	for _, oid := range w.local {
		if rec, ok := w.tgt.store.Get(oid); ok {
			rec.Mu.Lock()
			if rec.Status == store.StatusPaused {
				paused++
			}
			rec.Mu.Unlock()
		}
	}
	return paused
}

// frame builds one InstallReq of the transfer under test. Each snapshot
// name may carry a defect: "a:badtype", "a:corrupt".
func (w *installWorld) frame(open, commit bool, snaps ...string) *wire.InstallReq {
	req := &wire.InstallReq{Token: installToken, From: installFrom, Commit: commit}
	if open {
		req.Members = w.members
	}
	for _, name := range snaps {
		name, defect, _ := strings.Cut(name, ":")
		s := w.snaps[name]
		switch defect {
		case "badtype":
			s.Type = "no-such-type"
		case "corrupt":
			s.State = []byte{0xFF, 0x00, 0x01}
		}
		req.Snapshots = append(req.Snapshots, s)
	}
	return req
}

// installStep is one stimulus and everything that must hold after it.
type installStep struct {
	frame  func(w *installWorld) *wire.InstallReq // a frame for handleInstall, or
	abort  bool                                   // the coordinator's abort, or
	expire bool                                   // silence until the lease ran out, or
	idle   bool                                   // silence for over a second

	refused wire.ErrCode // expected refusal of the frame (0: accepted)
	reason  string       // substring of the refusal

	sessions  int   // open sessions afterwards
	claimed   int64 // objects claimed in the ledger afterwards
	aborts    int64 // StreamAborts this step added
	paused    int   // the target's own objects still paused afterwards
	installed bool  // the members are live at the target from here on
}

// TestInstallStateMachine drives the one target handler with frame
// sequences and checks its invariants after every single frame: the
// session table, the reservation ledger, the abort counter, and that no
// member is live at the target unless a close succeeded. The rules are
// the same lines of code whether a transfer is one frame or many, so
// the rows mix both. A row's ttl is the target's MigrateConfig.Lease.
// A pausedHere row makes the target hold a paused member of the
// transfer as well.
func TestInstallStateMachine(t *testing.T) {
	t.Parallel()
	fr := func(open, commit bool, snaps ...string) func(*installWorld) *wire.InstallReq {
		return func(w *installWorld) *wire.InstallReq { return w.frame(open, commit, snaps...) }
	}
	const (
		open, commit = true, true
		cont, hold   = false, false
	)
	rows := []struct {
		name       string
		capBytes   int64
		ttl        time.Duration
		pausedHere bool
		steps      []installStep
	}{
		{name: "open, stage and commit in one frame", steps: []installStep{
			{frame: fr(open, commit, "a", "b", "c"), installed: true},
		}},
		{name: "open, chunks in shuffled order, commit", steps: []installStep{
			{frame: fr(open, hold), sessions: 1, claimed: 3},
			{frame: fr(cont, hold, "c"), sessions: 1, claimed: 3},
			{frame: fr(cont, hold, "a"), sessions: 1, claimed: 3},
			{frame: fr(cont, hold, "b"), sessions: 1, claimed: 3},
			{frame: fr(cont, commit), installed: true},
		}},
		{name: "commit rides the last chunk", steps: []installStep{
			{frame: fr(open, hold, "b"), sessions: 1, claimed: 3},
			{frame: fr(cont, commit, "c", "a"), installed: true},
		}},
		{name: "chunk with no session", steps: []installStep{
			{frame: fr(cont, hold, "a"), refused: wire.CodeDenied, reason: "no migration session"},
		}},
		{name: "commit with no session", steps: []installStep{
			{frame: fr(cont, commit), refused: wire.CodeDenied, reason: "no migration session"},
		}},
		{name: "frame that carries nothing", steps: []installStep{
			{frame: fr(cont, hold), refused: wire.CodeBadRequest},
		}},
		{name: "duplicate open", steps: []installStep{
			{frame: fr(open, hold), sessions: 1, claimed: 3},
			{frame: fr(open, hold), refused: wire.CodeDenied, reason: "already open", sessions: 1, claimed: 3},
			{abort: true, aborts: 1},
		}},
		{name: "member not in Members", steps: []installStep{
			{frame: fr(open, hold, "a"), sessions: 1, claimed: 3},
			{frame: fr(cont, hold, "stranger"), refused: wire.CodeBadRequest, reason: "not a member", aborts: 1},
			{frame: fr(cont, commit), refused: wire.CodeDenied},
		}},
		{name: "member staged twice", steps: []installStep{
			{frame: fr(open, hold, "a"), sessions: 1, claimed: 3},
			{frame: fr(cont, hold, "a"), refused: wire.CodeBadRequest, reason: "re-stages", aborts: 1},
		}},
		// A refused commit releases the claim on the spot, with no abort
		// sent: the session is gone, and with it the only owner the claim
		// has.
		{name: "commit with a member missing", steps: []installStep{
			{frame: fr(open, hold, "a", "b"), sessions: 1, claimed: 3},
			{frame: fr(cont, commit), refused: wire.CodeBadRequest, reason: "1 of 3 members unstaged"},
		}},
		{name: "unknown type in a chunk", steps: []installStep{
			{frame: fr(open, hold), sessions: 1, claimed: 3},
			{frame: fr(cont, hold, "a:badtype"), refused: wire.CodeUnknownType, aborts: 1},
		}},
		{name: "corrupt state in a chunk", steps: []installStep{
			{frame: fr(open, hold, "a"), sessions: 1, claimed: 3},
			{frame: fr(cont, hold, "b:corrupt"), refused: wire.CodeInternal, aborts: 1},
		}},
		{name: "unknown type in the only frame", steps: []installStep{
			{frame: fr(open, commit, "a", "b:badtype", "c"), refused: wire.CodeUnknownType, aborts: 1},
		}},
		{name: "open after an abort fence", steps: []installStep{
			{abort: true},
			{frame: fr(open, commit, "a", "b", "c"), refused: wire.CodeDenied, reason: "was aborted"},
		}},
		{name: "abort discards a staged session", steps: []installStep{
			{frame: fr(open, hold, "a", "b", "c"), sessions: 1, claimed: 3},
			{abort: true, aborts: 1},
			{frame: fr(cont, commit), refused: wire.CodeDenied},
		}},
		{name: "open with no coordinator", steps: []installStep{
			{frame: func(w *installWorld) *wire.InstallReq {
				req := w.frame(open, commit, "a", "b", "c")
				req.From = ""
				return req
			}, refused: wire.CodeBadRequest, reason: "no coordinator"},
		}},
		{name: "members out of canonical order", steps: []installStep{
			{frame: func(w *installWorld) *wire.InstallReq {
				req := w.frame(open, hold)
				req.Members = []core.OID{w.members[1], w.members[0], w.members[2]}
				return req
			}, refused: wire.CodeBadRequest, reason: "canonical order"},
		}},
		{name: "chunk after TTL expiry", ttl: 150 * time.Millisecond, steps: []installStep{
			{frame: fr(open, hold, "a"), sessions: 1, claimed: 3},
			{expire: true},
			{frame: fr(cont, hold, "b"), refused: wire.CodeDenied, reason: "no migration session"},
		}},
		// Expiry disabled means the claim lives exactly as long as its
		// session, however long the coordinator stays silent.
		{name: "silent session with expiry disabled keeps its claim", ttl: -1, steps: []installStep{
			{frame: fr(open, hold, "a"), sessions: 1, claimed: 3},
			{idle: true, sessions: 1, claimed: 3},
			{frame: fr(cont, commit, "b", "c"), installed: true},
		}},
		// The abort ends everything the target holds for the transfer,
		// whatever the abort names: the staged session and the target's
		// own paused member alike.
		{name: "abort resumes the target's own paused member", pausedHere: true, steps: []installStep{
			{frame: fr(open, hold, "a"), sessions: 1, claimed: 3, paused: 1},
			{abort: true, aborts: 1},
			{frame: fr(cont, commit), refused: wire.CodeDenied},
		}},
		// The coordinator hosts none of the members, so its estimate is 0:
		// the bare opening frame fits the byte cap…
		{name: "byte cap, estimate 0, nothing carried", capBytes: 100, steps: []installStep{
			{frame: fr(open, hold), sessions: 1, claimed: 3},
			{abort: true, aborts: 1},
		}},
		// …and only the snapshots the opening frame carries push it over.
		{name: "byte cap, estimate 0, carried snapshots veto", capBytes: 100, steps: []installStep{
			{frame: fr(open, commit, "a", "b", "c"), refused: wire.CodeDenied, reason: "capacity"},
		}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			w := newInstallWorld(t, row.capBytes, row.ttl)
			if row.pausedHere {
				w.pauseHere(t)
			}
			installed := false
			for i, step := range row.steps {
				aborts := w.tgt.Stats().StreamAborts
				var err error
				switch {
				case step.abort:
					w.tgt.abortLocal(&wire.AbortReq{Token: installToken, From: installFrom})
				case step.expire:
					eventually(t, 5*time.Second, func() bool { return w.tgt.Stats().StreamSessionsExpired == 1 },
						"the lease never discarded the silent session")
				case step.idle:
					time.Sleep(1200 * time.Millisecond) // over two load samples
				default:
					_, err = w.tgt.handleInstall(step.frame(w))
				}
				switch {
				case step.refused == 0 && err != nil:
					t.Fatalf("step %d: refused: %v", i, err)
				case step.refused != 0 && !isCode(err, step.refused):
					t.Fatalf("step %d: reply %v, want code %d", i, err, step.refused)
				case step.refused != 0 && !strings.Contains(err.Error(), step.reason):
					t.Fatalf("step %d: refusal %q does not mention %q", i, err, step.reason)
				}
				if got := w.tgt.sessionCount(); got != step.sessions {
					t.Fatalf("step %d: %d sessions open, want %d", i, got, step.sessions)
				}
				if got := w.tgt.resv.Reserved(); got.Objects != step.claimed || (step.claimed == 0 && got.Bytes != 0) {
					t.Fatalf("step %d: ledger holds %+v, want %d objects", i, got, step.claimed)
				}
				if got := w.tgt.Stats().StreamAborts - aborts; got != step.aborts {
					t.Fatalf("step %d: StreamAborts moved by %d, want %d", i, got, step.aborts)
				}
				if got := w.pausedHere(); got != step.paused {
					t.Fatalf("step %d: %d of the target's own objects paused, want %d", i, got, step.paused)
				}
				installed = installed || step.installed
				for _, oid := range w.members {
					if _, live := w.tgt.store.Get(oid); live != installed {
						t.Fatalf("step %d: member %s live at the target = %v, want %v", i, oid, live, installed)
					}
				}
			}
		})
	}
}
