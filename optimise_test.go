package objmig

import (
	"context"
	"fmt"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/placement"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// passEnv is one TestOptimisePass row's world: a three-node local
// cluster whose install frames pass through a tap, with the scan
// running on n0 and every election pointing at n1. The autopilot is
// enabled with a one-hour interval: the affinity tracker is on, no
// ticker ever interferes. daemon plays the scanning daemon's context;
// stop cancels it.
type passEnv struct {
	t      *testing.T
	ctx    context.Context
	nodes  []*Node
	tap    *installTap
	cool   cooldowns
	daemon context.Context
	stop   context.CancelFunc

	groups  []placement.Group // what elect was asked to score, in order
	cooling []core.OID
	failed  []core.OID
	moved   [][]core.OID // id list of every granted migration
}

func newPassEnv(t *testing.T, lease time.Duration) *passEnv {
	t.Helper()
	cl, tap := newTappedCluster()
	e := &passEnv{t: t, ctx: ctxShort(t), tap: tap, cool: newCooldowns(time.Hour)}
	e.daemon, e.stop = context.WithCancel(e.ctx)
	t.Cleanup(e.stop)
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = Config{ID: NodeID(fmt.Sprintf("n%d", i)), Migrate: MigrateConfig{Lease: lease}}
	}
	e.nodes = nodesOn(t, cl, cfgs...)
	for _, n := range e.nodes {
		if err := n.EnableAutopilot(AutopilotConfig{Interval: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// scan runs one pass over the anchors on n0.
func (e *passEnv) scan(budget int, anchors ...Ref) int {
	oids := make([]core.OID, len(anchors))
	for i, r := range anchors {
		oids[i] = r.OID
	}
	return e.nodes[0].optimise(e.daemon, pass{
		cool:    &e.cool,
		budget:  budget,
		anchors: oids,
		elect: func(g placement.Group) (placement.Decision, bool) {
			e.groups = append(e.groups, g)
			return placement.Decision{Target: "n1"}, true
		},
		cooling: func(a core.OID) { e.cooling = append(e.cooling, a) },
		failed:  func(a core.OID) { e.failed = append(e.failed, a) },
		moved: func(_ core.OID, _ NodeID, ids []core.OID, _ placement.Group) {
			e.moved = append(e.moved, ids)
		},
	})
}

// expect checks the scan's return value and how often each hook ran.
func (e *passEnv) expect(issued, wantIssued, elected, cooling, failed int) {
	e.t.Helper()
	if issued != wantIssued || len(e.moved) != wantIssued {
		e.t.Errorf("issued %d migrations (moved ran %d times), want %d", issued, len(e.moved), wantIssued)
	}
	if len(e.groups) != elected || len(e.cooling) != cooling || len(e.failed) != failed {
		e.t.Errorf("elect/cooling/failed ran %d/%d/%d times, want %d/%d/%d",
			len(e.groups), len(e.cooling), len(e.failed), elected, cooling, failed)
	}
}

// restingAt asserts every ref is hosted at the node, active — never
// left paused by a refused or abandoned transfer — and still serving.
func (e *passEnv) restingAt(at int, refs ...Ref) {
	e.t.Helper()
	for _, r := range refs {
		rec, ok := e.nodes[at].store.Get(r.OID)
		if !ok {
			e.t.Errorf("%v is not hosted on n%d", r, at)
			continue
		}
		rec.Mu.Lock()
		status := rec.Status
		rec.Mu.Unlock()
		if status != store.StatusActive {
			e.t.Errorf("%v left in status %v on n%d", r, status, at)
		}
		if _, err := Call[int, int](e.ctx, e.nodes[2], r, "Add", 1); err != nil {
			e.t.Errorf("%v no longer serves: %v", r, err)
		}
	}
}

// vetoed checks the soft-admit migration's verdict on the closure
// directly, then that a scan over it backs off and leaves it usable.
func (e *passEnv) vetoed(code wire.ErrCode, refs []Ref) {
	e.t.Helper()
	n0 := e.nodes[0]
	members, err := n0.closureOf(e.ctx, refs[0].OID, NoAlliance)
	if err != nil {
		e.t.Fatal(err)
	}
	if _, err := n0.migrateGroup(e.ctx, relocation{root: refs[0].OID, target: "n1", trace: n0.nextTrace()}, members); !isCode(err, code) {
		e.t.Errorf("soft migration = %v, want code %v", err, code)
	}
	e.expect(e.scan(4, refs[0]), 0, 1, 0, 1)
	if !e.cool.on(refs[0].OID, time.Now()) {
		e.t.Error("vetoed anchor not on cooldown")
	}
	e.restingAt(0, refs...)
}

// TestOptimisePass drives the shared optimiser scan directly, one row
// per step it owns.
func TestOptimisePass(t *testing.T) {
	t.Parallel()
	rows := []struct {
		name  string
		lease time.Duration // pause lease; 0 selects the default
		run   func(e *passEnv)
	}{
		{"not hosted: skipped", 0, func(e *passEnv) {
			elsewhere := mustCreate(e.t, e.nodes[1])
			e.expect(e.scan(4, elsewhere), 0, 0, 0, 0)
		}},
		{"on cooldown: skipped, not a failure", 0, func(e *passEnv) {
			ref := mustCreate(e.t, e.nodes[0])
			e.cool.set(ref.OID, time.Now())
			e.expect(e.scan(4, ref), 0, 0, 1, 0)
			e.restingAt(0, ref)
		}},
		{"fixed member vetoes the closure", 0, func(e *passEnv) {
			refs := attachedGroup(e.t, e.nodes[0], 2)
			if err := e.nodes[0].Fix(e.ctx, refs[1]); err != nil {
				e.t.Fatal(err)
			}
			e.vetoed(wire.CodeFixed, refs)
		}},
		{"move-block-placed member vetoes the closure", 0, func(e *passEnv) {
			refs := attachedGroup(e.t, e.nodes[0], 2)
			err := e.nodes[0].Move(e.ctx, refs[1], func(context.Context, *Block) error {
				e.vetoed(wire.CodeDenied, refs)
				return nil
			})
			if err != nil {
				e.t.Fatal(err)
			}
		}},
		{"unreachable member: back off, do not re-walk", 0, func(e *passEnv) {
			ref := mustCreate(e.t, e.nodes[0])
			far := mustCreate(e.t, e.nodes[2])
			if err := e.nodes[0].Attach(e.ctx, ref, far, NoAlliance); err != nil {
				e.t.Fatal(err)
			}
			_ = e.nodes[2].Close()
			e.expect(e.scan(4, ref), 0, 0, 0, 1)
			// The failed walk stamped a cooldown: the next scan skips
			// the anchor instead of issuing the edge RPCs again.
			e.expect(e.scan(4, ref), 0, 0, 1, 1)
		}},
		{"budget exhausted: stops", 0, func(e *passEnv) {
			a, b, c := mustCreate(e.t, e.nodes[0]), mustCreate(e.t, e.nodes[0]), mustCreate(e.t, e.nodes[0])
			e.expect(e.scan(2, a, b, c), 2, 2, 0, 0)
			e.restingAt(1, a, b)
			e.restingAt(0, c)
		}},
		{"two hot members of one closure: walked and scored once", 0, func(e *passEnv) {
			refs := attachedGroup(e.t, e.nodes[0], 2)
			e.expect(e.scan(4, refs[0], refs[1]), 1, 1, 0, 0)
			if len(e.moved) == 1 && len(e.moved[0]) != 2 {
				e.t.Errorf("moved %v, want both members", e.moved[0])
			}
		}},
		{"granted: whole closure moved, stamped and reported", 0, func(e *passEnv) {
			refs := attachedGroup(e.t, e.nodes[0], 3)
			for i := 0; i < 5; i++ {
				if _, err := Call[int, int](e.ctx, e.nodes[1], refs[2], "Add", 1); err != nil {
					e.t.Fatal(err)
				}
			}
			e.expect(e.scan(4, refs[0]), 1, 1, 0, 0)
			if g := e.groups[0]; g.Self != "n0" || g.Members != 3 || g.PerNode["n1"] != 5 {
				e.t.Errorf("scored group %+v, want 3 members of n0 with 5 calls from n1", g)
			}
			got := make(map[core.OID]bool)
			for _, ids := range e.moved {
				for _, oid := range ids {
					got[oid] = true
				}
			}
			for _, r := range refs {
				if !got[r.OID] {
					e.t.Errorf("moved %v lacks member %v", e.moved, r)
				}
				if !e.cool.on(r.OID, time.Now()) {
					e.t.Errorf("moved member %v not on cooldown", r)
				}
			}
			e.restingAt(1, refs...)
		}},
		{"stop closed mid-scan: returns promptly, scan context cancelled", time.Second, func(e *passEnv) {
			a, b := mustCreate(e.t, e.nodes[0]), mustCreate(e.t, e.nodes[0])
			// The first transfer's install frame never arrives, so the
			// scan sits in it until its context dies.
			inFlight := make(chan struct{})
			e.tap.setDecide(func(*wire.InstallReq) tapAction {
				close(inFlight)
				return tapHold
			})
			done := make(chan int)
			go func() { done <- e.scan(4, a, b) }()
			<-inFlight
			e.stop()
			select {
			case issued := <-done:
				// The cancelled transfer failed, and the cancelled
				// context ended the scan before b was looked at.
				e.expect(issued, 0, 1, 0, 1)
			case <-time.After(5 * time.Second): // the scan timeout is 10 s
				e.t.Fatal("scan outlived its daemon's stop")
			}
			e.tap.setDecide(nil)
			// The commit frame's fate is unknown to the coordinator, so
			// a stays paused until its lease finds nothing installed at
			// n1 and resumes it; the call waits that out.
			if _, err := Call[int, int](e.ctx, e.nodes[2], a, "Add", 1); err != nil {
				e.t.Fatal(err)
			}
			e.restingAt(0, a, b)
		}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			row.run(newPassEnv(t, row.lease))
		})
	}
}

// TestAutopilotElectsClosureAsUnit: without the placement daemon the
// autopilot still elects for the attachment closure, not for its
// hottest member. One member is individually hottest towards n1, but
// the closure's combined pressure points at n2 — that is where the
// working set must land, whole.
func TestAutopilotElectsClosureAsUnit(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 3, Config{})
	// A dormant daemon (the ticker never fires); the test runs its tick.
	err := nodes[0].EnableAutopilot(AutopilotConfig{
		Interval: time.Hour, MinTotal: 10, Hysteresis: 1.5, DecayEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	refs := attachedGroup(t, nodes[0], 3)
	calls := func(from *Node, ref Ref, count int) {
		for i := 0; i < count; i++ {
			if _, err := Call[int, int](ctx, from, ref, "Add", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	calls(nodes[1], refs[0], 30) // the hottest member: n1's alone
	calls(nodes[2], refs[1], 25) // n2: 50 on the closure, 25 on any one member
	calls(nodes[2], refs[2], 25)

	nodes[0].ap.tick()

	for _, ref := range refs {
		if at, err := nodes[0].Locate(ctx, ref); err != nil || at != "n2" {
			t.Errorf("%v at %v (%v), want n2 with the rest of its closure", ref, at, err)
		}
	}
	if st := nodes[0].Stats(); st.AutopilotMigrations != 1 || st.AutopilotObjectsMoved != 3 {
		t.Errorf("AutopilotMigrations/ObjectsMoved = %d/%d, want 1/3",
			st.AutopilotMigrations, st.AutopilotObjectsMoved)
	}
}

// TestAutopilotEngineElectionsCounted: Stats.PlacementScores counts
// every engine scoring run, the autopilot's included.
func TestAutopilotEngineElectionsCounted(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := placementTestCluster(t, 2, nil, nil)
	n0 := nodes[0]
	if err := n0.EnableAutopilot(AutopilotConfig{Interval: time.Hour, MinTotal: 10, DecayEvery: -1}); err != nil {
		t.Fatal(err)
	}
	if err := n0.EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}
	ref := mustCreate(t, n0)
	for i := 0; i < 20; i++ {
		if _, err := Call[int, int](ctx, nodes[1], ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	before := n0.Stats().PlacementScores
	n0.ap.tick()
	if got := n0.Stats().PlacementScores - before; got != 1 {
		t.Errorf("one autopilot election through the engine counted %d scoring runs, want 1", got)
	}
	if at, err := n0.Locate(ctx, ref); err != nil || at != "n1" {
		t.Errorf("object at %v (%v), want n1", at, err)
	}
	if st := n0.Stats(); st.PlacementMigrations != 1 || st.AutopilotMigrations != 1 {
		t.Errorf("Placement/AutopilotMigrations = %d/%d, want 1/1", st.PlacementMigrations, st.AutopilotMigrations)
	}
}
