package objmig

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/core"
)

// overshootWorld stages the concurrent-coordinator race: four
// coordinators each hosting a 3-blob closure (installed there by a
// prior migration, so every member has a real StateBytes), plus one
// byte-capped target. Small chunks force a many-frame transfer,
// keeping each migration's open-to-commit window wide open for the
// race.
type overshootWorld struct {
	coords  []*Node
	anchors []Ref
	target  *Node
}

const (
	overshootBlobBytes = 8 << 10
	overshootGroupSize = 3
	// One ~24 KiB group fits, two do not: the target byte capacity the
	// admission defends.
	overshootCapBytes = 30 << 10
)

func newOvershootWorld(t *testing.T) *overshootWorld {
	t.Helper()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	bt := newBlobType()
	mk := func(id string, capBytes int64) *Node {
		n, err := NewNode(Config{
			ID:            NodeID(id),
			Cluster:       cl,
			CapacityBytes: capBytes,
			Migrate:       MigrateConfig{ChunkBytes: 4 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterType(bt); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	w := &overshootWorld{target: mk("target", overshootCapBytes)}
	if err := w.target.EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}
	seed := mk("seed", 0)
	for i := 0; i < 4; i++ {
		c := mk(fmt.Sprintf("coord%d", i), 0)
		anchor, err := seed.Create("blob")
		if err != nil {
			t.Fatal(err)
		}
		group := []Ref{anchor}
		for j := 1; j < overshootGroupSize; j++ {
			m, err := seed.Create("blob")
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.Attach(ctx, anchor, m, NoAlliance); err != nil {
				t.Fatal(err)
			}
			group = append(group, m)
		}
		for _, m := range group {
			if _, err := Call[int, int](ctx, seed, m, "Fill", overshootBlobBytes); err != nil {
				t.Fatal(err)
			}
		}
		// Move the closure onto its coordinator: the install stamps each
		// member's StateBytes, which is what the coordinator's byte
		// estimate in the opening install frame is summed from.
		if err := seed.Migrate(ctx, anchor, c.ID()); err != nil {
			t.Fatal(err)
		}
		w.coords = append(w.coords, c)
		w.anchors = append(w.anchors, anchor)
	}
	// Inject per-frame latency only now that staging is done: in-memory
	// RPCs complete in microseconds, which lets one whole migration
	// finish begin-to-commit before the next coordinator's begin even
	// lands. A realistic frame delay keeps every session's
	// begin-to-commit window open across all four coordinators.
	cl.SetLatency(300 * time.Microsecond)
	return w
}

// race fires every coordinator's migration to the target concurrently
// and returns the per-coordinator errors.
func (w *overshootWorld) race(ctx context.Context) []error {
	errs := make([]error, len(w.coords))
	var wg sync.WaitGroup
	for i := range w.coords {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.coords[i].Migrate(ctx, w.anchors[i], w.target.ID())
		}(i)
	}
	wg.Wait()
	return errs
}

// TestReservationLedgerPreventsOvershoot is the acceptance battery for
// the reservation ledger and the proactive shedder, meant to run under
// -race:
//
//   - four concurrent coordinators race one byte-capped target: peak
//     resident bytes never exceed the capacity, and the vetoed
//     coordinators' groups stay usable at their sources;
//   - a node pushed past ShedRatio drains itself below it.
func TestReservationLedgerPreventsOvershoot(t *testing.T) {
	t.Parallel()

	t.Run("ledger-caps-peak", func(t *testing.T) {
		t.Parallel()
		ctx := ctxShort(t)
		w := newOvershootWorld(t)

		// Peak monitor: resident bytes at the target, sampled throughout
		// the race, must never exceed the capacity.
		var peak atomic.Int64
		stop := make(chan struct{})
		var mon sync.WaitGroup
		mon.Add(1)
		go func() {
			defer mon.Done()
			for {
				_, bytes := w.target.store.HostedStats()
				if bytes > peak.Load() {
					peak.Store(bytes)
				}
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
		}()
		errs := w.race(ctx)
		close(stop)
		mon.Wait()

		var admitted, vetoed int
		for i, err := range errs {
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrDenied) && strings.Contains(err.Error(), "capacity"):
				vetoed++
			default:
				t.Fatalf("coordinator %d: %v, want success or capacity denial", i, err)
			}
		}
		if admitted < 1 || admitted+vetoed != len(errs) {
			t.Fatalf("%d admitted / %d vetoed of %d", admitted, vetoed, len(errs))
		}
		if p := peak.Load(); p > overshootCapBytes {
			t.Fatalf("peak resident bytes %d exceeded the %d capacity", p, int64(overshootCapBytes))
		}
		st := w.target.Stats()
		if st.PlacementReservations < int64(admitted) {
			t.Fatalf("PlacementReservations = %d, want >= %d", st.PlacementReservations, admitted)
		}
		if st.PlacementVetoes < int64(vetoed) {
			t.Fatalf("PlacementVetoes = %d, want >= %d", st.PlacementVetoes, vetoed)
		}
		// Claims must not leak: every admitted group converted to
		// residency, every veto claimed nothing.
		if res := w.target.resv.Reserved(); res.Objects != 0 || res.Bytes != 0 {
			t.Fatalf("reservations leaked after the race: %+v", res)
		}
		// Vetoed coordinators rolled their groups back: every member is
		// still hosted and usable at its source (a wedged pause would
		// time the call out).
		for i, err := range errs {
			if err == nil {
				continue
			}
			if at, lerr := w.coords[i].Locate(ctx, w.anchors[i]); lerr != nil || at != w.coords[i].ID() {
				t.Fatalf("vetoed group %d: anchor at %v (%v), want its coordinator", i, at, lerr)
			}
			if _, cerr := Call[int, int](ctx, w.coords[i], w.anchors[i], "Fill", overshootBlobBytes); cerr != nil {
				t.Fatalf("vetoed group %d unusable after abort: %v", i, cerr)
			}
		}
	})

	t.Run("shed-drains-overload", func(t *testing.T) {
		t.Parallel()
		var shedEvents atomic.Int64
		obs := func(e Event) {
			if e.Kind == EventPlacement && e.Outcome == "shed" {
				shedEvents.Add(1)
			}
		}
		nodes := placementTestCluster(t, 3, []int64{10, 10, 10}, obs)
		n0 := nodes[0]
		ctx := ctxShort(t)
		// Nine objects against a ShedRatio of 0.6: n0 starts at 0.9
		// utilisation and must drive itself down to 6 objects.
		refs := make([]Ref, 0, 9)
		for i := 0; i < 9; i++ {
			refs = append(refs, mustCreate(t, n0))
		}
		for _, n := range nodes {
			if err := n.EnablePlacement(PlacementConfig{
				Heartbeat:  10 * time.Millisecond,
				OriginPass: -1,
				ShedRatio:  0.6,
				ShedPass:   15 * time.Millisecond,
				Cooldown:   100 * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Peer discovery is traffic-driven: gossip heartbeats go to
		// configured peers, viewed peers, and observed callers (the
		// affinity tracker runs only while placement is enabled). One
		// call from each peer seeds n0's caller set; the heartbeat
		// responses then converge the views.
		for _, caller := range nodes[1:] {
			if _, err := Call[int, int](ctx, caller, refs[0], "Add", 1); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if hosted, _ := n0.store.HostedStats(); hosted <= 6 {
				break
			}
			if time.Now().After(deadline) {
				hosted, _ := n0.store.HostedStats()
				t.Fatalf("n0 still hosts %d objects (want <= 6): sheds=%d",
					hosted, n0.Stats().PlacementSheds)
			}
			time.Sleep(5 * time.Millisecond)
		}
		st := n0.Stats()
		if st.PlacementSheds < 3 {
			t.Fatalf("PlacementSheds = %d, want >= 3", st.PlacementSheds)
		}
		if shedEvents.Load() < 3 {
			t.Fatalf("shed events = %d, want >= 3", shedEvents.Load())
		}
		// Zero oscillation: once below the ratio nothing moves again —
		// ShedTarget refuses any peer its shed would push to the ratio,
		// so the receivers never become shedders themselves.
		settled := st.PlacementSheds
		time.Sleep(500 * time.Millisecond)
		var total int64
		for _, n := range nodes {
			total += n.Stats().PlacementSheds
		}
		if total != settled {
			t.Fatalf("sheds kept happening after the drain: %d total, %d at the settle point", total, settled)
		}
		if hosted, _ := n0.store.HostedStats(); hosted > 6 {
			t.Fatalf("n0 regained objects after draining: %d hosted", hosted)
		}
	})
}

// TestExplicitAdmissionTOCTOURegression pins the check-then-act bug
// for explicit Move/Migrate grants, deterministically: two admissions
// race one object of headroom. A snapshot predicate would admit both —
// each alone is within capacity, together they are not — which is the
// double admission that used to overshoot capacity. The ledger refuses
// the second.
func TestExplicitAdmissionTOCTOURegression(t *testing.T) {
	t.Parallel()
	nodes := placementTestCluster(t, 2, []int64{0, 1}, nil)
	src, tgt := nodes[0], nodes[1]
	a, b := mustCreate(t, src), mustCreate(t, src)

	// The ledger: the first admission claims the single slot, the
	// second is refused at once.
	if err := tgt.EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}
	if err := tgt.admitAndReserve([]core.OID{a.OID}, 0, src.ID(), 3); err != nil {
		t.Fatalf("ledger first admission: %v", err)
	}
	if err := tgt.admitAndReserve([]core.OID{b.OID}, 0, src.ID(), 4); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Fatalf("ledger second admission: %v, want capacity refusal", err)
	}
	if got := tgt.resv.Reserved(); got.Objects != 1 {
		t.Fatalf("reserved = %+v, want the single admitted object", got)
	}
	tgt.releaseReservation(src.ID(), 3)
	if got := tgt.resv.Reserved(); got.Objects != 0 {
		t.Fatalf("reserved after release = %+v, want zero", got)
	}
}
