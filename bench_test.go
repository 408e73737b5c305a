package objmig

// This file is the benchmark harness required by the reproduction: one
// benchmark per paper figure (each run regenerates the figure's series
// with the simulation harness and reports its headline numbers as
// benchmark metrics), plus micro-benchmarks of the live runtime's hot
// paths.
//
//	go test -bench=Fig -benchmem        # regenerate all figures
//	go test -bench=Runtime -benchmem    # runtime micro-benchmarks
//
// The full-quality tables (paper-grade confidence intervals) come from
// cmd/objmig-sim; benchmarks use the quick profile so a -bench=. run
// stays in the minutes range.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/wire"
	"objmig/sim"
)

// benchOpts is the quick profile used by the figure benchmarks.
func benchOpts(seed int64) sim.RunOpts {
	return sim.RunOpts{Seed: seed, Quick: true, MaxCalls: 8000, Parallelism: 8}
}

// runFigure regenerates one figure per benchmark iteration and returns
// the last table for metric extraction.
func runFigure(b *testing.B, id string) sim.Table {
	b.Helper()
	e, ok := sim.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var tbl sim.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = sim.RunExperiment(e, benchOpts(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// lastY reports the final-x value of a series as a benchmark metric.
func lastY(b *testing.B, tbl sim.Table, label, metric string) {
	b.Helper()
	col := tbl.Column(label)
	if col == nil {
		b.Fatalf("series %q missing", label)
	}
	b.ReportMetric(col[len(col)-1], metric)
}

// BenchmarkFig8 regenerates Fig. 8 (mean communication time per call
// against the usage distance t_m) and reports the three policies'
// values at the highest usage frequency.
func BenchmarkFig8(b *testing.B) {
	tbl := runFigure(b, "fig8")
	first := tbl.Y[0]
	for j, s := range tbl.Experiment.Series {
		b.ReportMetric(first[j], fmt.Sprintf("%s@tm=min", shortLabel(s.Label)))
	}
}

// BenchmarkFig10 regenerates Fig. 10 (the invocation-duration
// component of the Fig. 8 runs).
func BenchmarkFig10(b *testing.B) {
	tbl := runFigure(b, "fig10")
	lastY(b, tbl, "Migration", "migration-dur@tm=100")
	lastY(b, tbl, "Transient Placement", "placement-dur@tm=100")
}

// BenchmarkFig11 regenerates Fig. 11 (the migration-load component).
func BenchmarkFig11(b *testing.B) {
	tbl := runFigure(b, "fig11")
	lastY(b, tbl, "Migration", "migration-load@tm=100")
	lastY(b, tbl, "Transient Placement", "placement-load@tm=100")
}

// BenchmarkFig12 regenerates Fig. 12 (hot-spot objects under an
// increasing number of clients) and reports the two break-even points
// the paper calls out (~6 and ~20 clients).
func BenchmarkFig12(b *testing.B) {
	tbl := runFigure(b, "fig12")
	b.ReportMetric(tbl.Crossover("Migration", "without Migration"), "breakeven-migration")
	b.ReportMetric(tbl.Crossover("Transient Placement", "without Migration"), "breakeven-placement")
}

// BenchmarkFig14 regenerates Fig. 14 (dynamic placement strategies)
// and reports each strategy's value at C=25 — the paper's conclusion
// is that they differ from conservative placement only marginally.
func BenchmarkFig14(b *testing.B) {
	tbl := runFigure(b, "fig14")
	lastY(b, tbl, "Conservative Place-Policy", "placement@C=25")
	lastY(b, tbl, "Comparing the Nodes", "compare@C=25")
	lastY(b, tbl, "Comparing and Reinstantiation", "reinstantiate@C=25")
}

// BenchmarkFig16 regenerates Fig. 16 (attachment regimes with
// overlapping working sets) and reports the five series at C=12, whose
// ordering is the paper's central Table/Figure-16 claim.
func BenchmarkFig16(b *testing.B) {
	tbl := runFigure(b, "fig16")
	for _, s := range tbl.Experiment.Series {
		lastY(b, tbl, s.Label, shortLabel(s.Label)+"@C=12")
	}
}

// BenchmarkFig16Exclusive regenerates the exclusive-attachment
// extension (the Section 3.4 variant the paper describes but does not
// plot).
func BenchmarkFig16Exclusive(b *testing.B) {
	tbl := runFigure(b, "fig16x")
	lastY(b, tbl, "Migration + exclusive Attachment", "mig+exclusive@C=12")
	lastY(b, tbl, "Transient Placement + exclusive Attachment", "plc+exclusive@C=12")
}

// BenchmarkAblationGroupLock regenerates the group-lock ablation: the
// gap between the two A-transitive series is what extending the
// placement lock to the whole working set is worth.
func BenchmarkAblationGroupLock(b *testing.B) {
	tbl := runFigure(b, "ablation-grouplock")
	lastY(b, tbl, "Placement + A-transitive (group lock)", "with-grouplock@C=12")
	lastY(b, tbl, "Placement + A-transitive (root lock only)", "rootlock-only@C=12")
}

// shortLabel compresses the paper's series labels into metric names.
func shortLabel(label string) string {
	switch label {
	case "without Migration":
		return "sedentary"
	case "Migration":
		return "migration"
	case "Transient Placement":
		return "placement"
	case "Migration + unrestricted Attachment":
		return "mig+unrestricted"
	case "Migration + A-transitive Attachment":
		return "mig+a-trans"
	case "Transient Placement + unrestricted Attachment":
		return "plc+unrestricted"
	case "Transient Placement + A-transitive Attachment":
		return "plc+a-trans"
	default:
		return label
	}
}

// --- Live-runtime micro-benchmarks ---

// benchNodes builds a local two-node cluster, "a" and "b", with the
// bench type.
func benchNodes(b *testing.B, policy PolicyKind) (*Node, *Node, Ref) {
	return benchNodesNamed(b, policy, "a", "b")
}

// benchNodesNamed is benchNodes with the two node IDs given; the
// object is created on the first.
func benchNodesNamed(b *testing.B, policy PolicyKind, first, second NodeID) (*Node, *Node, Ref) {
	b.Helper()
	cl := NewLocalCluster()
	t := newBenchType()
	mk := func(id NodeID) *Node {
		n, err := NewNode(Config{ID: id, Cluster: cl, Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.RegisterType(t); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = n.Close() })
		return n
	}
	a, c := mk(first), mk(second)
	ref, err := a.Create("bench")
	if err != nil {
		b.Fatal(err)
	}
	return a, c, ref
}

type benchState struct {
	Value int
}

func newBenchType() *Type[benchState] {
	t := NewType[benchState]("bench")
	HandleFunc(t, "Add", func(c *Ctx, s *benchState, d int) (int, error) {
		s.Value += d
		return s.Value, nil
	})
	HandleFunc(t, "AddAll", func(c *Ctx, s *benchState, ds []int) (int, error) {
		for _, d := range ds {
			s.Value += d
		}
		return s.Value, nil
	})
	return t
}

// BenchmarkRuntimeLocalInvoke measures an invocation of a locally
// hosted object through the typed local leg: trap and dispatch under
// the object's monitor, argument and result passed by value, no codec
// and no network.
func BenchmarkRuntimeLocalInvoke(b *testing.B) {
	a, _, ref := benchNodes(b, PolicyPlacement)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Call[int, int](ctx, a, ref, "Add", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeLocalInvokeEncoded is BenchmarkRuntimeLocalInvoke
// with a value-unsafe argument ([]int), which keeps a collocated call
// on the encoded leg: a gob round trip of argument and result on the
// primed streams.
func BenchmarkRuntimeLocalInvokeEncoded(b *testing.B) {
	a, _, ref := benchNodes(b, PolicyPlacement)
	ctx := context.Background()
	arg := []int{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Call[[]int, int](ctx, a, ref, "AddAll", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeRemoteInvoke measures an invocation that crosses the
// in-memory transport (linearise, forward, execute, reply).
func BenchmarkRuntimeRemoteInvoke(b *testing.B) {
	benchRemoteInvoke(b, "a", "b")
}

// BenchmarkRuntimeRemoteInvokeNamed is BenchmarkRuntimeRemoteInvoke
// between nodes named as objmig-bench names them. Go converts a
// one-byte string without allocating, so only multi-byte node IDs
// show what decoding the names in each request and response costs.
func BenchmarkRuntimeRemoteInvokeNamed(b *testing.B) {
	benchRemoteInvoke(b, "n0", "n1")
}

func benchRemoteInvoke(b *testing.B, host, caller NodeID) {
	_, remote, ref := benchNodesNamed(b, PolicyPlacement, host, caller)
	ctx := context.Background()
	// Warm the location cache.
	if _, err := Call[int, int](ctx, remote, ref, "Add", 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Call[int, int](ctx, remote, ref, "Add", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeMigration measures a full single-object migration
// round trip between two nodes (pause, snapshot, install, commit —
// twice, so the benchmark is steady-state).
func BenchmarkRuntimeMigration(b *testing.B) {
	a, _, ref := benchNodes(b, PolicyConventional)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Migrate(ctx, ref, "b"); err != nil {
			b.Fatal(err)
		}
		if err := a.Migrate(ctx, ref, "a"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeMoveBlock measures an uncontended placement
// move-block: move-request, one call, end-request. Only the first
// block migrates the object to the caller; every later one finds it
// there and is a stay, which stamps the block's lock and transfers
// nothing, and its call takes the typed local leg: 13 allocs in all
// (20 while that call went through gob).
func BenchmarkRuntimeMoveBlock(b *testing.B) {
	a, remote, ref := benchNodes(b, PolicyPlacement)
	_ = a
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := remote.Move(ctx, ref, func(ctx context.Context, blk *Block) error {
			_, err := Call[int, int](ctx, remote, ref, "Add", 1)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// codecBodies are the two hot wire bodies the codec satellite tracks:
// the invocation request every call carries, and the snapshot every
// migration batch is made of.
func codecBodies() (*wire.InvokeReq, *wire.Snapshot) {
	req := &wire.InvokeReq{
		Obj:    core.OID{Origin: "node-0", Seq: 12345},
		Method: "Add",
		Arg:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	snap := &wire.Snapshot{
		ID:    core.OID{Origin: "node-0", Seq: 12345},
		Type:  "bench",
		State: bytes.Repeat([]byte{0xAB}, 64),
		Edges: []wire.EdgeRec{
			{Other: core.OID{Origin: "node-1", Seq: 7}, Alliance: 1},
			{Other: core.OID{Origin: "node-2", Seq: 9}, Alliance: 2},
		},
	}
	snap.Pol.Fixed = true
	snap.Pol.Lock = core.LockState{Held: true, Owner: "node-3", Block: 4}
	snap.Pol.OpenMoves = map[core.NodeID]int{"node-1": 2, "node-2": 1}
	return req, snap
}

// BenchmarkRuntimeCodec measures encode+decode round trips of the hot
// wire bodies on the zero-copy path the rpc layer actually runs —
// wire.MarshalAppend into a reused frame buffer — whose remaining
// allocs/op are pure decode output (the free-form strings, byte slices
// and maps handed to the caller; names come from the wire name table). CI guards every sub-benchmark's allocs/op
// against scripts/alloc-budget.txt (see scripts/check-allocs.sh).
func BenchmarkRuntimeCodec(b *testing.B) {
	req, snap := codecBodies()
	runDecode := func(name string, in interface{}, out func() interface{}, unmarshal func([]byte, interface{}) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = wire.MarshalAppend(buf[:0], in); err != nil {
					b.Fatal(err)
				}
				if err := unmarshal(buf, out()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	runAppend := func(name string, in interface{}, out func() interface{}) {
		runDecode(name, in, out, wire.Unmarshal)
	}
	runAppend("Invoke/append", req, func() interface{} { return new(wire.InvokeReq) })
	// The host's decode of the same request: the argument aliases the
	// buffer, so only the body is left.
	runDecode("Invoke/view", req, func() interface{} { return new(wire.InvokeReq) }, wire.UnmarshalView)
	runAppend("Snapshot/append", snap, func() interface{} { return new(wire.Snapshot) })
	// The load-gossip heartbeat body: ships every Heartbeat per peer,
	// so its append path must stay as lean as the invoke one.
	load := &wire.LoadGossipReq{Load: wire.NodeLoad{
		Node: "node-0", Objects: 4096, Bytes: 1 << 28, RateMilli: 125_000, Capacity: 8192, Seq: 99,
	}}
	runAppend("Load/append", load, func() interface{} { return new(wire.LoadGossipReq) })
	// HomeUpdate with a piggybacked sample: the decode allocates the
	// optional NodeLoad on top of the OID list.
	hu := &wire.HomeUpdate{
		Objs: []core.OID{{Origin: "node-0", Seq: 1}, {Origin: "node-0", Seq: 2}},
		At:   "node-1",
		Load: &load.Load,
	}
	runAppend("HomeUpdateLoad/append", hu, func() interface{} { return new(wire.HomeUpdate) })
	// The migration payload frame as a small migration sends it: one
	// InstallReq that opens, stages and commits a fully connected
	// 4-object closure (the shape bench/probes.go times). On top of the
	// snapshots' own decode output, the member list costs its OID slice
	// (the origins come from the wire name table).
	const closure = 4
	install := &wire.InstallReq{Token: 42, From: "node-0", Trace: 0xABCD1234DEADBEEF, Bytes: 3 << 20, Commit: true}
	for i := 1; i <= closure; i++ {
		s := wire.Snapshot{ID: core.OID{Origin: "node-0", Seq: uint64(i)}, Type: "bench", State: make([]byte, 32), Gen: 7}
		for j := 1; j <= closure; j++ {
			if j != i {
				s.Edges = append(s.Edges, wire.EdgeRec{Other: core.OID{Origin: "node-0", Seq: uint64(j)}})
			}
		}
		install.Snapshots = append(install.Snapshots, s)
		install.Members = append(install.Members, s.ID)
	}
	runAppend("Install/append", install, func() interface{} { return new(wire.InstallReq) })
	// The redirect every stale hint earns: an error frame naming the
	// next hop. The decode output is the body and its message.
	redirect := &wire.RemoteError{Code: wire.CodeMoved, Msg: "object node-0/12345 moved", To: "node-1", Gen: 7}
	runAppend("RemoteError/append", redirect, func() interface{} { return new(wire.RemoteError) })
}

// BenchmarkShedPlan measures the shedder's planning pass alone: the
// pure ranking of every hosted object by coldness × resident bytes
// that shedPass reruns before each shed. No pauses, no RPCs — the cost
// is one store walk plus one sort, and CI guards its allocs/op against
// scripts/alloc-budget.txt.
func BenchmarkShedPlan(b *testing.B) {
	const objects = 2048
	cl := NewLocalCluster()
	n, err := NewNode(Config{ID: "bench", Cluster: cl, Capacity: objects * 2})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.RegisterType(newCounterType()); err != nil {
		b.Fatal(err)
	}
	if err := n.EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		ref, err := n.Create("counter")
		if err != nil {
			b.Fatal(err)
		}
		// Vary sizes and pressure so the sort works on a realistic
		// spread rather than a constant key.
		rec, _ := n.store.Lookup(ref.OID)
		rec.StateBytes = int64(1+i%97) << 10
		if i%3 == 0 {
			n.aff.Record(ref.OID, "peer-1")
		}
	}
	d := n.placementDaemonRef()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan := d.shedPlan(); len(plan) != objects {
			b.Fatalf("plan covered %d of %d objects", len(plan), objects)
		}
	}
}

// BenchmarkRuntimeStoreParallel measures the sharded store under
// parallel hot-path load: each goroutine spins over lookups, location
// hints and invocation acquire/release on its own slice of a shared
// object population. Before the sharding this serialised on one node
// mutex.
func BenchmarkRuntimeStoreParallel(b *testing.B) {
	const oids = 4096
	s := store.New("n0")
	ids := make([]core.OID, oids)
	for i := range ids {
		ids[i] = core.OID{Origin: "n0", Seq: uint64(i + 1)}
		if err := s.Add(store.NewRecord(ids[i], "bench", &benchState{})); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := ids[i%oids]
			i++
			rec, _ := s.Lookup(id)
			if rec == nil {
				b.Fatal("object lost")
			}
			if err := rec.Acquire(ctx); err != nil {
				b.Fatal(err)
			}
			rec.Release()
		}
	})
}

// blobState is the large-object specimen for the streaming-migration
// benchmark: a payload worth chunking.
type blobState struct {
	Blob []byte
}

func newBlobType() *Type[blobState] {
	t := NewType[blobState]("blob")
	HandleFunc(t, "Fill", func(c *Ctx, s *blobState, size int) (int, error) {
		s.Blob = bytes.Repeat([]byte{0x5A}, size)
		return len(s.Blob), nil
	})
	return t
}

// BenchmarkMigrateLargeGroup migrates a 64-object × 1 MiB working set
// back and forth between two nodes and compares the streamed transfer
// (default 256 KiB chunks) against a monolithic configuration that
// ships the whole group in one frame. The reported max-chunk-B metric
// is the coordinator's largest single InstallReq frame — with
// chunking it stays near max(ChunkBytes, one object) regardless of the
// group, while the monolithic configuration buffers the entire group
// (~64 MiB); B/op shows the corresponding allocation drop.
func BenchmarkMigrateLargeGroup(b *testing.B) {
	const (
		groupSize  = 64
		objectSize = 1 << 20
	)
	run := func(b *testing.B, chunkBytes int) {
		cl := NewLocalCluster()
		bt := newBlobType()
		mk := func(id NodeID) *Node {
			n, err := NewNode(Config{ID: id, Cluster: cl, Migrate: MigrateConfig{ChunkBytes: chunkBytes}})
			if err != nil {
				b.Fatal(err)
			}
			if err := n.RegisterType(bt); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = n.Close() })
			return n
		}
		a, c := mk("a"), mk("b")
		ctx := context.Background()
		root, err := a.Create("blob")
		if err != nil {
			b.Fatal(err)
		}
		group := []Ref{root}
		for i := 1; i < groupSize; i++ {
			m, err := a.Create("blob")
			if err != nil {
				b.Fatal(err)
			}
			group = append(group, m)
			if err := a.Attach(ctx, root, m, NoAlliance); err != nil {
				b.Fatal(err)
			}
		}
		for _, m := range group {
			if _, err := Call[int, int](ctx, a, m, "Fill", objectSize); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Migrate(ctx, root, "b"); err != nil {
				b.Fatal(err)
			}
			if err := a.Migrate(ctx, root, "a"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		maxChunk := a.Stats().StreamMaxChunkBytes
		if s := c.Stats().StreamMaxChunkBytes; s > maxChunk {
			maxChunk = s
		}
		b.ReportMetric(float64(maxChunk), "max-chunk-B")
		if hosted := a.Stats().ObjectsHosted; hosted != groupSize {
			b.Fatalf("group fragmented: %d of %d objects back home", hosted, groupSize)
		}
	}
	b.Run("streamed-256KiB", func(b *testing.B) { run(b, DefaultChunkBytes) })
	b.Run("monolithic", func(b *testing.B) { run(b, math.MaxInt) })
}

// BenchmarkRuntimeWorkingSet measures the distributed closure walk over
// an attached working set of five objects.
func BenchmarkRuntimeWorkingSet(b *testing.B) {
	a, _, root := benchNodes(b, PolicyPlacement)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		m, err := a.Create("bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Attach(ctx, root, m, NoAlliance); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := a.WorkingSet(ctx, root, NoAlliance)
		if err != nil {
			b.Fatal(err)
		}
		if len(ws) != 5 {
			b.Fatalf("working set = %d", len(ws))
		}
	}
}
