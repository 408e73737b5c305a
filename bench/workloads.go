package bench

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"

	"objmig"
)

// workload is one fixed operation mix; README.md says why each was
// chosen. The magnitudes (population, warm-up counts) are part of the
// benchmark: changing one changes what every metric means.
type workload struct {
	Name     string
	Tail     float64 // the tail percentile op_tail_us reports
	SlowPath string  // the slow path and its share of operations, as measured
	// Size is the population: closures of four (invoke-*), bystander
	// blobs per node (migrate-bulk), closures per application
	// (move-contention). WarmOps is the warm-up per driver, sized so
	// that set-up takes 3 s or more. Tests shrink both.
	Size, WarmOps int
	build         func(w *workload, seed int64) (*instance, error)
}

var workloads = []*workload{
	{
		Name: "invoke-steady", Tail: 0.99, Size: 2048, WarmOps: 110_000,
		SlowPath: "remote invoke, 64 % of calls",
		build:    buildInvokeSteady,
	},
	{
		Name: "invoke-churn", Tail: 0.99, Size: 2048, WarmOps: 45_000,
		SlowPath: "chase of more than one hop or wait on a paused object, 3 % of invokes",
		build:    buildInvokeChurn,
	},
	{
		Name: "migrate-bulk", Tail: 0.90, Size: 256, WarmOps: 520,
		SlowPath: "none: every cycle streams the same 4 MiB",
		build:    buildMigrateBulk,
	},
	{
		Name: "move-contention", Tail: 0.99, Size: 256, WarmOps: 5_600,
		SlowPath: "block that migrates or is denied, 25-30 % of operations",
		build:    buildMoveContention,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// WorkloadNames lists the workloads in their fixed order.
func WorkloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// --- object types ---

type counterState struct{ V int64 }

func newCounterType() *objmig.Type[counterState] {
	t := objmig.NewType[counterState]("bench")
	objmig.HandleFunc(t, "Add", func(_ *objmig.Ctx, s *counterState, d int64) (int64, error) {
		s.V += d
		return s.V, nil
	})
	objmig.HandleFunc(t, "Get", func(_ *objmig.Ctx, s *counterState, _ int64) (int64, error) {
		return s.V, nil
	})
	return t
}

func add(n *objmig.Node, ref objmig.Ref) error {
	_, err := objmig.Call[int64, int64](bg, n, ref, "Add", 1)
	return err
}

func get(n *objmig.Node, ref objmig.Ref) (int64, error) {
	return objmig.Call[int64, int64](bg, n, ref, "Get", 0)
}

type blobState struct{ Data []byte }

type fillArg struct {
	Size int
	Seed byte
}

type touchArg struct {
	Off, N int
	Val    byte
}

func newBlobType() *objmig.Type[blobState] {
	t := objmig.NewType[blobState]("blob")
	objmig.HandleFunc(t, "Fill", func(_ *objmig.Ctx, s *blobState, a fillArg) (int, error) {
		s.Data = make([]byte, a.Size)
		fill(s.Data, a.Seed)
		return len(s.Data), nil
	})
	objmig.HandleFunc(t, "Touch", func(_ *objmig.Ctx, s *blobState, a touchArg) (int, error) {
		if a.Off < 0 || a.N < 0 || a.Off+a.N > len(s.Data) {
			return 0, fmt.Errorf("touch [%d,%d) outside blob of %d", a.Off, a.Off+a.N, len(s.Data))
		}
		touch(s.Data, a)
		return a.N, nil
	})
	objmig.HandleFunc(t, "Sum", func(_ *objmig.Ctx, s *blobState, _ int) (uint32, error) {
		return crc32.ChecksumIEEE(s.Data), nil
	})
	return t
}

// fill and touch are shared by the blob methods and the harness's
// mirror of the blobs, so both sides apply the same bytes.
func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)
	}
}

func touch(b []byte, a touchArg) {
	for i := a.Off; i < a.Off+a.N; i++ {
		b[i] = a.Val
	}
}

// --- clusters ---

// newCluster boots nodes n0..n{k-1} on one in-process fabric with the
// default Config (daemons off) apart from the move-policy.
func newCluster(k int, policy objmig.PolicyKind, types ...interface{ Name() string }) ([]*objmig.Node, func(), error) {
	cl := objmig.NewLocalCluster()
	var nodes []*objmig.Node
	closeAll := func() {
		for _, n := range nodes {
			_ = n.Close() // nothing to report: the run's results are already taken
		}
	}
	for i := 0; i < k; i++ {
		n, err := objmig.NewNode(objmig.Config{ID: objmig.NodeID(fmt.Sprintf("n%d", i)), Cluster: cl, Policy: policy})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		nodes = append(nodes, n)
		for _, t := range types {
			if err := n.RegisterType(t); err != nil {
				closeAll()
				return nil, nil, err
			}
		}
	}
	return nodes, closeAll, nil
}

// newClosure creates a root and size-1 more objects on n and attaches
// them to the root outside any alliance, so a Move or Migrate issued
// outside any alliance carries all of them.
func newClosure(n *objmig.Node, typ string, size int) ([]objmig.Ref, error) {
	refs := make([]objmig.Ref, size)
	for i := range refs {
		ref, err := n.Create(typ)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
		if i > 0 {
			if err := n.Attach(bg, refs[0], ref, objmig.NoAlliance); err != nil {
				return nil, err
			}
		}
	}
	return refs, nil
}

// --- invoke-steady and invoke-churn ---

const (
	invokeNodes = 3
	closureSize = 4
	churnEvery  = 64 // completed invokes per migration
)

// population is the shared object set of the two invoke workloads, with
// the harness model of where each closure lives and what each counter
// must read.
type population struct {
	nodes []*objmig.Node
	objs  []objmig.Ref   // closure c is objs[4c:4c+4], its root first
	loc   []atomic.Int32 // closure -> index of the node hosting it
	adds  [][]int64      // per driver: Adds issued per object
}

// newPopulation creates the closures round-robin over the nodes, then
// migrates each once to a seeded other node, so callers resolve objects
// through real hints and closure records rather than the implicit
// "at its origin". Each caller then invokes every object once.
func newPopulation(seed int64, closures, callers int) (*population, func(), error) {
	nodes, closeAll, err := newCluster(invokeNodes, objmig.PolicyPlacement, newCounterType())
	if err != nil {
		return nil, nil, err
	}
	p := &population{nodes: nodes, loc: make([]atomic.Int32, closures), adds: make([][]int64, callers)}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < closures; c++ {
		home := c % invokeNodes
		refs, err := newClosure(nodes[home], "bench", closureSize)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		p.objs = append(p.objs, refs...)
		to := (home + 1 + rng.Intn(invokeNodes-1)) % invokeNodes
		if err := nodes[home].Migrate(bg, refs[0], nodes[to].ID()); err != nil {
			closeAll()
			return nil, nil, err
		}
		p.loc[c].Store(int32(to))
	}
	for i := range p.adds {
		p.adds[i] = make([]int64, len(p.objs))
	}
	if err := p.touchAll(callers); err != nil {
		closeAll()
		return nil, nil, err
	}
	return p, closeAll, nil
}

// touchAll has each caller node invoke every object once, which leaves
// it a correct hint for each. About a third of these first calls are
// redirected and pay the chase back-off, a 1 ms sleep, so a few
// goroutines per caller overlap the sleeps.
func (p *population) touchAll(callers int) error {
	const lanes = 4
	errs := make([]error, callers*lanes)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g / callers; k < len(p.objs) && errs[g] == nil; k += lanes {
				_, errs[g] = get(p.nodes[g%callers], p.objs[k])
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkCounters reads every counter back and compares it with the Adds
// the drivers issued.
func (p *population) checkCounters() error {
	for k, ref := range p.objs {
		var want int64
		for _, a := range p.adds {
			want += a[k]
		}
		got, err := get(p.nodes[0], ref)
		if err != nil {
			return fmt.Errorf("read back %s: %w", ref, err)
		}
		if got != want {
			return fmt.Errorf("counter %s reads %d, drivers added %d", ref, got, want)
		}
	}
	return nil
}

// call invokes one object from the driver's node, as a call span
// labelled by whether the model has the object on that node.
func (p *population) call(d *driver, k int, isAdd bool) error {
	out := outRemote
	if int(p.loc[k/closureSize].Load()) == d.id {
		out = outLocal
	}
	t0 := d.tr.now()
	var err error
	if isAdd {
		err = add(p.nodes[d.id], p.objs[k])
		p.adds[d.id][k]++
	} else {
		_, err = get(p.nodes[d.id], p.objs[k])
	}
	d.tr.add(spanCall, out, t0, d.tr.now())
	return err
}

// rankOrder maps zipf rank r to an object on node r mod 3, seeded among
// that node's objects. The seed thus picks which objects are hot but
// not how much of the call mass each node hosts: a free permutation let
// the local share, and with it every metric, move by 7 % between seeds.
func (p *population) rankOrder(rng *rand.Rand) []int {
	byNode := make([][]int, invokeNodes)
	for _, k := range rng.Perm(len(p.objs)) {
		at := p.loc[k/closureSize].Load()
		byNode[at] = append(byNode[at], k)
	}
	order := make([]int, 0, len(p.objs))
	for len(order) < len(p.objs) {
		for at := range byNode { // nodes that run out drop from the rotation, deep in the tail
			if len(byNode[at]) > 0 {
				order = append(order, byNode[at][0])
				byNode[at] = byNode[at][1:]
			}
		}
	}
	return order
}

func buildInvokeSteady(w *workload, seed int64) (*instance, error) {
	const callers = 2
	p, closeAll, err := newPopulation(seed, w.Size, callers)
	if err != nil {
		return nil, err
	}
	in := &instance{nodes: p.nodes, drivers: newDrivers(callers, seed), objects: len(p.objs), close: closeAll}
	perm := p.rankOrder(rand.New(rand.NewSource(seed + 1)))
	zipfs := make([]*rand.Zipf, callers)
	for i, d := range in.drivers {
		zipfs[i] = rand.NewZipf(d.rng, 1.1, 1, uint64(len(p.objs)-1))
	}
	in.step = func(d *driver) error {
		k := perm[zipfs[d.id].Uint64()]
		isAdd := d.rng.Intn(100) < 5
		d.note(uint64(k)<<1 | b2u(isAdd))
		return p.call(d, k, isAdd)
	}
	in.check = func(objmig.Stats) error { return p.checkCounters() }
	return in, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func buildInvokeChurn(w *workload, seed int64) (*instance, error) {
	p, closeAll, err := newPopulation(seed, w.Size, 1)
	if err != nil {
		return nil, err
	}
	in := &instance{nodes: p.nodes, drivers: newDrivers(1, seed), objects: len(p.objs)}
	// The migrator is count-coupled to the invoker: it re-homes one
	// closure per token, and the invoker sends a token every churnEvery
	// completed invokes. The operation mix is therefore a function of
	// the seed, not of how fast either goroutine runs.
	mig := newDrivers(2, seed)[1]
	in.helpers = []*driver{mig}
	tokens := make(chan chan struct{}, 1)
	var migErr error
	var migrations int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ack := range tokens {
			if ack != nil { // a quiesce marker: everything before it has run
				close(ack)
				continue
			}
			c := mig.rng.Intn(w.Size)
			to := (int(p.loc[c].Load()) + 1 + mig.rng.Intn(invokeNodes-1)) % invokeNodes
			mig.note(uint64(c)<<2 | uint64(to))
			mig.tr.beginOp()
			t0 := mig.tr.now()
			err := p.nodes[2].Migrate(bg, p.objs[c*closureSize], p.nodes[to].ID())
			t1 := mig.tr.now()
			mig.tr.add(spanMigrate, outNone, t0, t1)
			mig.tr.endOp(t0, t1)
			if err != nil && migErr == nil {
				migErr = fmt.Errorf("migrate closure %d to n%d: %w", c, to, err)
			}
			p.loc[c].Store(int32(to))
			migrations++
		}
	}()
	in.quiesce = func() {
		ack := make(chan struct{})
		tokens <- ack
		<-ack
	}
	in.close = func() {
		close(tokens)
		<-done
		closeAll()
	}
	var invokes int64
	in.step = func(d *driver) error {
		k := d.rng.Intn(len(p.objs))
		d.note(uint64(k))
		err := p.call(d, k, true)
		if invokes++; invokes%churnEvery == 0 {
			tokens <- nil
		}
		return err
	}
	in.check = func(objmig.Stats) error {
		if migErr != nil {
			return migErr
		}
		if want := invokes / churnEvery; migrations != want {
			return fmt.Errorf("%d migrations for %d invokes, want %d", migrations, invokes, want)
		}
		return p.checkCounters()
	}
	return in, nil
}

// --- migrate-bulk ---

const (
	blobBytes = 256 << 10
	bulkGroup = 16 // blobs in the migrating closure: 4 MiB
	bulkDirty = blobBytes / 100
)

// buildMigrateBulk sets up two conventional-policy nodes, each holding
// w.Size bystander blobs that never move (64 MiB per node, so the heap,
// and with it the GC cadence, is that of a loaded node: on a 5 MiB heap
// the collector runs over 100 times a second and op_per_s spreads by
// 25 %) and one attached closure of blobs
// that the driver dirties by 1 % and migrates to the other node, from
// whichever node holds it.
func buildMigrateBulk(w *workload, seed int64) (*instance, error) {
	nodes, closeAll, err := newCluster(2, objmig.PolicyConventional, newBlobType())
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		closeAll()
		return nil, err
	}
	in := &instance{nodes: nodes, drivers: newDrivers(1, seed), close: closeAll}
	for _, n := range nodes {
		for i := 0; i < w.Size; i++ {
			ref, err := n.Create("blob")
			if err != nil {
				return fail(err)
			}
			if _, err := objmig.Call[fillArg, int](bg, n, ref, "Fill", fillArg{blobBytes, byte(i)}); err != nil {
				return fail(err)
			}
		}
	}
	group, err := newClosure(nodes[0], "blob", bulkGroup)
	if err != nil {
		return fail(err)
	}
	in.objects = 2*w.Size + bulkGroup
	mirror := make([][]byte, bulkGroup) // the harness's copy of the closure's bytes
	for i, ref := range group {
		mirror[i] = make([]byte, blobBytes)
		fill(mirror[i], byte(seed)+byte(i))
		if _, err := objmig.Call[fillArg, int](bg, nodes[0], ref, "Fill", fillArg{blobBytes, byte(seed) + byte(i)}); err != nil {
			return fail(err)
		}
	}
	at := 0
	in.step = func(d *driver) error {
		host := nodes[at]
		for i, ref := range group {
			a := touchArg{Off: d.rng.Intn(blobBytes - bulkDirty), N: bulkDirty, Val: byte(d.rng.Intn(256))}
			d.note(uint64(a.Off)<<8 | uint64(a.Val))
			t0 := d.tr.now()
			_, err := objmig.Call[touchArg, int](bg, host, ref, "Touch", a)
			d.tr.add(spanTouch, outLocal, t0, d.tr.now())
			if err != nil {
				return err
			}
			touch(mirror[i], a)
		}
		t0 := d.tr.now()
		err := host.Migrate(bg, group[0], nodes[1-at].ID())
		d.tr.add(spanMigrateBulk, outNone, t0, d.tr.now())
		if err != nil {
			return err
		}
		at = 1 - at
		return nil
	}
	in.check = func(objmig.Stats) error {
		for i, ref := range group {
			got, err := objmig.Call[int, uint32](bg, nodes[0], ref, "Sum", 0)
			if err != nil {
				return fmt.Errorf("checksum %s: %w", ref, err)
			}
			if want := crc32.ChecksumIEEE(mirror[i]); got != want {
				return fmt.Errorf("blob %s checksum %08x after the last move, harness copy has %08x", ref, got, want)
			}
		}
		return nil
	}
	return in, nil
}

// --- move-contention ---

// buildMoveContention sets up the paper's scenario: three placement
// nodes, two applications (drivers on n0 and n1) whose closures start
// on n2. Each application works on its own pool only — through its own
// node (own block), through the other node (foreign block) or through
// both at once (conflict) — so every block's outcome follows from the
// driver's own earlier operations and repeats exactly per seed.
func buildMoveContention(w *workload, seed int64) (*instance, error) {
	const apps = 2
	nodes, closeAll, err := newCluster(3, objmig.PolicyPlacement, newCounterType())
	if err != nil {
		return nil, err
	}
	in := &instance{nodes: nodes, drivers: newDrivers(apps, seed), objects: apps * w.Size * closureSize, close: closeAll}
	type app struct {
		pool   [][]objmig.Ref // closure -> members, root first
		at     []int          // closure -> node index, per the model
		adds   []int64        // closure -> Adds issued to each of its members
		zipf   *rand.Zipf
		blocks [numOutcomes]int64
	}
	as := make([]*app, apps)
	for i := range as {
		a := &app{at: make([]int, w.Size), adds: make([]int64, w.Size)}
		a.zipf = rand.NewZipf(in.drivers[i].rng, 1.2, 1, uint64(w.Size-1))
		for c := 0; c < w.Size; c++ {
			refs, err := newClosure(nodes[2], "bench", closureSize)
			if err != nil {
				closeAll()
				return nil, err
			}
			a.pool = append(a.pool, refs)
			a.at[c] = 2
		}
		as[i] = a
	}
	in.step = func(d *driver) error {
		a := as[d.id]
		c := int(a.zipf.Uint64())
		kind := d.rng.Intn(10) // 0-7 own block, 8 foreign block, 9 conflict
		d.note(uint64(c)<<4 | uint64(kind))
		own, other := d.id, 1-d.id
		// run opens a move-block on closure c from node `from`, makes
		// one call per member inside it, runs inner (if any) and ends
		// the block. locked says another block holds the closure.
		run := func(from int, locked bool, inner func() error) error {
			want := outGranted
			if locked {
				want = outDenied
			} else if a.at[c] == from {
				want = outStayed
			}
			a.blocks[want]++
			t0 := d.tr.now()
			var tEnd int64
			err := nodes[from].Move(bg, a.pool[c][0], func(_ context.Context, b *objmig.Block) error {
				d.tr.add(spanMoveRequest, want, t0, d.tr.now())
				if b.Granted == locked {
					return fmt.Errorf("block on %s from n%d: granted=%v, model says %s", b.Ref, from, b.Granted, outcomeNames[want])
				}
				callOut := outLocal
				if locked {
					callOut = outRemote
				} else {
					a.at[c] = from
				}
				for _, ref := range a.pool[c] {
					t := d.tr.now()
					err := add(nodes[from], ref)
					d.tr.add(spanCall, callOut, t, d.tr.now())
					if err != nil {
						return err
					}
				}
				a.adds[c]++
				var err error
				if inner != nil {
					err = inner()
				}
				tEnd = d.tr.now()
				return err
			})
			d.tr.add(spanEnd, outNone, tEnd, d.tr.now())
			return err
		}
		switch kind {
		case 8:
			return run(other, false, nil)
		case 9:
			return run(own, false, func() error { return run(other, true, nil) })
		default:
			return run(own, false, nil)
		}
	}
	in.check = func(total objmig.Stats) error {
		var want [numOutcomes]int64
		for _, a := range as {
			for o, n := range a.blocks {
				want[o] += n
			}
		}
		if total.MovesStayed != want[outStayed] || total.MovesGranted != want[outGranted] || total.MovesDenied != want[outDenied] {
			return fmt.Errorf("nodes decided stayed=%d granted=%d denied=%d, model issued stayed=%d granted=%d denied=%d",
				total.MovesStayed, total.MovesGranted, total.MovesDenied, want[outStayed], want[outGranted], want[outDenied])
		}
		for _, a := range as {
			for c, refs := range a.pool {
				for _, ref := range refs {
					got, err := get(nodes[0], ref)
					if err != nil {
						return fmt.Errorf("read back %s: %w", ref, err)
					}
					if got != a.adds[c] {
						return fmt.Errorf("counter %s reads %d, driver added %d", ref, got, a.adds[c])
					}
				}
			}
		}
		return nil
	}
	return in, nil
}
