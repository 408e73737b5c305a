package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"objmig"
	"objmig/internal/affinity"
	"objmig/internal/core"
	"objmig/internal/framebuf"
	"objmig/internal/rpc"
	"objmig/internal/store"
	"objmig/internal/telemetry"
	"objmig/internal/transport"
	"objmig/internal/wire"
)

// Per-layer metrics come from three places: counters the program keeps
// (Stats, framebuf.Stats, Node.TraceSpans) read around the untraced
// half-window; harness spans around each API call in the traced
// half-window; and probes, which time a layer's public functions
// directly on the message shapes the workloads use. Probes do not
// depend on the workload; span and counter metrics read 0 on a
// workload that never enters the layer.

// layerMetrics assembles every per-layer metric of a --trace run.
func layerMetrics(in *instance, plain, traced *window) ([]Metric, error) {
	var ms []Metric
	put := func(name string, v float64, unit string) { ms = append(ms, Metric{name, v, unit}) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	tot := mergeTotals(traced.tracers)
	s, ops := plain.stats, float64(plain.ops)
	now := in.statsSum()

	put("invoke.local_us", tot[spanCall][outLocal].meanUs(), "us")
	put("invoke.remote_us", tot[spanCall][outRemote].meanUs(), "us")
	put("invoke.remote_calls_per_op", float64(s.RemoteCallsSent)/ops, "count")

	chases := s.HintHits + s.HintMisses
	put("directory.hint_hit_ratio", ratio(s.HintHits, chases), "ratio")
	put("directory.hops_per_chase", ratio(s.ChaseHops, chases), "count")
	entries := now.LocHome + now.LocForwards + now.LocCache + now.LocClosures + now.LocClosureRefs
	put("directory.entries_per_kobj", float64(entries)*1000/float64(in.objects), "count")
	put("directory.chases_over_budget", float64(s.ChasesOverBudget), "count")

	put("move.stayed_us", tot[spanMoveRequest][outStayed].meanUs(), "us")
	put("move.granted_us", tot[spanMoveRequest][outGranted].meanUs(), "us")
	put("move.denied_us", tot[spanMoveRequest][outDenied].meanUs(), "us")
	put("move.end_us", tot[spanEnd][outNone].meanUs(), "us")
	blocks := s.MovesGranted + s.MovesStayed + s.MovesDenied
	put("move.granted_ratio", ratio(s.MovesGranted, blocks), "ratio")
	put("move.denied_ratio", ratio(s.MovesDenied, blocks), "ratio")

	bulk := tot[spanMigrateBulk][outNone]
	put("migrate.small_us", tot[spanMigrate][outNone].meanUs(), "us")
	put("migrate.bulk_ms", bulk.meanUs()/1e3, "ms")
	payload := 0.0
	if bulk.TotalNs > 0 {
		payload = float64(bulk.Count*bulkGroup*blobBytes) / (1 << 20) / (float64(bulk.TotalNs) / 1e9)
	}
	put("migrate.payload_MiB_per_s", payload, "MiB/s")
	put("migrate.stream_KiB_per_op", float64(s.StreamBytesOut)/ops/1024, "KiB")
	var maxChunk int64
	for _, n := range in.nodes {
		if c := n.Stats().StreamMaxChunkBytes; c > maxChunk {
			maxChunk = c
		}
	}
	put("migrate.max_chunk_KiB", float64(maxChunk)/1024, "KiB")
	put("migrate.touch_us", tot[spanTouch][outLocal].meanUs(), "us")
	put("migrate.aborts", float64(s.StreamAborts+s.PauseLeasesExpired+s.StreamSessionsExpired), "count")
	phases := phaseMeans(in.timelines())
	for p := telemetry.Phase(1); int(p) <= telemetry.NumPhases; p++ {
		name := p.String()
		if p == telemetry.PhaseDirUpdate {
			name = "dir_update"
		}
		put("migrate.phase_"+name+"_us", phases[p], "us")
	}

	put("homebatch.coalesce_ratio", ratio(s.HomeUpdatesQueued, s.HomeUpdateBatches), "ratio")
	put("framebuf.hit_ratio", ratio(plain.fbHits, plain.fbHits+plain.fbMisses), "ratio")

	put("proc.cpu_us_per_op", float64(plain.cpu.Microseconds())/ops, "us")
	put("proc.gc_cycles_per_kop", float64(plain.mem1.NumGC-plain.mem0.NumGC)*1000/ops, "count")
	put("proc.gc_pause_ms", float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs)/1e6, "ms")
	put("proc.goroutines", float64(plain.gorout), "count")
	put("trace.overhead_pct", (plain.opPerS-traced.opPerS)/plain.opPerS*100, "%")

	for _, probe := range []func() ([]Metric, error){probeAPI, probeStore, probeCore, probeWire, probeFramebuf, probeRPC, probeTransport, probeRecorders} {
		got, err := probe()
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		ms = append(ms, got...)
	}
	return ms, nil
}

// phaseMeans returns, per migration phase, the span time one migration
// spends in it (summed over the phase's spans, which may overlap),
// averaged over the migrations still in the nodes' span rings.
func phaseMeans(lines []telemetry.Timeline) (mean [telemetry.NumPhases + 1]float64) {
	if len(lines) == 0 {
		return mean
	}
	for _, tl := range lines {
		for _, sp := range tl.Spans {
			mean[sp.Phase] += float64(sp.End-sp.Start) / 1e3
		}
	}
	for p := range mean {
		mean[p] /= float64(len(lines))
	}
	return mean
}

// perOp calls fn n times after n/10 unmeasured calls and returns the
// mean nanoseconds and heap allocations per call.
func perOp(n int, fn func()) (ns, allocs float64) {
	for i := 0; i < n/10; i++ {
		fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(took.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink interface{}

// firstError remembers the first error a probe loop meets, so the loop
// body stays a plain call.
type firstError struct{ err error }

func (f *firstError) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// probeAPI times what only a quiet cluster can show: allocations per
// invoke, the first call through a hint just made stale, and a
// working-set walk.
func probeAPI() ([]Metric, error) {
	nodes, closeAll, err := newCluster(3, objmig.PolicyPlacement, newCounterType())
	if err != nil {
		return nil, err
	}
	defer closeAll()
	refs, err := newClosure(nodes[1], "bench", closureSize)
	if err != nil {
		return nil, err
	}
	root := refs[0]
	var fe firstError
	_, localAllocs := perOp(20_000, func() { fe.keep(add(nodes[1], root)) })
	_, remoteAllocs := perOp(20_000, func() { fe.keep(add(nodes[0], root)) })
	wsNs, _ := perOp(5_000, func() {
		ws, err := nodes[1].WorkingSet(bg, root, objmig.NoAlliance)
		fe.keep(err)
		sink = ws
	})
	// n0 holds a correct hint; the host moves the closure away, and the
	// next call from n0 follows the redirect.
	stale := make([]float64, 200)
	at := 1
	for i := range stale {
		fe.keep(nodes[at].Migrate(bg, root, nodes[3-at].ID()))
		at = 3 - at
		t0 := time.Now()
		fe.keep(add(nodes[0], root))
		stale[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return []Metric{
		{"invoke.local_allocs", localAllocs, "count"},
		{"invoke.remote_allocs", remoteAllocs, "count"},
		{"attach.working_set_us", wsNs / 1e3, "us"},
		{"directory.stale_chase_us", median(stale), "us"},
	}, fe.err
}

func probeStore() ([]Metric, error) {
	const n = 8192
	s := store.New("n0")
	ids := make([]core.OID, n)
	for i := range ids {
		ids[i] = core.OID{Origin: "n0", Seq: uint64(i + 1)}
		if err := s.Add(store.NewRecord(ids[i], "bench", &counterState{})); err != nil {
			return nil, err
		}
	}
	i := 0
	lookupNs, _ := perOp(2_000_000, func() {
		rec, _ := s.Lookup(ids[i&(n-1)])
		sink = rec
		i++
	})
	// Arriving closures of four: fresh identities each time, as at a
	// migration target.
	const batches = 22_000 // perOp's 20 000 plus its warm-up
	recs := make([]*store.Record, batches*closureSize)
	for i := range recs {
		recs[i] = store.NewRecord(core.OID{Origin: "n0", Seq: uint64(i + 1)}, "bench", &counterState{})
	}
	target := store.New("n1")
	var fe firstError
	b := 0
	installNs, _ := perOp(20_000, func() {
		fe.keep(target.InstallBatch(recs[b*closureSize:(b+1)*closureSize], uint64(b+1)))
		b++
	})
	return []Metric{
		{"store.lookup_ns", lookupNs, "ns"},
		{"store.install_batch_us", installNs / 1e3, "us"},
	}, fe.err
}

func probeCore() ([]Metric, error) {
	pol := core.PolicyFor(core.PolicyPlacement)
	var st core.ObjState
	blk := core.BlockID(0)
	// One granted decision and the end that releases its lock.
	decideNs, _ := perOp(2_000_000, func() {
		blk++
		sink = pol.OnMove(&st, "n1", core.MoveRequest{From: "n0", Block: blk})
		sink = pol.OnEnd(&st, "n0", core.EndRequest{From: "n0", Block: blk})
	})
	g := core.NewAttachGraph(core.AttachATransitive)
	root := core.OID{Origin: "n0", Seq: 1}
	for i := 2; i <= closureSize; i++ {
		g.Attach(root, core.OID{Origin: "n0", Seq: uint64(i)}, core.NoAlliance)
	}
	walkNs, _ := perOp(200_000, func() { sink = g.Closure(root, core.NoAlliance) })
	return []Metric{
		{"core.policy_decide_ns", decideNs, "ns"},
		{"core.closure_walk_ns", walkNs, "ns"},
	}, nil
}

func probeWire() ([]Metric, error) {
	var fe firstError
	// encDec times MarshalAppend and Unmarshal of one body.
	encDec := func(n int, body interface{}, fresh func() interface{}) (encNs, decNs, allocs float64) {
		var buf []byte
		encNs, encAllocs := perOp(n, func() {
			var err error
			buf, err = wire.MarshalAppend(buf[:0], body)
			fe.keep(err)
		})
		decNs, decAllocs := perOp(n, func() { fe.keep(wire.Unmarshal(buf, fresh())) })
		return encNs, decNs, encAllocs + decAllocs
	}
	invoke := &wire.InvokeReq{Obj: core.OID{Origin: "n1", Seq: 12345}, Method: "Add", Arg: []byte{3, 4, 0, 2}, From: "n0"}
	invEnc, invDec, invAllocs := encDec(1_000_000, invoke, func() interface{} { return new(wire.InvokeReq) })

	snaps := make([]wire.Snapshot, closureSize)
	for i := range snaps {
		snaps[i] = wire.Snapshot{ID: core.OID{Origin: "n2", Seq: uint64(i + 1)}, Type: "bench", State: make([]byte, 32), Gen: 7}
		for j := range snaps {
			if j != i {
				snaps[i].Edges = append(snaps[i].Edges, wire.EdgeRec{Other: core.OID{Origin: "n2", Seq: uint64(j + 1)}})
			}
		}
	}
	install := &wire.InstallReq{Snapshots: snaps, Token: 42, From: "n2", Trace: 43}
	instEnc, _, _ := encDec(200_000, install, func() interface{} { return new(wire.InstallReq) })

	blob := &wire.Snapshot{ID: core.OID{Origin: "n0", Seq: 9}, Type: "blob", State: make([]byte, blobBytes), Gen: 3}
	blobEnc, blobDec, _ := encDec(4_000, blob, func() interface{} { return new(wire.Snapshot) })
	return []Metric{
		{"wire.invoke_encode_ns", invEnc, "ns"},
		{"wire.invoke_decode_ns", invDec, "ns"},
		{"wire.invoke_allocs", invAllocs, "count"},
		{"wire.install4_encode_ns", instEnc, "ns"},
		{"wire.snapshot_encode_us_256KiB", blobEnc / 1e3, "us"},
		{"wire.snapshot_decode_us_256KiB", blobDec / 1e3, "us"},
	}, fe.err
}

func probeFramebuf() ([]Metric, error) {
	ns, _ := perOp(2_000_000, func() { framebuf.Put(framebuf.Get(1024)) })
	return []Metric{{"framebuf.getput_ns", ns, "ns"}}, nil
}

// probeRecorders times the two recorders that sit on the invoke path
// when their daemons are enabled.
func probeRecorders() ([]Metric, error) {
	tr := affinity.New("n0")
	tr.SetEnabled(true)
	ids := make([]core.OID, 1024)
	for i := range ids {
		ids[i] = core.OID{Origin: "n0", Seq: uint64(i + 1)}
	}
	i := 0
	affNs, _ := perOp(2_000_000, func() {
		tr.Record(ids[i&1023], "n1")
		i++
	})
	h := telemetry.NewRegistry().Histogram("probe_us")
	telNs, _ := perOp(2_000_000, func() {
		h.Observe(int64(i & 1023))
		i++
	})
	return []Metric{
		{"affinity.record_ns", affNs, "ns"},
		{"telemetry.observe_ns", telNs, "ns"},
	}, nil
}

// probeRPC echoes an invoke-shaped request through the rpc layer, over
// the in-process fabric and over TCP loopback.
func probeRPC() ([]Metric, error) {
	echo := func(tr transport.Transport, listen string) (us, allocs, concurrent float64, err error) {
		l, err := tr.Listen(listen)
		if err != nil {
			return 0, 0, 0, err
		}
		srv := rpc.Serve(l, func(_ context.Context, _ wire.Kind, body, dst []byte) ([]byte, error) {
			var req wire.InvokeReq
			if err := wire.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			return wire.MarshalAppend(dst, &wire.InvokeResp{Result: req.Arg, At: "n1"})
		})
		defer srv.Close()
		pool := rpc.NewPool(tr)
		defer pool.Close()
		req := &wire.InvokeReq{Obj: core.OID{Origin: "n1", Seq: 12345}, Method: "Add", Arg: []byte{3, 4, 0, 2}, From: "n0"}
		ping := func() error {
			var resp wire.InvokeResp
			return pool.Call(bg, srv.Addr(), wire.KInvoke, req, &resp)
		}
		var fe firstError
		ns, allocs := perOp(20_000, func() { fe.keep(ping()) })
		// Two callers share the one pooled connection.
		const each = 20_000
		errs := make([]error, 2)
		var wg sync.WaitGroup
		start := time.Now()
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each && errs[g] == nil; i++ {
					errs[g] = ping()
				}
			}(g)
		}
		wg.Wait()
		took := time.Since(start)
		fe.keep(errors.Join(errs...))
		return ns / 1e3, allocs, 2 * each / took.Seconds(), fe.err
	}
	memUs, memAllocs, memConc, err := echo(transport.NewNetwork().Transport(), "probe")
	if err != nil {
		return nil, fmt.Errorf("rpc over mem: %w", err)
	}
	tcpUs, _, _, err := echo(transport.TCP{}, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rpc over tcp: %w", err)
	}
	return []Metric{
		{"rpc.echo_us_mem", memUs, "us"},
		{"rpc.echo_us_tcp", tcpUs, "us"},
		{"rpc.echo_allocs", memAllocs, "count"},
		{"rpc.concurrent2_calls_per_s", memConc, "1/s"},
	}, nil
}

// probeTransport measures a bare connection: the round trip of a 64 B
// frame, and 256 KiB frames streamed one way.
func probeTransport() ([]Metric, error) {
	const (
		pings = 22_000 // perOp's 20 000 plus its warm-up
		bulk  = 512    // 128 MiB
	)
	link := func(tr transport.Transport, listen string) (rttUs, mibPerS float64, err error) {
		l, err := tr.Listen(listen)
		if err != nil {
			return 0, 0, err
		}
		defer l.Close()
		served := make(chan error, 1)
		go func() {
			served <- func() error {
				c, err := l.Accept()
				if err != nil {
					return err
				}
				defer c.Close()
				for i := 0; i < pings+bulk; i++ {
					f, err := c.Recv()
					if err != nil {
						return err
					}
					if i < pings || i == pings+bulk-1 { // echo pings, acknowledge the last bulk frame
						err = c.Send(f[:64])
					}
					framebuf.Put(f)
					if err != nil {
						return err
					}
				}
				return nil
			}()
		}()
		c, err := tr.Dial(l.Addr())
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		var fe firstError
		await := func() {
			f, err := c.Recv()
			fe.keep(err)
			framebuf.Put(f)
		}
		small := make([]byte, 64)
		rttNs, _ := perOp(20_000, func() { fe.keep(c.Send(small)); await() })
		big := make([]byte, blobBytes)
		start := time.Now()
		for i := 0; i < bulk && fe.err == nil; i++ {
			fe.keep(c.Send(big))
		}
		if fe.err == nil {
			await() // the server acknowledges the last frame
		}
		took := time.Since(start)
		if fe.err == nil {
			fe.keep(<-served)
		}
		return rttNs / 1e3, float64(bulk*blobBytes) / (1 << 20) / took.Seconds(), fe.err
	}
	memRTT, memBW, err := link(transport.NewNetwork().Transport(), "probe")
	if err != nil {
		return nil, fmt.Errorf("transport mem: %w", err)
	}
	tcpRTT, tcpBW, err := link(transport.TCP{}, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport tcp: %w", err)
	}
	return []Metric{
		{"transport.mem_rtt_us_64B", memRTT, "us"},
		{"transport.tcp_rtt_us_64B", tcpRTT, "us"},
		{"transport.mem_MiB_per_s_256KiB", memBW, "MiB/s"},
		{"transport.tcp_MiB_per_s_256KiB", tcpBW, "MiB/s"},
	}, nil
}
