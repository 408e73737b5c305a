// Package bench is the objmig benchmark harness: four closed-loop
// workloads over an in-process cluster, driven through the public
// objmig API only, each checked against a harness-side model. See
// README.md for the metric glossary and the measured noise notes.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"objmig"
	"objmig/internal/framebuf"
	"objmig/internal/telemetry"
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	Window   time.Duration // measured time
	Trace    bool          // per-layer run: half the window untraced, half traced, then the probes
	OutDir   string        // where a traced run writes trace-<workload>.json
}

// Metric is one named measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is what one run reports.
type Result struct {
	Workload  string
	About     string // drivers, tail percentile and slow-path share, for the report
	Correct   bool
	CheckErr  error // why Correct is false
	Attempted int64
	Failed    int64
	Metrics   []Metric
	TraceFile string
	// Digest hashes the operations the drivers chose during the
	// fixed-count warm-up: a function of workload and seed alone.
	Digest uint64
}

// setupRepeats is how many times a run sets the workload up; setup_s
// is the median, and the last instance is the one measured.
const setupRepeats = 3

// driver is one closed-loop client goroutine: it issues its next
// operation only after the previous one returned.
type driver struct {
	id     int
	rng    *rand.Rand
	digest uint64
	tr     *tracer // nil unless the window is traced

	slices []hist // one latency histogram per slice of the window
	ops    int64
	failed int64
}

// note folds one choice into the driver's op-sequence digest (FNV-1a).
func (d *driver) note(v uint64) {
	d.digest = (d.digest ^ v) * 1099511628211
}

// instance is one set-up workload: a running cluster plus the model the
// harness checks it against.
type instance struct {
	nodes   []*objmig.Node
	drivers []*driver
	helpers []*driver                // goroutines coupled to the drivers (the churn migrator)
	step    func(*driver) error      // one operation
	quiesce func()                   // waits for coupled work to finish; may be nil
	check   func(objmig.Stats) error // output checks, given Stats summed over nodes since boot
	objects int                      // objects created
	close   func()
}

func newDrivers(n int, seed int64) []*driver {
	ds := make([]*driver, n)
	for i := range ds {
		ds[i] = &driver{id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i))), digest: 14695981039346656037}
	}
	return ds
}

// everyone lists the drivers and the goroutines coupled to them.
func (in *instance) everyone() []*driver {
	return append(append([]*driver{}, in.drivers...), in.helpers...)
}

// settle waits until work coupled to the drivers has finished.
func (in *instance) settle() {
	if in.quiesce != nil {
		in.quiesce()
	}
}

// warm runs a fixed number of operations per driver, unrecorded.
func (in *instance) warm(ops int) error {
	errs := make([]error, len(in.drivers))
	var wg sync.WaitGroup
	for i, d := range in.drivers {
		wg.Add(1)
		go func(i int, d *driver) {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				if err := in.step(d); err != nil {
					errs[i] = fmt.Errorf("warm-up op %d of driver %d: %w", k, i, err)
					return
				}
			}
		}(i, d)
	}
	wg.Wait()
	in.settle()
	return errors.Join(errs...)
}

// window is what one measured window saw.
type window struct {
	ops      int64
	failed   int64
	firstErr error
	// Each is taken per slice and reported from the second-best slice
	// (see secondBest).
	opPerS, p50Ns, tailNs float64
	mem0                  runtime.MemStats
	mem1                  runtime.MemStats
	cpu                   time.Duration
	stats                 objmig.Stats                   // delta, summed over nodes
	perNode               map[objmig.NodeID]objmig.Stats // delta per node
	fbHits                int64
	fbMisses              int64
	tracers               []*tracer
	gorout                int
}

// measure runs every driver in a closed loop for dur, split into equal
// slices; an operation belongs to the slice it completes in. A driver
// reads the clock only around its own operations, so the harness adds
// no timer and no polling goroutine.
func (in *instance) measure(dur time.Duration, tail float64, traced bool) *window {
	w := &window{}
	nslices := sliceCount(dur)
	all := in.everyone()
	for _, d := range in.drivers {
		d.slices = make([]hist, nslices)
		d.ops, d.failed = 0, 0
	}
	before := in.statsPerNode()
	h0, m0 := framebuf.Stats()
	cpu0 := cpuTime()
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	if traced {
		for _, d := range all {
			d.tr = newTracer(start)
			w.tracers = append(w.tracers, d.tr)
		}
	}
	slice := dur / time.Duration(nslices)
	errs := make([]error, len(in.drivers))
	var wg sync.WaitGroup
	for i, d := range in.drivers {
		wg.Add(1)
		go func(i int, d *driver) {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				d.tr.beginOp()
				err := in.step(d)
				t1 := time.Since(start)
				d.tr.endOp(int64(t0), int64(t1))
				d.ops++
				s := int(t1 / slice)
				if s >= nslices {
					return // completed past the window: counted, not timed
				}
				if err != nil {
					d.failed++
					d.slices[s].recordMissed()
					if errs[i] == nil {
						errs[i] = err
					}
				} else {
					d.slices[s].record(int64(t1 - t0))
				}
			}
		}(i, d)
	}
	wg.Wait()
	in.settle()
	w.gorout = runtime.NumGoroutine()
	runtime.ReadMemStats(&w.mem1)
	w.cpu = cpuTime() - cpu0
	h1, m1 := framebuf.Stats()
	w.fbHits, w.fbMisses = h1-h0, m1-m0
	for _, d := range all {
		d.tr = nil
	}
	w.perNode = make(map[objmig.NodeID]objmig.Stats)
	for id, after := range in.statsPerNode() {
		d := after
		addStats(&d, before[id], -1)
		w.perNode[id] = d
		addStats(&w.stats, d, 1)
	}
	rates, p50s, tails := make([]float64, nslices), make([]float64, nslices), make([]float64, nslices)
	for s := range rates {
		var h hist
		for _, d := range in.drivers {
			h.merge(&d.slices[s])
		}
		rates[s] = float64(h.total) / slice.Seconds()
		p50s[s], tails[s] = h.quantile(0.50), h.quantile(tail)
	}
	for _, d := range in.drivers {
		w.ops += d.ops
		w.failed += d.failed
	}
	w.firstErr = errors.Join(errs...)
	w.opPerS, w.p50Ns, w.tailNs = secondBest(rates, true), secondBest(p50s, false), secondBest(tails, false)
	return w
}

func (in *instance) statsPerNode() map[objmig.NodeID]objmig.Stats {
	out := make(map[objmig.NodeID]objmig.Stats, len(in.nodes))
	for _, n := range in.nodes {
		out[n.ID()] = n.Stats()
	}
	return out
}

func (in *instance) statsSum() (sum objmig.Stats) {
	for _, n := range in.nodes {
		addStats(&sum, n.Stats(), 1)
	}
	return sum
}

// addStats adds sign×s to dst, field by field (every Stats field is an
// integer counter or gauge).
func addStats(dst *objmig.Stats, s objmig.Stats, sign int64) {
	dv, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(s)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() + sign*sv.Field(i).Int())
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only feeds the non-gating proc.cpu_us_per_op
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// secondBest returns the second-highest (or second-lowest) of the
// per-slice values. The disturbances of a shared sandbox are one-sided —
// for seconds at a time the machine runs 10-30 % slower, never faster —
// so the good end of the slices estimates what the program does
// undisturbed, and skipping the single best slice guards against a
// fluke. Measured on invoke-steady over ten runs, the quartile spread of
// op_per_s is 11 % for the median slice and 6 % for the second best.
func secondBest(v []float64, higher bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higher {
		return s[len(s)-2]
	}
	return s[1]
}

// sliceCount is how many slices a window of dur is cut into: 2 s
// slices, at least two.
func sliceCount(dur time.Duration) int {
	if n := int(dur / (2 * time.Second)); n > 2 {
		return n
	}
	return 2
}

// setup builds the workload once and reports how long that took:
// cluster boot, population, scatter and the fixed-count warm-up.
func setup(w *workload, seed int64) (*instance, time.Duration, uint64, error) {
	start := time.Now()
	in, err := w.build(w, seed)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("set up %s: %w", w.Name, err)
	}
	if err := in.warm(w.WarmOps); err != nil {
		in.close()
		return nil, 0, 0, fmt.Errorf("set up %s: %w", w.Name, err)
	}
	var digest uint64
	for _, d := range in.everyone() {
		digest = digest*31 + d.digest
	}
	return in, time.Since(start), digest, nil
}

// Run executes one workload and returns its metrics: the end-to-end
// set, or with opts.Trace the per-layer set.
func Run(opts Options) (Result, error) {
	w := workloadByName(opts.Workload)
	if w == nil {
		return Result{}, fmt.Errorf("unknown workload %q (have %v)", opts.Workload, WorkloadNames())
	}
	return run(w, opts)
}

func run(w *workload, opts Options) (Result, error) {
	if opts.Window <= 0 {
		return Result{}, fmt.Errorf("window must be positive, got %v", opts.Window)
	}
	repeats := setupRepeats
	if opts.Trace {
		repeats = 1 // a traced run reports no setup_s
	}
	var (
		in     *instance
		digest uint64
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if in != nil {
			in.close()
		}
		var took time.Duration
		var err error
		if in, took, digest, err = setup(w, opts.Seed); err != nil {
			return Result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer in.close()

	res := Result{Workload: w.Name, Digest: digest,
		About: fmt.Sprintf("closed loop, drivers: %d; tail p%g; slow path: %s", len(in.drivers), w.Tail*100, w.SlowPath)}
	var win *window
	if opts.Trace {
		half := opts.Window / 2
		plain := in.measure(half, w.Tail, false)
		win = in.measure(half, w.Tail, true)
		res.Attempted, res.Failed = plain.ops+win.ops, plain.failed+win.failed
		res.CheckErr = errors.Join(plain.firstErr, win.firstErr)
		layer, err := layerMetrics(in, plain, win)
		if err != nil {
			return Result{}, err
		}
		res.Metrics = layer
		lines := in.timelines()
		if len(lines) > 64 { // newest first; the rest only adds bulk to the file
			lines = lines[:64]
		}
		if res.TraceFile, err = writeTrace(opts.OutDir, w.Name, opts.Seed, win.tracers, win.perNode, lines); err != nil {
			return Result{}, fmt.Errorf("write trace: %w", err)
		}
	} else {
		win = in.measure(opts.Window, w.Tail, false)
		res.Attempted, res.Failed = win.ops, win.failed
		res.CheckErr = win.firstErr
		// Two collections: the first moves sync.Pool contents to the
		// victim cache, the second frees them, so pooled frames do not
		// count as live.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ops := float64(win.ops)
		res.Metrics = []Metric{
			{"op_per_s", win.opPerS, "1/s"},
			{"op_p50_us", win.p50Ns / 1e3, "us"},
			{"op_tail_us", win.tailNs / 1e3, "us"},
			{"allocs_per_op", float64(win.mem1.Mallocs-win.mem0.Mallocs) / ops, "count"},
			{"alloc_KiB_per_op", float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc) / ops / 1024, "KiB"},
			{"live_heap_MiB", float64(ms.HeapAlloc) / (1 << 20), "MiB"},
			{"setup_s", median(setups), "s"},
		}
	}
	total := in.statsSum()
	if err := in.check(total); err != nil {
		res.CheckErr = errors.Join(res.CheckErr, err)
	}
	if total.ObjectsHosted != int64(in.objects) {
		res.CheckErr = errors.Join(res.CheckErr,
			fmt.Errorf("nodes host %d objects, %d were created", total.ObjectsHosted, in.objects))
	}
	if aborts := total.StreamAborts + total.PauseLeasesExpired + total.StreamSessionsExpired; aborts != 0 {
		res.CheckErr = errors.Join(res.CheckErr, fmt.Errorf("%d migrations aborted or expired", aborts))
	}
	res.Correct = res.CheckErr == nil && res.Failed == 0
	return res, nil
}

// timelines merges every node's migration spans into per-migration
// timelines, newest first.
func (in *instance) timelines() []telemetry.Timeline {
	var spans []telemetry.Span
	for _, n := range in.nodes {
		spans = append(spans, n.TraceSpans()...)
	}
	return telemetry.Timelines(spans)
}

var bg = context.Background()
