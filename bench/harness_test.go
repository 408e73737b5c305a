package bench

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// small returns a copy of the named workload shrunk to test size.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	s := *w
	s.Size = 32
	s.WarmOps = 300
	if name == "migrate-bulk" {
		s.Size, s.WarmOps = 4, 5
	}
	return &s
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	vals := make([]float64, 200_000)
	for i := range vals {
		// Log-uniform from 100 ns to 100 ms: every bucket width is used.
		v := int64(100 * math.Pow(10, 6*rng.Float64()))
		vals[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.10, 0.50, 0.90, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.quantile(q)
		if e := math.Abs(got-exact) / exact; e > 0.01 {
			t.Errorf("q%.3f: histogram %.0f, exact %.0f, error %.2f%%", q, got, exact, e*100)
		}
	}
}

func TestHistMissedOpsMissTheTail(t *testing.T) {
	var h hist
	for i := 0; i < 98; i++ {
		h.record(1000)
	}
	h.recordMissed()
	h.recordMissed()
	if p50 := h.quantile(0.5); p50 > 1100 {
		t.Errorf("p50 = %.0f, want about 1000", p50)
	}
	if p99 := h.quantile(0.99); p99 < 1e12 {
		t.Errorf("p99 = %.0f with 2 %% failed operations, want the top bucket", p99)
	}
}

func TestMedianAndSlices(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of 3 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of 4 = %v, want 3", got)
	}
	// Stalled slices must not move the reported rate or latency.
	if got := secondBest([]float64{100, 101, 60, 99, 70}, true); got != 100 {
		t.Errorf("second-best rate with stalled slices = %v, want 100", got)
	}
	if got := secondBest([]float64{10, 11, 30, 12, 25}, false); got != 11 {
		t.Errorf("second-best latency with stalled slices = %v, want 11", got)
	}
	for dur, want := range map[time.Duration]int{time.Second: 2, 10 * time.Second: 5, 20 * time.Second: 10} {
		if got := sliceCount(dur); got != want {
			t.Errorf("sliceCount(%v) = %d, want %d", dur, got, want)
		}
	}
}

// TestSameSeedSameOperations sets move-contention up twice per seed:
// the fixed-count warm-up must choose the same operations and the nodes
// must decide them the same way.
func TestSameSeedSameOperations(t *testing.T) {
	w := small(t, "move-contention")
	type outcome struct {
		digest                  uint64
		granted, stayed, denied int64
	}
	once := func(seed int64) outcome {
		in, _, digest, err := setup(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		s := in.statsSum()
		if err := in.check(s); err != nil {
			t.Error(err)
		}
		return outcome{digest, s.MovesGranted, s.MovesStayed, s.MovesDenied}
	}
	a, b, c := once(7), once(7), once(8)
	if a != b {
		t.Errorf("seed 7 twice: %+v then %+v", a, b)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 chose the same operations (digest %x)", a.digest)
	}
	if a.denied == 0 || a.granted == 0 || a.stayed == 0 {
		t.Errorf("warm-up missed an outcome: %+v", a)
	}
}

// TestChurnIsCountCoupled checks that the migrator runs once per
// churnEvery completed invokes, whatever the speed of either side.
func TestChurnIsCountCoupled(t *testing.T) {
	w := small(t, "invoke-churn")
	w.WarmOps = 1000
	in, _, _, err := setup(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	s := in.statsSum()
	scatter := int64(w.Size) // newPopulation migrates every closure once
	if got, want := s.MigrationsOut-scatter, int64(w.WarmOps/churnEvery); got != want {
		t.Errorf("%d migrations for %d invokes, want %d", got, w.WarmOps, want)
	}
	if err := in.check(s); err != nil {
		t.Error(err)
	}
}

// TestSmoke runs every workload for a second at test size and requires
// its output checks to pass.
func TestSmoke(t *testing.T) {
	for _, name := range WorkloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := run(small(t, name), Options{Seed: 5, Window: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%d of %d operations failed, checks: %v", res.Failed, res.Attempted, res.CheckErr)
			}
			if len(res.Metrics) != 7 {
				t.Errorf("got %d end-to-end metrics, want 7", len(res.Metrics))
			}
			for _, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, m.Value)
				}
			}
		})
	}
}

// TestTracerSelfTime checks the span bookkeeping: a child's time leaves
// its op's self time, and the trace file is valid JSON holding every
// span.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	tr.beginOp()
	tr.add(spanMoveRequest, outGranted, 10, 40)
	tr.add(spanCall, outLocal, 40, 60)
	tr.endOp(0, 100)
	tot := mergeTotals([]*tracer{tr})
	if op := tot[spanOp][outNone]; op.Count != 1 || op.TotalNs != 100 || op.Self != 50 {
		t.Errorf("op totals %+v, want 1 op of 100 ns with 50 ns self time", op)
	}
	if mr := tot[spanMoveRequest][outGranted]; mr.TotalNs != 30 || mr.Self != 30 {
		t.Errorf("move-request totals %+v, want 30 ns", mr)
	}
	path, err := writeTrace(t.TempDir(), "unit", 1, []*tracer{tr}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []struct {
			ID, Parent uint64
			Name       string
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(file.Spans) != 3 || file.Spans[0].Name != "op" || file.Spans[1].Parent != file.Spans[0].ID {
		t.Errorf("trace file spans %+v, want the op and its two children", file.Spans)
	}
}
