// Package telemetry is the runtime's zero-allocation latency core:
// striped fixed-bucket histograms, plus the bounded trace log migration
// tracing records spans into. (Counters and gauges are plain atomics
// on the root package's Stats struct, not here.)
//
// Everything on a recording path — Histogram.Observe, TraceLog.Record
// — is allocation-free and safe for unbounded concurrency; CI enforces
// the zero-alloc line with BenchmarkTelemetryRecord. Reading (Snapshot,
// Spans) allocates and takes whatever locks it needs; readers are
// scrapes and tests, not hot paths.
//
// Histograms stripe their cells so concurrent writers on different
// goroutines rarely share a cache line. The stripe is picked by
// hashing the goroutine's stack address — stateless, free, and stable
// for the duration of a call, which is all the distribution needs.
// Buckets are exponential (bucket b holds values v with
// bits.Len64(v) == b, i.e. [2^(b-1), 2^b)); quantiles report the
// bucket's upper bound, an overestimate of at most 2×.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// numStripes is the write-side fan-out of histograms. Must be a power
// of two.
const numStripes = 8

// stripeIdx picks this goroutine's stripe from its stack address.
// Goroutine stacks are at least page-aligned and page-sized, so the
// low 12 bits carry no information; the bits above them distinguish
// goroutines well enough to spread contention.
func stripeIdx() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe)) >> 12 & (numStripes - 1))
}

// pad is the tail padding that keeps one stripe's cell from sharing a
// cache line with its neighbour.
type pad [56]byte

// HistBuckets is the number of exponential histogram buckets. Bucket 0
// holds zero, bucket b (1 ≤ b < HistBuckets−1) holds values in
// [2^(b-1), 2^b), and the top bucket saturates — with microsecond
// observations that is everything above ~67 seconds.
const HistBuckets = 28

// bucketOf maps a value to its bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the largest value bucket b can hold (the value
// quantiles report).
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return (int64(1) << b) - 1
}

// Histogram is a striped fixed-bucket latency histogram. Observations
// are dimensionless int64s; the runtime records microseconds.
type Histogram struct {
	stripes [numStripes]histStripe
}

type histStripe struct {
	count [HistBuckets]atomic.Int64
	sum   atomic.Int64
	_     pad
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v int64) {
	s := &h.stripes[stripeIdx()]
	s.count[bucketOf(v)].Add(1)
	if v > 0 {
		s.sum.Add(v)
	}
}

// ObserveSince records the elapsed time since t0 in microseconds.
// Allocation-free.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Microseconds())
}

// HistSnapshot is a consistent-enough copy of a histogram: each
// stripe is read atomically, so totals can lag individual buckets by
// in-flight observations but never go negative.
type HistSnapshot struct {
	Counts [HistBuckets]int64
	Sum    int64
	Total  int64
}

// Snapshot folds the stripes into one summable view.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.count {
			c := st.count[b].Load()
			s.Counts[b] += c
			s.Total += c
		}
		s.Sum += st.sum.Load()
	}
	return s
}

// Quantile returns the value at or below which a q fraction of the
// observations fall, reported as the containing bucket's upper bound.
// q is clamped to [0, 1]; an empty histogram reports 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	want := int64(q * float64(s.Total))
	if want < 1 {
		want = 1
	}
	var cum int64
	for b, c := range s.Counts {
		cum += c
		if cum >= want {
			return BucketUpper(b)
		}
	}
	return BucketUpper(HistBuckets - 1)
}

// Delta returns the observations recorded between prev and s, where
// prev is an earlier snapshot of the same histogram. Each component is
// clamped at zero so a torn read (stripes loaded while writers run)
// can lag but never go negative. Pure value arithmetic: zero
// allocations, usable on a health-evaluation hot path.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	var d HistSnapshot
	for b := range s.Counts {
		if c := s.Counts[b] - prev.Counts[b]; c > 0 {
			d.Counts[b] = c
			d.Total += c
		}
	}
	if v := s.Sum - prev.Sum; v > 0 {
		d.Sum = v
	}
	return d
}

// Mean returns the arithmetic mean of the observations (exact, unlike
// the quantiles — the sum is tracked outside the buckets).
func (s HistSnapshot) Mean() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Total)
}

// Registry is a list of named histograms. Get-or-create takes the
// lock; the returned handles are stable, so hot paths resolve their
// histograms once and record through pure atomics.
type Registry struct {
	mu    sync.Mutex
	hists []namedHist
}

type namedHist struct {
	name string
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, nh := range r.hists {
		if nh.name == name {
			return nh.h
		}
	}
	h := &Histogram{}
	r.hists = append(r.hists, namedHist{name, h})
	return h
}

// HistPoint is one named histogram in a registry snapshot.
type HistPoint struct {
	Name string
	Snap HistSnapshot
}

// Snapshot exports every histogram, sorted by name.
func (r *Registry) Snapshot() []HistPoint {
	r.mu.Lock()
	hists := make([]HistPoint, len(r.hists))
	for i, nh := range r.hists {
		hists[i] = HistPoint{nh.name, nh.h.Snapshot()}
	}
	r.mu.Unlock()
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	return hists
}
