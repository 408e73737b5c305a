package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestBucketOfRanges(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 26, HistBuckets - 1}, {1 << 40, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every non-saturating bucket's upper bound maps back into it.
	for b := 1; b < HistBuckets-1; b++ {
		if got := bucketOf(BucketUpper(b)); got != b {
			t.Errorf("bucketOf(BucketUpper(%d)) = %d", b, got)
		}
		if got := bucketOf(BucketUpper(b) + 1); got != b+1 {
			t.Errorf("bucketOf(BucketUpper(%d)+1) = %d, want %d", b, got, b+1)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	t.Parallel()
	var h Histogram
	// 90 fast observations, 10 slow ones: p50 lands in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7, upper 127
	}
	for i := 0; i < 10; i++ {
		h.Observe(10_000) // bucket 14, upper 16383
	}
	s := h.Snapshot()
	if s.Total != 100 {
		t.Fatalf("Total = %d, want 100", s.Total)
	}
	if s.Sum != 90*100+10*10_000 {
		t.Fatalf("Sum = %d", s.Sum)
	}
	if got := s.Quantile(0.5); got != 127 {
		t.Fatalf("p50 = %d, want 127", got)
	}
	if got := s.Quantile(0.99); got != 16383 {
		t.Fatalf("p99 = %d, want 16383", got)
	}
	if got := s.Quantile(0); got != 127 {
		t.Fatalf("p0 = %d, want 127", got)
	}
	if mean := s.Mean(); mean != 1090 {
		t.Fatalf("Mean = %v, want 1090", mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	t.Parallel()
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h1 := r.Histogram("h_us")
	if h2 := r.Histogram("h_us"); h1 != h2 {
		t.Fatal("same name, different histogram")
	}
	h1.Observe(9)
	hists := r.Snapshot()
	if len(hists) != 1 || hists[0].Name != "h_us" || hists[0].Snap.Total != 1 || hists[0].Snap.Sum != 9 {
		t.Fatalf("hists = %+v", hists)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	for _, name := range []string{"zz", "aa", "mm", "bb"} {
		r.Histogram(name).Observe(1)
	}
	hists := r.Snapshot()
	if len(hists) != 4 {
		t.Fatalf("snapshot holds %d histograms, want 4", len(hists))
	}
	for i := 1; i < len(hists); i++ {
		if hists[i-1].Name >= hists[i].Name {
			t.Fatalf("snapshot not sorted: %+v", hists)
		}
	}
}

// TestConcurrentRecording is the -race stress test: a histogram and
// the trace log hammered from many goroutines, with totals checked
// after the dust settles.
func TestConcurrentRecording(t *testing.T) {
	t.Parallel()
	const (
		workers = 16
		perG    = 2000
	)
	var (
		h  Histogram
		tl = NewTraceLog(128)
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(i % 1000))
				tl.Record(Span{Trace: uint64(w + 1), Phase: PhaseStream, Start: int64(i), End: int64(i + 1)})
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Total != workers*perG {
		t.Fatalf("histogram total = %d, want %d", s.Total, workers*perG)
	}
	if got := tl.Total(); got != workers*perG {
		t.Fatalf("trace log total = %d, want %d", got, workers*perG)
	}
	if got := len(tl.Spans()); got != 128 {
		t.Fatalf("ring holds %d spans, want its capacity 128", got)
	}
}

func TestTraceLogRingOrder(t *testing.T) {
	t.Parallel()
	l := NewTraceLog(4)
	for i := 1; i <= 6; i++ {
		l.Record(Span{Trace: 9, Phase: PhaseStream, Start: int64(i), End: int64(i)})
	}
	spans := l.Spans()
	if len(spans) != 4 {
		t.Fatalf("len = %d", len(spans))
	}
	for i, s := range spans {
		if want := int64(i + 3); s.Start != want {
			t.Fatalf("span %d start = %d, want %d (oldest-first after wrap)", i, s.Start, want)
		}
	}
}

func TestTimelines(t *testing.T) {
	t.Parallel()
	spans := []Span{
		{Trace: 2, Phase: PhaseCommit, Start: 50, End: 60},
		{Trace: 1, Phase: PhasePause, Start: 10, End: 20},
		{Trace: 2, Phase: PhasePause, Start: 30, End: 40},
		{Trace: 0, Phase: PhaseStream, Start: 5, End: 6}, // untraced: dropped
		{Trace: 1, Phase: PhaseStream, Start: 21, End: 25},
	}
	tls := Timelines(spans)
	if len(tls) != 2 {
		t.Fatalf("timelines = %d, want 2", len(tls))
	}
	// Newest first: trace 2 started at 30, trace 1 at 10.
	if tls[0].Trace != 2 || tls[1].Trace != 1 {
		t.Fatalf("order = %d, %d", tls[0].Trace, tls[1].Trace)
	}
	if tls[1].Spans[0].Phase != PhasePause || tls[1].Spans[1].Phase != PhaseStream {
		t.Fatalf("trace 1 spans out of order: %+v", tls[1].Spans)
	}
}

// TestPhaseStringsComplete mirrors the EventKind drift test: every
// declared phase must print a real name.
func TestPhaseStringsComplete(t *testing.T) {
	t.Parallel()
	for p := Phase(1); p < phaseEnd; p++ {
		if p.String() == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
	}
	if Phase(0).String() != "unknown" || phaseEnd.String() != "unknown" {
		t.Error("out-of-range phases must print unknown")
	}
}

// BenchmarkTelemetryRecord is the CI-enforced zero-alloc line: every
// recording path — histogram (value and since-t0 forms) and the trace
// ring — must stay at 0 allocs/op.
func BenchmarkTelemetryRecord(b *testing.B) {
	b.Run("Histogram", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i & 0xFFFF))
		}
	})
	b.Run("HistogramSince", func(b *testing.B) {
		var h Histogram
		t0 := time.Now()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveSince(t0)
		}
	})
	b.Run("Span", func(b *testing.B) {
		l := NewTraceLog(DefaultTraceSpans)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Record(Span{Trace: 1, Phase: PhaseStream, Start: int64(i), End: int64(i + 1), Bytes: 512})
		}
	})
}
