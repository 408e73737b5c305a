package bench

import "math/bits"

// hist is a log-linear latency histogram over nanosecond values: exact
// below 128 ns, then 64 linear sub-buckets per power of two, so a
// bucket is at most 1/64 of its lower bound wide and a value read back
// from it is off by under 1 %. It is preallocated and records without
// allocating or storing samples; each driver owns one and they are
// merged after the window.
type hist struct {
	counts [histBuckets]int64
	total  int64
}

const (
	histSub     = 64
	histExact   = 2 * histSub
	histBuckets = histExact + 34*histSub // values up to 2^41 ns, about 36 minutes
)

func histIndex(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7 // v>>e is in [64,128)
	i := histExact + (e-1)*histSub + int(v>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns the bucket's lower bound and width.
func histBounds(i int) (lo, width int64) {
	if i < histExact {
		return int64(i), 1
	}
	e := (i-histExact)/histSub + 1
	m := int64((i-histExact)%histSub + histSub)
	return m << uint(e), 1 << uint(e)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.total++
}

// recordMissed files an operation that failed: it has no latency, so it
// lands in the top bucket and misses every percentile.
func (h *hist) recordMissed() {
	h.counts[histBuckets-1]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return float64(lo) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo + width)
}
