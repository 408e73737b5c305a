// Package framebuf recycles wire-frame buffers across the rpc layer
// and the transports. Every request and response a node sends or
// receives passes through exactly one of these buffers: the rpc layer
// encodes messages straight into a pooled frame (header first, body
// appended by wire.MarshalAppend) and recycles the frame once the
// transport has taken it; the transports draw receive buffers from the
// same pool, and the rpc read loop recycles them after dispatch. The
// result is that steady-state traffic — including a streamed group
// migration's InstallReq frames — allocates O(live frames), not
// O(frames sent).
//
// # Ownership rules
//
// Get hands out a buffer owned exclusively by the caller. Put
// transfers ownership back to the pool; the caller must not touch the
// slice (or any alias of it) afterwards. Whoever consumes a frame must
// therefore fully decode it — wire.Unmarshal copies every variable-
// length field out of the input for exactly this reason — or finish
// with what it read in place (wire.UnmarshalView) before calling Put.
// Losing a frame (returning without Put) is always safe: the garbage
// collector reclaims it and the pool just misses one reuse. Built with
// -tags objmig_poison, Put scribbles over every buffer handed to it, so
// a test that reads a frame after its Put reads garbage.
package framebuf

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 512 B (smaller than any control
// frame worth pooling) to 4 MiB (comfortably above the default
// migration chunk plus one oversized object). Frames beyond the top
// class — monolithic migrations with chunking disabled — are allocated
// fresh and dropped on Put rather than pinning tens of megabytes in
// the pool.
const (
	minShift   = 9
	maxShift   = 22
	numClasses = maxShift - minShift + 1

	// MaxPooled is the largest buffer capacity the pool retains.
	MaxPooled = 1 << maxShift
)

// pools[c] holds buffers with cap >= 1<<(minShift+c). Entries are
// *[]byte — a pointer fits the interface word, so pooling it never
// allocates — and the pointed-to slice headers are themselves recycled
// through headerPool, making a steady-state Get/Put cycle completely
// allocation-free.
var pools [numClasses]sync.Pool

var headerPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// hits counts Gets served from the pool; misses counts Gets that had
// to allocate fresh (a cold pool, or a frame beyond MaxPooled). The
// ratio is the pool's effectiveness, exported by the telemetry scrape.
var hits, misses atomic.Int64

// Stats returns the pool's lifetime hit/miss counts.
func Stats() (h, m int64) { return hits.Load(), misses.Load() }

// classFor returns the smallest class whose buffers hold n bytes, or
// -1 when n exceeds MaxPooled.
func classFor(n int) int {
	size := 1 << minShift
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// Get returns a zero-length buffer with capacity >= n, drawn from the
// pool when a suitable class has one. Append to it (or reslice with
// b[:n]) and hand it back with Put when done.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		misses.Add(1)
		return make([]byte, 0, n)
	}
	if p, _ := pools[c].Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		headerPool.Put(p)
		hits.Add(1)
		return b[:0]
	}
	misses.Add(1)
	return make([]byte, 0, 1<<(minShift+c))
}

// Put recycles a buffer obtained from Get — or any other buffer; the
// pool files it under the largest class its capacity satisfies.
// Buffers smaller than the smallest class or larger than MaxPooled are
// dropped. The caller must not use b (or any alias) after Put.
func Put(b []byte) {
	if poison {
		scribble(b[:cap(b)])
	}
	cp := cap(b)
	if cp < 1<<minShift || cp > MaxPooled {
		return
	}
	// Largest class with size <= cap, so Get's invariant (popped
	// buffers hold at least the class size) is preserved.
	cls := 0
	for size := 1 << (minShift + 1); cls < numClasses-1 && size <= cp; size <<= 1 {
		cls++
	}
	p := headerPool.Get().(*[]byte)
	*p = b[:0]
	pools[cls].Put(p)
}

// poisonByte is what a poisoned Put writes: 0xA5 sets every varint's
// continuation bit, so a body read after its frame was recycled fails
// to decode rather than decoding to plausible values.
const poisonByte = 0xA5

func scribble(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
