package framebuf

import (
	"sync"
	"testing"
)

func TestGetCapacity(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20, MaxPooled, MaxPooled + 1} {
		b := Get(n)
		if len(b) != 0 {
			t.Fatalf("Get(%d) len = %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("Get(%d) cap = %d", n, cap(b))
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	// Not parallel: the pool is global, and the test below wants its
	// own Put to be observable.
	b := Get(1000)
	b = append(b, make([]byte, 1000)...)
	Put(b)
	got := Get(1000)
	if cap(got) < 1000 {
		t.Fatalf("recycled cap = %d", cap(got))
	}
}

func TestPutOddCapacities(t *testing.T) {
	// Buffers whose capacity is not a class size must still satisfy
	// Get's invariant after recycling.
	Put(make([]byte, 0, 777))    // filed under 512
	Put(make([]byte, 0, 100))    // dropped (below the smallest class)
	Put(make([]byte, 0, 64<<20)) // dropped (beyond MaxPooled)
	for i := 0; i < 10; i++ {
		if b := Get(600); cap(b) < 600 {
			t.Fatalf("Get(600) cap = %d after odd Put", cap(b))
		}
	}
}

func TestConcurrentGetPut(t *testing.T) {
	t.Parallel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{64, 700, 5000, 70000, 1 << 20}
			for i := 0; i < 500; i++ {
				n := sizes[(g+i)%len(sizes)]
				b := Get(n)
				b = b[:n]
				b[0], b[n-1] = byte(g), byte(i)
				if b[0] != byte(g) || b[n-1] != byte(i) {
					t.Errorf("buffer corrupted")
					return
				}
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

func TestPutScribblesUnderPoison(t *testing.T) {
	if !poison {
		t.Skip("build with -tags objmig_poison")
	}
	// Pooled and dropped buffers alike, over their whole capacity.
	for _, n := range []int{100, 1000, MaxPooled + 1} {
		b := make([]byte, 1, n)
		Put(b)
		if b = b[:cap(b)]; b[0] != poisonByte || b[n-1] != poisonByte {
			t.Fatalf("Put of cap %d left [%#x … %#x], want %#x", n, b[0], b[n-1], poisonByte)
		}
	}
}
