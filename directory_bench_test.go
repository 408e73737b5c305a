package objmig

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// directoryBenchResult is one measured directory population: the whole
// cluster's heap cost per object, the location-entry footprint at the
// origin, and the steady-state chase profile of a cold third node.
type directoryBenchResult struct {
	bytesPerObj   float64
	entriesPerObj float64
	p99Hops       int64
}

// runDirectoryBench builds a three-node cluster, populates n0 with
// closures×size objects in attachment closures, migrates every closure
// to n1 and half of them onwards to n2, waits for home updates and
// retirement to settle, and measures the result. The heap delta spans
// the entire population — object records, snapshots in flight, and all
// directory state — so bytes/obj is the realistic cost of holding one
// live object in the system, not just its location entry.
func runDirectoryBench(b *testing.B, closures, size int) directoryBenchResult {
	b.Helper()
	total := closures * size
	nodes := testCluster(b, 3, Config{Attach: AttachUnrestricted})
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]
	ctx := context.Background()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	anchors := make([]Ref, closures)
	members := make([]Ref, 0, total)
	for c := 0; c < closures; c++ {
		anchor := mustCreateB(b, n0)
		anchors[c] = anchor
		members = append(members, anchor)
		for m := 1; m < size; m++ {
			ref := mustCreateB(b, n0)
			members = append(members, ref)
			if err := n0.Attach(ctx, anchor, ref, NoAlliance); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Every closure leaves home, half of them twice: the second leg
	// exercises the foreign-host departure path (forwarding pointers,
	// asynchronous home update, stub retirement on the ack).
	for _, anchor := range anchors {
		if err := n0.Migrate(ctx, anchor, "n1"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < len(anchors)/2; i++ {
		if err := n0.Migrate(ctx, anchors[i], "n2"); err != nil {
			b.Fatal(err)
		}
	}
	// Settle: n1's forwarding state for the second leg retires once n0
	// acknowledges the home updates.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := n1.Stats()
		if st.LocForwards == 0 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("n1 forwarding state never retired: %d forwards", st.LocForwards)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, n := range nodes {
		n.CompactDirectory()
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	// Chase from the cold node: n2 hosts half the objects (no chase)
	// and knows nothing about the rest, so each miss resolves origin →
	// current host — the steady-state two-hop ceiling.
	sample := total
	if sample > 2048 {
		sample = 2048
	}
	stride := total / sample
	for i := 0; i < sample; i++ {
		if _, err := Call[int, int](ctx, n2, members[i*stride], "Add", 1); err != nil {
			b.Fatal(err)
		}
	}

	st0 := n0.Stats()
	entries := st0.LocHome + st0.LocForwards + st0.LocCache
	return directoryBenchResult{
		bytesPerObj:   float64(after.HeapAlloc-before.HeapAlloc) / float64(total),
		entriesPerObj: float64(entries) / float64(total),
		p99Hops:       n2.Stats().ChaseP99Hops,
	}
}

func mustCreateB(b *testing.B, n *Node) Ref {
	b.Helper()
	ref, err := n.Create("counter")
	if err != nil {
		b.Fatal(err)
	}
	return ref
}

// BenchmarkDirectoryScale is the CI-sized directory benchmark: 8192
// objects in 64-member closures across three in-memory nodes. The
// bytes/obj and p99-hops metrics are enforced against
// scripts/alloc-budget.txt by scripts/check-allocs.sh; the full-size
// run is BenchmarkDirectoryMillion.
func BenchmarkDirectoryScale(b *testing.B) {
	var res directoryBenchResult
	for i := 0; i < b.N; i++ {
		res = runDirectoryBench(b, 128, 64)
	}
	b.ReportMetric(res.bytesPerObj, "bytes/obj")
	b.ReportMetric(res.entriesPerObj*1000, "locent/kobj")
	b.ReportMetric(float64(res.p99Hops), "p99-hops")
}

// BenchmarkDirectoryMillion holds one million objects (15625 closures
// of 64) on a three-node in-memory cluster and reports the per-object
// budget. The benchmark fails if one live object costs the cluster more
// than 2200 heap bytes (BenchmarkDirectoryScale's budget in
// scripts/alloc-budget.txt) or if the steady-state p99 chase length
// exceeds two hops. Takes minutes on a small machine — skipped under
// -short (CI runs the scaled-down BenchmarkDirectoryScale instead).
func BenchmarkDirectoryMillion(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-object directory benchmark; run without -short")
	}
	const maxBytesPerObj = 2200
	var res directoryBenchResult
	for i := 0; i < b.N; i++ {
		res = runDirectoryBench(b, 15625, 64)
	}
	if res.p99Hops > 2 {
		b.Errorf("p99 chase hops = %d, want <= 2", res.p99Hops)
	}
	if res.bytesPerObj > maxBytesPerObj {
		b.Errorf("one live object costs %.0f heap bytes, want <= %d", res.bytesPerObj, maxBytesPerObj)
	}
	b.ReportMetric(res.bytesPerObj, "bytes/obj")
	b.ReportMetric(res.entriesPerObj*1000, "locent/kobj")
	b.ReportMetric(float64(res.p99Hops), "p99-hops")
}
