package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"objmig/internal/core"
	"objmig/internal/wire"
)

func oid(origin string, seq uint64) core.OID {
	return core.OID{Origin: core.NodeID(origin), Seq: seq}
}

func TestAddGetHosted(t *testing.T) {
	t.Parallel()
	s := New("n1")
	id := oid("n1", 1)
	rec := NewRecord(id, "t", &testState{})
	if err := s.Add(rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(id); !ok || got != rec {
		t.Fatal("Get lost the record")
	}
	// The hosted record is its own home knowledge.
	if at, ok := s.Home(id); !ok || at != "n1" {
		t.Fatalf("home = %v, %v", at, ok)
	}
	// A departed record leaves the table; holders see it gone.
	depart(t, s, id, 1, "n2")
	if _, ok := s.Get(id); ok {
		t.Fatal("Get returned a departed record")
	}
	if n := s.HostedCount(); n != 0 {
		t.Fatalf("HostedCount after depart = %d", n)
	}
	if st := status(rec); st != StatusGone {
		t.Fatalf("departed record status = %v", st)
	}
	if hint := s.Hint(id); hint != "n2" {
		t.Fatalf("hint after depart = %v", hint)
	}
}

// depart pauses id's record under token 1 and departs it towards to at
// departure generation gen through Store.Depart, the commit's call.
func depart(t *testing.T, s *Store, id core.OID, gen uint64, to core.NodeID) {
	t.Helper()
	rec, ok := s.Get(id)
	if !ok {
		t.Fatalf("%s not hosted", id)
	}
	if err := rec.Pause(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Depart([]core.OID{id}, []uint64{gen}, 1, to); len(got) != 1 {
		t.Fatalf("Depart(%s) departed %v", id, got)
	}
}

// status reads a record's lifecycle under its lock.
func status(rec *Record) Status {
	rec.Mu.Lock()
	defer rec.Mu.Unlock()
	return rec.Status
}

// TestDepartOnlyOwnPauses: the commit departs exactly the records its
// own token paused, in one batch across many shards; anything else is
// left hosted.
func TestDepartOnlyOwnPauses(t *testing.T) {
	t.Parallel()
	s := New("n1")
	ctx := context.Background()
	var ids []core.OID
	for i := 1; i <= 40; i++ {
		id := oid("n9", uint64(i))
		rec := NewRecord(id, "t", &testState{})
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
		if i%4 != 0 { // every fourth stays active
			token := uint64(7)
			if i%4 == 3 {
				token = 8 // another migration's pause
			}
			if err := rec.Pause(ctx, token); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	departed := s.Depart(ids, nil, 7, "n2")
	if len(departed) != 20 {
		t.Fatalf("departed %d records, want 20", len(departed))
	}
	for i, id := range ids {
		_, hosted := s.Get(id)
		_, fwd := s.Forward(id)
		if own := (i+1)%4 == 1 || (i+1)%4 == 2; hosted == own || fwd != own {
			t.Fatalf("%s: hosted=%v forward=%v after a depart of token 7", id, hosted, fwd)
		}
	}
	if n := s.HostedCount(); n != 20 {
		t.Fatalf("HostedCount = %d, want 20", n)
	}
}

// TestGetBatch: the shard-grouped batch lookup must agree with Get,
// align with its input, and report missing objects as nil.
func TestGetBatch(t *testing.T) {
	t.Parallel()
	s := New("n1")
	const n = 100 // spans many shards
	ids := make([]core.OID, 0, n+2)
	for i := 0; i < n; i++ {
		id := oid("n1", uint64(i+1))
		if err := s.Add(NewRecord(id, "t", &testState{})); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Interleave two objects the store has never seen.
	ids = append(ids, oid("ghost", 1))
	ids = append(ids[:50:50], append([]core.OID{oid("ghost", 2)}, ids[50:]...)...)

	got := s.GetBatch(ids)
	if len(got) != len(ids) {
		t.Fatalf("GetBatch returned %d records for %d ids", len(got), len(ids))
	}
	for i, id := range ids {
		want, _ := s.Get(id)
		if got[i] != want {
			t.Fatalf("GetBatch[%d] (%v) = %v, want %v", i, id, got[i], want)
		}
		if id.Origin == "ghost" && got[i] != nil {
			t.Fatalf("ghost id %v resolved to %v", id, got[i])
		}
	}
	if len(s.GetBatch(nil)) != 0 {
		t.Fatal("GetBatch(nil) not empty")
	}
}

func TestLookupSingleShard(t *testing.T) {
	t.Parallel()
	s := New("n1")
	id := oid("n1", 1)
	rec := NewRecord(id, "t", &testState{})
	if err := s.Add(rec); err != nil {
		t.Fatal(err)
	}
	if got, at := s.Lookup(id); got != rec || at != "n1" {
		t.Fatalf("Lookup hosted = %v, %v", got, at)
	}
	foreign := oid("n9", 7)
	if got, at := s.Lookup(foreign); got != nil || at != "n9" {
		t.Fatalf("Lookup foreign = %v, %v (want origin fallback)", got, at)
	}
	s.Learn(foreign, "n3", 0)
	if _, at := s.Lookup(foreign); at != "n3" {
		t.Fatalf("Lookup ignored learnt hint: %v", at)
	}
}

// TestShardDistribution: OIDs minted the way nodes mint them (one
// origin, sequential counters) must spread across many stripes, or the
// striping buys nothing.
func TestShardDistribution(t *testing.T) {
	t.Parallel()
	const n = 10000
	var hits [ShardCount]int
	for seq := uint64(1); seq <= n; seq++ {
		hits[ShardIndex(oid("node-0", seq))]++
	}
	used := 0
	for _, h := range hits {
		if h > 0 {
			used++
		}
	}
	if used != ShardCount {
		t.Fatalf("only %d/%d shards used", used, ShardCount)
	}
	// No stripe should hold more than 3x its fair share.
	fair := n / ShardCount
	for i, h := range hits {
		if h > 3*fair {
			t.Fatalf("shard %d holds %d of %d (fair share %d)", i, h, n, fair)
		}
	}
}

func TestInstallBatchReplacesOnlyStubsAndOwnPauses(t *testing.T) {
	t.Parallel()
	s := New("n1")
	ctx := context.Background()

	// A live record must veto the whole batch.
	live := NewRecord(oid("n2", 1), "t", &testState{})
	if err := s.Add(live); err != nil {
		t.Fatal(err)
	}
	in := NewRecord(oid("n2", 1), "t", &testState{})
	other := NewRecord(oid("n2", 2), "t", &testState{})
	err := s.InstallBatch([]*Record{other, in}, 7)
	if !isCode(err, wire.CodeDenied) {
		t.Fatalf("install over live record: %v", err)
	}
	if _, ok := s.Get(oid("n2", 2)); ok {
		t.Fatal("vetoed batch left a partial install")
	}
	if err := s.Installable(in.ID, 7); !isCode(err, wire.CodeDenied) {
		t.Fatalf("Installable over live record: %v", err)
	}

	// Paused by another migration: that migration ends by itself, so the
	// refusal says wait and retry, at staging and at commit alike.
	if err := live.Pause(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Installable(in.ID, 7); !isCode(err, wire.CodeMigrating) {
		t.Fatalf("Installable over another migration's pause: %v", err)
	}
	if err := s.InstallBatch([]*Record{other, in}, 7); !isCode(err, wire.CodeMigrating) {
		t.Fatalf("install over another migration's pause: %v", err)
	}
	if _, ok := s.Get(oid("n2", 2)); ok {
		t.Fatal("refused batch left a partial install")
	}
	live.Unpause(5)

	// Paused by the same token: replaceable; the old record is marked
	// gone towards here, which wakes its waiters.
	if err := live.Pause(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallBatch([]*Record{in, other}, 7); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(oid("n2", 1)); !ok || got != in {
		t.Fatal("install did not swap the record in")
	}
	if status(live) != StatusGone {
		t.Fatal("replaced record is not gone")
	}
	live.Mu.Lock()
	to := live.MovedTo
	live.Mu.Unlock()
	if to != "n1" {
		t.Fatalf("replaced record points at %v, want here", to)
	}
}

// TestStoreParallelStress hammers one store with the full hot-path mix
// — create, invoke (acquire/release), migrate out (pause/depart),
// forward-chase bookkeeping (learn/hint/invalidate) — across many
// goroutines and OIDs. Run under -race this is the sharding's
// correctness gate.
func TestStoreParallelStress(t *testing.T) {
	t.Parallel()
	const (
		workers = 16
		oids    = 256
		rounds  = 200
	)
	s := New("n1")
	ctx := context.Background()
	ids := make([]core.OID, oids)
	for i := range ids {
		ids[i] = oid("n1", uint64(i+1))
		if err := s.Add(NewRecord(ids[i], "t", &testState{})); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := ids[(w*rounds+r*7)%oids]
				switch w % 4 {
				case 0: // invoke
					if rec, ok := s.Get(id); ok {
						if err := rec.Acquire(ctx); err == nil {
							rec.Release()
						}
					}
				case 1: // migrate away and reinstall
					token := uint64(w*rounds + r + 1)
					if rec, ok := s.Get(id); ok {
						if err := rec.Pause(ctx, token); err == nil {
							s.Depart([]core.OID{id}, []uint64{token}, token, "n2")
							back := NewRecord(id, "t", &testState{})
							if err := s.InstallBatch([]*Record{back}, token); err != nil {
								t.Errorf("reinstall %s: %v", id, err)
							}
						}
					}
				case 2: // forward-chase bookkeeping
					at := core.NodeID(fmt.Sprintf("n%d", r%5+2))
					s.Learn(id, at, 0)
					_ = s.Hint(id)
					s.InvalidateAt(id, at)
				case 3: // table-wide ops against the hot path
					_ = s.HostedCount()
					_ = s.LocStats()
				}
			}
		}(w)
	}
	wg.Wait()
	// Every object must still resolve: hosted here or forwarded.
	for _, id := range ids {
		if _, ok := s.Get(id); ok {
			continue
		}
		if hint := s.Hint(id); hint == "" {
			t.Fatalf("object %s lost", id)
		}
	}
}

// TestCloseWhileBusy closes the store while creators and readers are
// mid-flight: no Add may land after Close returns, and lookups keep
// answering so in-flight chases fail gracefully instead of panicking.
func TestCloseWhileBusy(t *testing.T) {
	t.Parallel()
	s := New("n1")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var added sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				id := oid(fmt.Sprintf("n1-%d", w), seq)
				if err := s.Add(NewRecord(id, "t", &testState{})); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Add: %v", err)
					}
					return
				}
				added.Store(id, true)
				_, _ = s.Get(id)
				_ = s.Hint(id)
			}
		}(w)
	}
	s.Close()
	// The barrier guarantee: an Add started after Close returned must
	// fail, immediately and forever.
	if err := s.Add(NewRecord(oid("late", 1), "t", &testState{})); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
	close(stop)
	wg.Wait()
	// Everything that reported success is still findable.
	added.Range(func(k, _ interface{}) bool {
		if _, ok := s.Get(k.(core.OID)); !ok {
			t.Errorf("record %v vanished", k)
		}
		return true
	})
	if _, ok := s.Get(oid("late", 1)); ok {
		t.Fatal("failed Add left a record behind")
	}
}

// TestInstallRacingDepartKeepsHome: an object that departs again right
// after its batch is installed at its origin keeps the departure's home
// entry. The arrival's location writes happen under the table locks of
// the install, so they cannot land after the departure and overwrite
// its entry with a generation-0 self entry; at the origin, the home
// index never names the origin for an object it does not host.
func TestInstallRacingDepartKeepsHome(t *testing.T) {
	t.Parallel()
	const batch = 128
	for round := 0; round < 40; round++ {
		s := New("n1")
		recs := make([]*Record, batch)
		for i := range recs {
			recs[i] = NewRecord(oid("n1", uint64(i+1)), "t", &testState{})
		}
		// The last record of the batch departs as soon as it is
		// visible, while the install may still be writing the entries
		// of the records before it.
		last := recs[batch-1].ID
		done := make(chan error, 1)
		go func() {
			for {
				rec, ok := s.Get(last)
				if !ok {
					continue
				}
				if err := rec.Pause(context.Background(), 7); err != nil {
					done <- err
					return
				}
				if got := s.Depart([]core.OID{last}, []uint64{3}, 7, "n2"); len(got) != 1 {
					done <- fmt.Errorf("depart of %s: %v", last, got)
					return
				}
				done <- nil
				return
			}
		}()
		if err := s.InstallBatch(recs, 1); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if _, hosted := s.Get(last); hosted {
			t.Fatalf("round %d: %s still hosted after its departure", round, last)
		}
		if at, ok := s.Home(last); !ok || at != "n2" {
			t.Fatalf("round %d: home of departed %s = %q, %v; want n2 (the departure's entry)", round, last, at, ok)
		}
	}
}
