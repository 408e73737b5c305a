package objmig

import (
	"reflect"
	"sync/atomic"
)

// Stats is a snapshot of a node's runtime counters. All counters are
// cumulative since the node started. It is also the one declaration of
// every counter: the node's live counters are a Stats value (n.stats)
// bumped with sync/atomic, and (*Node).Stats, /metrics, /debug/vars and
// the benchmark all walk the fields by reflection — so every field is
// an int64, and adding a counter is one field here plus its call site.
type Stats struct {
	// InvocationsServed counts method executions on objects hosted
	// here (local and remote callers alike).
	InvocationsServed int64
	// RemoteCallsSent counts invocation requests this node sent to
	// other nodes (including redirect retries).
	RemoteCallsSent int64
	// MovesGranted / MovesStayed / MovesDenied classify move-requests
	// decided at this node (it hosted the object at decision time).
	MovesGranted int64
	MovesStayed  int64
	MovesDenied  int64
	// EndRequests counts end-requests processed here.
	EndRequests int64
	// MigrationsOut counts transfer batches coordinated by this node;
	// ObjectsMovedOut the objects they carried. A working set already
	// at its target stays put and is counted by neither (nor by
	// ObjectsInstalled); a stayed move counts in MovesStayed.
	MigrationsOut   int64
	ObjectsMovedOut int64
	// ObjectsInstalled counts objects that arrived here.
	ObjectsInstalled int64
	// ObjectsHosted is the number of live (non-forwarding) records.
	ObjectsHosted int64
	// AutopilotScans counts autopilot scan ticks; AutopilotMigrations
	// the group migrations it issued, AutopilotObjectsMoved the
	// objects those carried, and AutopilotDeferred the candidates a
	// cooldown, veto or failed transfer pushed back.
	AutopilotScans        int64
	AutopilotMigrations   int64
	AutopilotObjectsMoved int64
	AutopilotDeferred     int64
	// HomeUpdatesQueued counts per-origin advisories made after
	// migrations; HomeUpdateBatches the HomeUpdate RPCs actually sent,
	// one per advisory (retries not counted).
	HomeUpdatesQueued int64
	HomeUpdateBatches int64
	// StreamChunksOut / StreamBytesOut count the migration payload
	// frames this node shipped as a coordinator — every InstallReq
	// frame that carried snapshots, whether it was a small group's only
	// frame or one of many — and the snapshot bytes they carried;
	// StreamMaxChunkBytes is the largest single frame, the coordinator's
	// peak per-frame buffering. With chunking enabled it stays bounded
	// by MigrateConfig.ChunkBytes plus one snapshot.
	StreamChunksOut     int64
	StreamBytesOut      int64
	StreamMaxChunkBytes int64
	// StreamChunksIn / StreamBytesIn mirror them at the target: the
	// payload frames staged here and their snapshot bytes.
	// StreamSessionsOpened counts opening frames admitted — transfers
	// received, of any frame count; StreamSessionsExpired the staging
	// sessions discarded when the migration's lease ran out (an expiry
	// means a coordinator died or stalled mid-stream).
	StreamChunksIn        int64
	StreamBytesIn         int64
	StreamSessionsOpened  int64
	StreamSessionsExpired int64
	// StreamAborts counts staging sessions this node dropped because
	// the coordinator aborted or a frame failed to stage (unknown type,
	// corrupt state, a conflicting live object, a stranger in the
	// frame) — a health-engine signal: a rising abort rate inside a window marks
	// migrations going wrong faster than lease expiries would show.
	StreamAborts int64
	// PauseLeasesExpired counts pause leases that fired: migrations
	// whose coordinator neither committed nor aborted within the lease
	// while objects were paused here, resolved by this host.
	PauseLeasesExpired int64
	// PlacementScans counts placement-engine scans (origin
	// pre-placement passes, shed passes and autopilot ticks that
	// elected through the engine); PlacementScores the scoring runs
	// inside them, one per candidate closure with a non-empty pressure
	// vector; PlacementMigrations the group migrations the engine
	// issued, and PlacementObjectsMoved the objects those carried.
	PlacementScans        int64
	PlacementScores       int64
	PlacementMigrations   int64
	PlacementObjectsMoved int64
	// PlacementVetoes counts migrations this node refused as a target
	// because admitting them would push it past its capacity — the
	// overload veto's authoritative, target-side half.
	PlacementVetoes int64
	// PlacementReservations counts admissions that claimed (objects,
	// bytes) in the reservation ledger; PlacementSheds counts the group
	// migrations the proactive shedder issued to drain this node below
	// ShedRatio, and PlacementShedBytes the claimed bytes they carried.
	PlacementReservations int64
	PlacementSheds        int64
	PlacementShedBytes    int64
	// PlacementReservedBytes is the bytes claimed in the admission
	// ledger right now (read from the ledger, not counted);
	// PlacementViewAgeMaxUs the age of the oldest fresh peer sample in
	// the placement view at the last heartbeat. Both are gauges, 0
	// until placement runs.
	PlacementReservedBytes int64
	PlacementViewAgeMaxUs  int64
	// LoadGossipSent / LoadGossipReceived count load samples shipped
	// and folded in, heartbeats and HomeUpdate piggybacks alike.
	LoadGossipSent     int64
	LoadGossipReceived int64
	// JobsStarted counts migration jobs this node began executing;
	// JobsCompleted / JobsCancelled / JobsFailed classify how they
	// ended. JobWaves counts executed waves, JobMoves the group
	// migrations job waves drove to completion, JobObjectsMoved the
	// objects those carried, and JobRetargets the vetoed moves that
	// were re-pointed at a new receiver against the live view.
	JobsStarted     int64
	JobsCompleted   int64
	JobsCancelled   int64
	JobsFailed      int64
	JobWaves        int64
	JobMoves        int64
	JobObjectsMoved int64
	JobRetargets    int64
	// HintHits counts location chases resolved by the first remote hop
	// (the directory's hint was right); HintMisses chases that needed
	// more than one hop. Chases answered locally count as neither.
	HintHits   int64
	HintMisses int64
	// ChaseHops is the total remote hops spent chasing; ChaseP50Hops
	// and ChaseP99Hops are percentiles of the per-chase hop count
	// (bucketed, saturating at 8+). ChasesOverBudget counts chases that
	// used more than 4 remote hops — each also emitted an EventChase.
	ChaseHops        int64
	ChaseP50Hops     int64
	ChaseP99Hops     int64
	ChasesOverBudget int64
	// EventsDropped counts observer events shed by the bounded async
	// sink (Config.ObserverBuffer) because the observer could not keep
	// up. Always 0 with synchronous delivery.
	EventsDropped int64
	// TraceSpansEvicted counts migration trace spans the bounded
	// TraceLog ring overwrote — non-zero means the oldest timelines in
	// /debug/migrations are reconstructed from a truncated record.
	TraceSpansEvicted int64
	// HealthState is the node's current health classification (0
	// healthy, 1 degraded, 2 critical; see HealthConfig). Always 0
	// while the health engine is disabled. HealthTicks counts
	// evaluation ticks; HealthDegraded / HealthCritical count
	// transitions *into* each state; HealthVetoes counts inbound
	// migrations refused because this node was critical; HealthDumps
	// counts flight-recorder dumps (automatic and manual).
	HealthState    int64
	HealthTicks    int64
	HealthDegraded int64
	HealthCritical int64
	HealthVetoes   int64
	HealthDumps    int64
	// Location-directory footprint (see store.LocStats): explicit home
	// entries, forwarding pointers and cached hints, plus the
	// forwarding stubs retired so far. LocClosures and LocClosureRefs
	// always read 0: the directory keeps one location entry per object
	// and has no shared closure records. They stay because the
	// benchmark's probes still read them.
	LocHome         int64
	LocForwards     int64
	LocCache        int64
	LocClosures     int64
	LocClosureRefs  int64
	ForwardsRetired int64
}

// chaseHist buckets per-chase hop counts: index i counts chases of
// i+1 hops, the last bucket saturating (8+ hops).
type chaseHist [8]atomic.Int64

// percentile returns the smallest hop count h such that at least frac
// of all recorded chases used ≤ h hops (the top bucket reads as its
// lower bound).
func (h *chaseHist) percentile(frac float64) int64 {
	var counts [len(h)]int64
	var total int64
	for i := range h {
		counts[i] = h[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := int64(frac * float64(total))
	if want < 1 {
		want = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= want {
			return int64(i + 1)
		}
	}
	return int64(len(counts))
}

// eventsDropped reads the async event sink's shed counter (0 when
// delivery is synchronous).
func (n *Node) eventsDropped() int64 {
	if n.events == nil {
		return 0
	}
	return n.events.dropped.Load()
}

// maxInt64 raises the live counter *g to v if v is larger (CAS max
// for high-water gauges).
func maxInt64(g *int64, v int64) {
	for {
		cur := atomic.LoadInt64(g)
		if v <= cur || atomic.CompareAndSwapInt64(g, cur, v) {
			return
		}
	}
}

// Stats returns a snapshot of the node's counters: one atomic load per
// field of the live struct, then the fields that are derived at read
// time rather than counted. The hosted-object count walks the store
// shard by shard — no stop-the-world lock.
func (n *Node) Stats() Stats {
	var s Stats
	live, snap := reflect.ValueOf(&n.stats).Elem(), reflect.ValueOf(&s).Elem()
	for i := 0; i < live.NumField(); i++ {
		snap.Field(i).SetInt(atomic.LoadInt64(live.Field(i).Addr().Interface().(*int64)))
	}
	s.ObjectsHosted = int64(n.store.HostedCount())
	s.PlacementReservedBytes = n.resv.Reserved().Bytes
	s.ChaseP50Hops = n.chaseHist.percentile(0.50)
	s.ChaseP99Hops = n.chaseHist.percentile(0.99)
	s.EventsDropped = n.eventsDropped()
	s.TraceSpansEvicted = n.tel.traces.Evicted()
	loc := n.store.LocStats()
	s.LocHome = int64(loc.Home)
	s.LocForwards = int64(loc.Forwards)
	s.LocCache = int64(loc.Cache)
	s.ForwardsRetired = loc.Retired
	return s
}
