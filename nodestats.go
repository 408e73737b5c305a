package objmig

import "sync/atomic"

// Stats is a snapshot of a node's runtime counters. All counters are
// cumulative since the node started.
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
	// ObjectsMovedOut the objects they carried.
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
	// HomeUpdatesQueued counts per-origin advisories handed to the
	// home-update batcher; HomeUpdateBatches the coalesced RPCs it
	// actually sent. Queued/Batches is the coalescing ratio.
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
	// sessions the TTL janitor discarded (an expiry means a coordinator
	// died or stalled mid-stream).
	StreamChunksIn        int64
	StreamBytesIn         int64
	StreamSessionsOpened  int64
	StreamSessionsExpired int64
	// StreamAborts counts staging sessions this node dropped because
	// the coordinator aborted or a frame failed to stage (unknown type,
	// corrupt state, a conflicting live object, a stranger in the
	// frame) — a health-engine signal: a rising abort rate inside a window marks
	// migrations going wrong faster than the TTL janitor would show.
	StreamAborts int64
	// PauseLeasesExpired counts pause leases that fired: migrations
	// whose coordinator neither committed nor aborted within the lease,
	// auto-resumed by this host.
	PauseLeasesExpired int64
	// PlacementScans counts placement-engine scans (origin
	// pre-placement passes plus autopilot ticks that elected through
	// the engine); PlacementMigrations the group migrations the engine
	// issued, and PlacementObjectsMoved the objects those carried.
	PlacementScans        int64
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
	// exceeded DirectoryConfig.ChaseHopBudget — each also emitted an
	// EventChase.
	ChaseHops        int64
	ChaseP50Hops     int
	ChaseP99Hops     int
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
	// entries, forwarding pointers, cached hints, closure records and
	// their member references, plus the forwarding stubs retired so far.
	LocHome         int
	LocForwards     int
	LocCache        int
	LocClosures     int
	LocClosureRefs  int
	ForwardsRetired int64
}

// nodeStats is the internal atomic counterpart of Stats.
type nodeStats struct {
	invocationsServed atomic.Int64
	remoteCallsSent   atomic.Int64
	movesGranted      atomic.Int64
	movesStayed       atomic.Int64
	movesDenied       atomic.Int64
	endRequests       atomic.Int64
	migrationsOut     atomic.Int64
	objectsMovedOut   atomic.Int64
	objectsInstalled  atomic.Int64

	autopilotScans        atomic.Int64
	autopilotMigrations   atomic.Int64
	autopilotObjectsMoved atomic.Int64
	autopilotDeferred     atomic.Int64
	homeUpdatesQueued     atomic.Int64
	homeUpdateBatches     atomic.Int64

	streamChunksOut       atomic.Int64
	streamBytesOut        atomic.Int64
	streamMaxChunkBytes   atomic.Int64
	streamChunksIn        atomic.Int64
	streamBytesIn         atomic.Int64
	streamSessionsOpened  atomic.Int64
	streamSessionsExpired atomic.Int64
	streamAborts          atomic.Int64
	pauseLeasesExpired    atomic.Int64

	placementScans        atomic.Int64
	placementMigrations   atomic.Int64
	placementObjectsMoved atomic.Int64
	placementVetoes       atomic.Int64
	placementReservations atomic.Int64
	placementSheds        atomic.Int64
	placementShedBytes    atomic.Int64
	loadGossipSent        atomic.Int64
	loadGossipReceived    atomic.Int64

	jobsStarted     atomic.Int64
	jobsCompleted   atomic.Int64
	jobsCancelled   atomic.Int64
	jobsFailed      atomic.Int64
	jobWaves        atomic.Int64
	jobMoves        atomic.Int64
	jobObjectsMoved atomic.Int64
	jobRetargets    atomic.Int64

	healthTicks    atomic.Int64
	healthDegraded atomic.Int64
	healthCritical atomic.Int64
	healthVetoes   atomic.Int64
	healthDumps    atomic.Int64

	hintHits         atomic.Int64
	hintMisses       atomic.Int64
	chaseHops        atomic.Int64
	chasesOverBudget atomic.Int64
	// chaseHist buckets per-chase hop counts: index i counts chases of
	// i+1 hops, the last bucket saturating (8+ hops).
	chaseHist [8]atomic.Int64
}

// chasePercentile returns the smallest hop count h such that at least
// frac of all recorded chases used ≤ h hops (from the saturating
// histogram; the top bucket reads as its lower bound).
func (s *nodeStats) chasePercentile(frac float64) int {
	var counts [8]int64
	var total int64
	for i := range s.chaseHist {
		counts[i] = s.chaseHist[i].Load()
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
			return i + 1
		}
	}
	return len(counts)
}

// eventsDropped reads the async event sink's shed counter (0 when
// delivery is synchronous).
func (n *Node) eventsDropped() int64 {
	if n.events == nil {
		return 0
	}
	return n.events.dropped.Load()
}

// maxInt64 raises g to v if v is larger (CAS max for gauge counters).
func maxInt64(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Stats returns a snapshot of the node's counters. The hosted-object
// count walks the store shard by shard — no stop-the-world lock.
func (n *Node) Stats() Stats {
	hosted := int64(n.store.HostedCount())
	loc := n.store.LocStats()
	return Stats{
		InvocationsServed: n.stats.invocationsServed.Load(),
		RemoteCallsSent:   n.stats.remoteCallsSent.Load(),
		MovesGranted:      n.stats.movesGranted.Load(),
		MovesStayed:       n.stats.movesStayed.Load(),
		MovesDenied:       n.stats.movesDenied.Load(),
		EndRequests:       n.stats.endRequests.Load(),
		MigrationsOut:     n.stats.migrationsOut.Load(),
		ObjectsMovedOut:   n.stats.objectsMovedOut.Load(),
		ObjectsInstalled:  n.stats.objectsInstalled.Load(),
		ObjectsHosted:     hosted,

		AutopilotScans:        n.stats.autopilotScans.Load(),
		AutopilotMigrations:   n.stats.autopilotMigrations.Load(),
		AutopilotObjectsMoved: n.stats.autopilotObjectsMoved.Load(),
		AutopilotDeferred:     n.stats.autopilotDeferred.Load(),
		HomeUpdatesQueued:     n.stats.homeUpdatesQueued.Load(),
		HomeUpdateBatches:     n.stats.homeUpdateBatches.Load(),

		StreamChunksOut:       n.stats.streamChunksOut.Load(),
		StreamBytesOut:        n.stats.streamBytesOut.Load(),
		StreamMaxChunkBytes:   n.stats.streamMaxChunkBytes.Load(),
		StreamChunksIn:        n.stats.streamChunksIn.Load(),
		StreamBytesIn:         n.stats.streamBytesIn.Load(),
		StreamSessionsOpened:  n.stats.streamSessionsOpened.Load(),
		StreamSessionsExpired: n.stats.streamSessionsExpired.Load(),
		StreamAborts:          n.stats.streamAborts.Load(),
		PauseLeasesExpired:    n.stats.pauseLeasesExpired.Load(),

		PlacementScans:        n.stats.placementScans.Load(),
		PlacementMigrations:   n.stats.placementMigrations.Load(),
		PlacementObjectsMoved: n.stats.placementObjectsMoved.Load(),
		PlacementVetoes:       n.stats.placementVetoes.Load(),
		PlacementReservations: n.stats.placementReservations.Load(),
		PlacementSheds:        n.stats.placementSheds.Load(),
		PlacementShedBytes:    n.stats.placementShedBytes.Load(),
		LoadGossipSent:        n.stats.loadGossipSent.Load(),
		LoadGossipReceived:    n.stats.loadGossipReceived.Load(),

		JobsStarted:     n.stats.jobsStarted.Load(),
		JobsCompleted:   n.stats.jobsCompleted.Load(),
		JobsCancelled:   n.stats.jobsCancelled.Load(),
		JobsFailed:      n.stats.jobsFailed.Load(),
		JobWaves:        n.stats.jobWaves.Load(),
		JobMoves:        n.stats.jobMoves.Load(),
		JobObjectsMoved: n.stats.jobObjectsMoved.Load(),
		JobRetargets:    n.stats.jobRetargets.Load(),

		HintHits:         n.stats.hintHits.Load(),
		HintMisses:       n.stats.hintMisses.Load(),
		ChaseHops:        n.stats.chaseHops.Load(),
		ChaseP50Hops:     n.stats.chasePercentile(0.50),
		ChaseP99Hops:     n.stats.chasePercentile(0.99),
		ChasesOverBudget: n.stats.chasesOverBudget.Load(),

		EventsDropped:     n.eventsDropped(),
		TraceSpansEvicted: n.tel.traces.Evicted(),

		HealthState:    int64(n.healthState.Load()),
		HealthTicks:    n.stats.healthTicks.Load(),
		HealthDegraded: n.stats.healthDegraded.Load(),
		HealthCritical: n.stats.healthCritical.Load(),
		HealthVetoes:   n.stats.healthVetoes.Load(),
		HealthDumps:    n.stats.healthDumps.Load(),

		LocHome:         loc.Home,
		LocForwards:     loc.Forwards,
		LocCache:        loc.Cache,
		LocClosures:     loc.Closures,
		LocClosureRefs:  loc.ClosureRefs,
		ForwardsRetired: loc.Retired,
	}
}
