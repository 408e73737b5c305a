package objmig

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/affinity"
	"objmig/internal/core"
	"objmig/internal/placement"
	"objmig/internal/rpc"
	"objmig/internal/store"
	"objmig/internal/telemetry"
	"objmig/internal/transport"
	"objmig/internal/wire"
)

// Cluster is the communication fabric nodes attach to. Create one
// in-memory cluster per test or example, or a TCP cluster for real
// deployments.
type Cluster struct {
	tr  transport.Transport
	mem *transport.Network
}

// NewLocalCluster returns an in-process fabric. Nodes on it are
// addressed by their NodeID; no explicit peer addresses are needed.
func NewLocalCluster() *Cluster {
	n := transport.NewNetwork()
	return &Cluster{tr: n.Transport(), mem: n}
}

// SetLatency injects a per-frame delivery delay on a local cluster
// (no-op on TCP clusters), for observing migration behaviour on a
// realistic network.
func (c *Cluster) SetLatency(d time.Duration) {
	if c.mem != nil {
		c.mem.SetLatency(d)
	}
}

// NewTCPCluster returns a TCP fabric. Nodes must be given listen
// addresses and an address book (Config.Peers / Node.AddPeer).
func NewTCPCluster() *Cluster {
	return &Cluster{tr: transport.TCP{}}
}

// Config configures a node.
type Config struct {
	// ID is the node's identity. Required, unique per cluster.
	ID NodeID
	// Cluster is the fabric to attach to. Required.
	Cluster *Cluster
	// ListenAddr is where the node listens. Defaults to the NodeID on
	// local clusters and 127.0.0.1:0 on TCP clusters.
	ListenAddr string
	// Policy is the node's move-policy. Defaults to the paper's
	// recommendation, transient placement.
	Policy PolicyKind
	// Attach is the attachment-transitivity regime. Defaults to the
	// paper's recommendation, A-transitive attachment.
	Attach AttachMode
	// Peers maps node IDs to dial addresses (needed on TCP clusters;
	// local clusters address peers by ID automatically).
	Peers map[NodeID]string
	// Migrate tunes the streaming group-migration transfer (chunk size,
	// lease). The zero value selects the documented defaults; see
	// MigrateConfig.
	Migrate MigrateConfig
	// Capacity is the node's advertised object capacity, gossiped with
	// its load samples and enforced by the placement admission veto: a
	// migration that would push the hosted-object count past
	// Capacity×OverloadRatio is refused while placement is enabled.
	// 0 means uncapped. Explicit application primitives are subject to
	// the veto too — back-pressure is only useful if it holds.
	Capacity int64
	// CapacityBytes is the node's advertised resident-byte capacity,
	// the byte twin of Capacity: admission and scoring weigh a
	// candidate by the *worse* of its object-count and byte
	// utilisation, so one 1 GiB object no longer costs the same as one
	// 1 KiB object. 0 means uncapped in the byte dimension.
	CapacityBytes int64
	// Observer, when non-nil, receives runtime events (invocations,
	// move decisions, migrations, ...) synchronously. Observers must
	// be fast and must not call back into the node.
	Observer Observer
	// ObserverBuffer switches event delivery to a bounded asynchronous
	// queue of this many events, drained by one background goroutine:
	// the hot path never blocks on a slow observer. When the queue is
	// full the event is dropped and Stats.EventsDropped counts it —
	// backpressure by shedding, never by stalling. 0 (the default)
	// keeps the synchronous delivery.
	ObserverBuffer int
}

// Node hosts distributed objects and executes the migration policies at
// the current location of each object (paper Fig. 3).
//
// The node itself holds no object-table lock: records and location
// state live in the lock-striped internal/store, so hot-path lookups
// contend only on the addressed object's shard. The remaining node
// state is either immutable after construction, atomic (ID counters,
// the closed flag), or configuration guarded by cfgMu (registered
// types, the peer address book).
type Node struct {
	// stats is the live counter set, bumped with sync/atomic and read
	// by Stats(). It is the first field so its int64s stay 64-bit
	// aligned on 32-bit targets.
	stats     Stats
	chaseHist chaseHist

	id         NodeID
	policy     core.MovePolicy
	attachMode core.AttachMode
	migrate    MigrateConfig
	observer   Observer
	events     *eventSink // non-nil when Config.ObserverBuffer > 0

	server *rpc.Server
	pool   *rpc.Pool
	store  *store.Store

	// refused holds the (value layout, method) pairs a host refused
	// (see invoke); refusedMu serialises its copy-on-write additions.
	refusedMu sync.Mutex
	refused   atomic.Pointer[map[layoutKey]bool]

	// xfers holds this node's one record per migration (see xfer);
	// xferIdle is signalled, under xferMu, when an install in one ends.
	xferMu   sync.Mutex
	xferIdle sync.Cond
	xfers    map[sessionKey]*xferSlot

	aff *affinity.Tracker
	// apMu guards the optimiser daemons (autopilot, placement, health)
	// and the affinity tracker's user count — the first two daemons
	// feed on the tracker, so it stays enabled while either runs.
	apMu     sync.Mutex
	ap       *autopilot
	pl       *placementDaemon
	hl       *healthDaemon
	affUsers int

	// lastDump holds the most recent automatic flight-recorder dump
	// (serialised JSON), frozen at the moment of an upward health
	// transition.
	lastDump atomic.Pointer[[]byte]

	capacity int64
	capBytes int64
	// resv is the admission reservation ledger: claims made when an
	// install opens, released when its record's session ends (close,
	// abort or expiry). Always non-nil; it only accumulates claims while
	// placement is enabled on a capped node.
	resv     *placement.Ledger
	loadSeq  atomic.Uint64                 // load-sample ordering (see wire.NodeLoad.Seq)
	lastLoad atomic.Pointer[wire.NodeLoad] // latest self-sample, for piggybacks

	cfgMu sync.RWMutex
	types map[string]objectType
	peers map[NodeID]string

	// jobMu guards the migration-job registry (see jobs.go); jobSeq
	// mints job IDs. draining is set while a drain job executes here:
	// inbound migrations are refused at admission so the node empties
	// instead of refilling (see admitAndReserve).
	jobMu    sync.Mutex
	jobTable map[uint64]*Job
	jobSeq   atomic.Uint64
	draining atomic.Bool

	seq       atomic.Uint64 // object IDs minted here
	block     atomic.Uint64 // move-block IDs
	token     atomic.Uint64 // migration tokens (low half; see nextToken)
	traceSeq  atomic.Uint64 // migration TraceIDs (low half; see nextTrace)
	tokenBase uint64        // node-identity half of migration tokens
	allSeq    atomic.Uint32 // alliance IDs
	closed    atomic.Bool

	tel *nodeTelemetry

	bgMu      sync.Mutex     // orders bg.Add and adv.Add before Close's waits
	bgClosed  bool           // Close is waiting on bg: spawn starts nothing more
	bg        sync.WaitGroup // background work: retries, reinstantiation, jobs
	advClosed bool           // Close is waiting on adv: advise sends nothing more
	adv       sync.WaitGroup // origin advisories in flight (see advise)
}

// NewNode creates and starts a node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("objmig: Config.ID is required")
	}
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("objmig: Config.Cluster is required")
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyPlacement
	}
	if !cfg.Policy.Valid() {
		return nil, fmt.Errorf("objmig: invalid policy %d", cfg.Policy)
	}
	if cfg.Attach == 0 {
		cfg.Attach = AttachATransitive
	}
	if !cfg.Attach.Valid() {
		return nil, fmt.Errorf("objmig: invalid attach mode %d", cfg.Attach)
	}
	listen := cfg.ListenAddr
	if listen == "" {
		if cfg.Cluster.mem != nil {
			listen = string(cfg.ID)
		} else {
			listen = "127.0.0.1:0"
		}
	}
	l, err := cfg.Cluster.tr.Listen(listen)
	if err != nil {
		return nil, fmt.Errorf("objmig: listen: %w", err)
	}
	n := &Node{
		id:         cfg.ID,
		policy:     core.PolicyFor(cfg.Policy),
		attachMode: cfg.Attach,
		migrate:    cfg.Migrate.withDefaults(),
		capacity:   cfg.Capacity,
		capBytes:   cfg.CapacityBytes,
		resv:       placement.NewLedger(),
		observer:   cfg.Observer,
		pool:       rpc.NewPool(cfg.Cluster.tr),
		store:      store.New(cfg.ID),
		aff:        affinity.New(cfg.ID),
		types:      make(map[string]objectType),
		peers:      make(map[NodeID]string),
		xfers:      make(map[sessionKey]*xferSlot),
		jobTable:   make(map[uint64]*Job),
		tel:        newNodeTelemetry(),
	}
	if cfg.Observer != nil && cfg.ObserverBuffer > 0 {
		n.events = newEventSink(cfg.Observer, cfg.ObserverBuffer)
	}
	for id, addr := range cfg.Peers {
		n.peers[id] = addr
	}
	n.xferIdle.L = &n.xferMu
	h := fnv.New32a()
	_, _ = h.Write([]byte(n.id))
	n.tokenBase = uint64(h.Sum32()) << 32
	n.server = rpc.Serve(l, n.handle)
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// Addr returns the node's listen address (give it to peers on TCP
// clusters).
func (n *Node) Addr() string { return n.server.Addr() }

// Policy returns the node's move-policy kind.
func (n *Node) Policy() PolicyKind { return n.policy.Kind() }

// AttachPolicy returns the node's attachment regime.
func (n *Node) AttachPolicy() AttachMode { return n.attachMode }

// AddPeer teaches the node how to reach another node.
func (n *Node) AddPeer(id NodeID, addr string) {
	n.cfgMu.Lock()
	defer n.cfgMu.Unlock()
	n.peers[id] = addr
}

// addrOf resolves a node ID to a dial address. On local clusters the
// ID is the address.
func (n *Node) addrOf(id NodeID) string {
	n.cfgMu.RLock()
	defer n.cfgMu.RUnlock()
	if addr, ok := n.peers[id]; ok {
		return addr
	}
	return string(id)
}

// RegisterType makes the node able to host objects of the type. All
// nodes that may receive migrating instances must register the type.
func (n *Node) RegisterType(t interface{ Name() string }) error {
	ot, ok := t.(objectType)
	if !ok {
		return fmt.Errorf("objmig: %T is not an object type (use NewType)", t)
	}
	n.cfgMu.Lock()
	defer n.cfgMu.Unlock()
	if _, dup := n.types[ot.Name()]; dup {
		return fmt.Errorf("objmig: type %q registered twice", ot.Name())
	}
	n.types[ot.Name()] = ot
	return nil
}

// typeByName looks a registered type up.
func (n *Node) typeByName(name string) (objectType, bool) {
	n.cfgMu.RLock()
	defer n.cfgMu.RUnlock()
	t, ok := n.types[name]
	return t, ok
}

// Create instantiates a fresh object of the named type on this node and
// returns its reference.
func (n *Node) Create(typeName string) (Ref, error) {
	t, ok := n.typeByName(typeName)
	if !ok {
		return Ref{}, fmt.Errorf("%w: %q", ErrUnknownType, typeName)
	}
	id := core.OID{Origin: n.id, Seq: n.seq.Add(1)}
	rec := store.NewRecord(id, t.Name(), t.newInstance())
	if err := n.store.Add(rec); err != nil {
		if errors.Is(err, store.ErrClosed) {
			return Ref{}, ErrClosed
		}
		return Ref{}, err
	}
	return Ref{OID: id}, nil
}

// NewAlliance mints a cluster-unique alliance identifier: the high 32
// bits identify the creating node, the low 32 bits count locally.
func (n *Node) NewAlliance() AllianceID {
	h := fnv.New32a()
	_, _ = h.Write([]byte(n.id))
	return AllianceID(uint64(h.Sum32())<<32 | uint64(n.allSeq.Add(1)))
}

// nextBlock mints a node-unique move-block ID.
func (n *Node) nextBlock() core.BlockID {
	return core.BlockID(n.block.Add(1))
}

// nextToken mints a migration token that is unique across the cluster,
// not just per coordinator: the high 32 bits identify this node (same
// scheme as NewAlliance), the low 32 bits count locally. Pause,
// commit, abort and install all match records by bare token value, so
// two coordinators concurrently migrating overlapping sets must never
// mint the same number — a straggling abort from one would otherwise
// unpause objects the other had just paused under the colliding token,
// resuming a source whose snapshot is mid-install and duplicating the
// object. Residual risk, as with NewAlliance: two node IDs may hash to
// the same 32 bits, in which case the colliding pair additionally
// needs aligned counters and an overlapping migration on a shared host
// to misfire; deployments naming thousands of nodes should derive IDs
// that hash distinctly (or carry the coordinator ID in the record, the
// full fix).
func (n *Node) nextToken() uint64 {
	return n.tokenBase | (n.token.Add(1) & 0xFFFFFFFF)
}

// Close shuts the node down: stops the autopilot, waits for the origin
// advisories in flight, stops serving, closes client connections and
// waits for background work. The autopilot goes first — its in-flight
// scan is cancelled — and the advisories are waited for while the RPC
// pool is still open so the final ones can leave.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	n.DisableAutopilot()
	n.DisablePlacement()
	n.DisableHealth()
	n.bgMu.Lock()
	n.advClosed = true
	n.bgMu.Unlock()
	n.adv.Wait()
	n.store.Close()
	err := n.server.Close()
	_ = n.pool.Close()
	n.closeXfers()
	n.bgMu.Lock()
	n.bgClosed = true
	n.bgMu.Unlock()
	n.bg.Wait()
	// The sink goes last: background work above may still emit, and a
	// drained queue means observers see every event that made it in.
	if n.events != nil {
		n.events.close()
	}
	return err
}

// call performs one RPC to another node. Marshalling happens inside
// the rpc layer — the request is encoded exactly once, straight into a
// pooled frame — and the raw wire error is preserved for movedTo
// inspection by callers.
func (n *Node) call(ctx context.Context, to NodeID, kind wire.Kind, req, resp interface{}) error {
	return n.pool.Call(ctx, n.addrOf(to), kind, req, resp)
}

// handle is the node's rpc.Handler: it dispatches inbound requests and
// appends the encoded response to dst (the pooled response frame, with
// its header already reserved).
func (n *Node) handle(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
	if n.closed.Load() {
		return nil, wire.Errorf(wire.CodeUnavailable, "node %s closed", n.id)
	}
	switch kind {
	case wire.KPing:
		var req wire.PingReq
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, wire.Errorf(wire.CodeBadRequest, "%v", err)
		}
		return wire.MarshalAppend(dst, &wire.PingResp{Payload: req.Payload})
	case wire.KInvoke:
		return n.handleInvoke(ctx, body, dst)
	case wire.KLocate:
		return handleTyped(body, dst, func(req *wire.LocateReq) (*wire.LocateResp, error) {
			return n.handleLocate(req)
		})
	case wire.KMove:
		return handleTyped(body, dst, func(req *wire.MoveReq) (*wire.MoveResp, error) {
			return onRecord(ctx, n, req.Obj, req, n.handleMove)
		})
	case wire.KEnd:
		return handleTyped(body, dst, func(req *wire.EndReq) (*wire.EndResp, error) {
			return onRecord(ctx, n, req.Obj, req, n.handleEnd)
		})
	case wire.KMigrate:
		return handleTyped(body, dst, func(req *wire.MigrateReq) (*wire.MigrateResp, error) {
			return onRecord(ctx, n, req.Obj, req, n.handleMigrate)
		})
	case wire.KPause:
		return handleTyped(body, dst, func(req *wire.PauseReq) (*wire.PauseResp, error) {
			return n.handlePause(ctx, req)
		})
	case wire.KInstall:
		// handleTyped spelled out to read the snapshots' states in
		// place: handleInstall decodes every one before it returns,
		// while the request frame is alive.
		var req wire.InstallReq
		if err := wire.UnmarshalView(body, &req); err != nil {
			return nil, wire.Errorf(wire.CodeBadRequest, "%v", err)
		}
		resp, err := n.handleInstall(&req)
		if err != nil {
			return nil, err
		}
		return wire.MarshalAppend(dst, resp)
	case wire.KCommit:
		return handleTyped(body, dst, func(req *wire.CommitReq) (*wire.CommitResp, error) {
			return n.handleCommit(req)
		})
	case wire.KAbort:
		return handleTyped(body, dst, func(req *wire.AbortReq) (*wire.AbortResp, error) {
			return n.handleAbort(req)
		})
	case wire.KHomeUpdate:
		return handleTyped(body, dst, func(req *wire.HomeUpdate) (*wire.HomeUpdateResp, error) {
			start := time.Now()
			n.store.HomeUpdate(req.Objs, req.Gens, req.At)
			n.tel.span(req.Trace, telemetry.PhaseDirUpdate, start, 0, len(req.Objs))
			n.mergeAffinityGossip(req.Aff)
			n.observeLoad(req.Load)
			// The response piggybacks this node's own sample back to
			// the sender — the cheap half of the load gossip.
			return &wire.HomeUpdateResp{Load: n.cachedLoadSample()}, nil
		})
	case wire.KLoadGossip:
		return handleTyped(body, dst, func(req *wire.LoadGossipReq) (*wire.LoadGossipResp, error) {
			return n.handleLoadGossip(req)
		})
	case wire.KInventory:
		return handleTyped(body, dst, func(req *wire.InventoryReq) (*wire.InventoryResp, error) {
			return n.handleInventory(req)
		})
	case wire.KEdgeAdd:
		return handleTyped(body, dst, func(req *wire.EdgeAddReq) (*wire.EdgeAddResp, error) {
			return onRecord(ctx, n, req.Obj, req, n.handleEdgeAdd)
		})
	case wire.KEdgeDel:
		return handleTyped(body, dst, func(req *wire.EdgeDelReq) (*wire.EdgeDelResp, error) {
			return onRecord(ctx, n, req.Obj, req, n.handleEdgeDel)
		})
	case wire.KEdges:
		return handleTyped(body, dst, func(req *wire.EdgesReq) (*wire.EdgesResp, error) {
			return onRecord(ctx, n, req.Obj, req, n.handleEdges)
		})
	case wire.KFix:
		return handleTyped(body, dst, func(req *wire.FixReq) (*wire.FixResp, error) {
			return onRecord(ctx, n, req.Obj, req, n.handleFix)
		})
	default:
		return nil, wire.Errorf(wire.CodeBadRequest, "unhandled kind %v", kind)
	}
}

// handleTyped decodes the request, runs the handler and appends the
// encoded response to dst. The request body is fully copied by
// Unmarshal, so the caller may recycle its frame once this returns.
func handleTyped[Req, Resp any](body, dst []byte, fn func(*Req) (*Resp, error)) ([]byte, error) {
	req := new(Req)
	if err := wire.Unmarshal(body, req); err != nil {
		return nil, wire.Errorf(wire.CodeBadRequest, "%v", err)
	}
	resp, err := fn(req)
	if err != nil {
		return nil, err
	}
	return wire.MarshalAppend(dst, resp)
}

// spawn runs fn in a tracked background goroutine (never fire-and-
// forget). Once Close waits for the background work, nothing new is
// started: bgMu orders every bg.Add before the bg.Wait, and a migration
// still winding down on the closing node (its commit retry, an
// advisory's re-send) finds the door shut instead of racing the wait.
// The daemons are unaffected — Close stops them before it shuts the
// door, and they refuse to start on a closed node.
func (n *Node) spawn(fn func()) {
	n.bgMu.Lock()
	if n.bgClosed {
		n.bgMu.Unlock()
		return
	}
	n.bg.Add(1)
	n.bgMu.Unlock()
	go func() {
		defer n.bg.Done()
		fn()
	}()
}

// retry re-runs a failed attempt in the background, up to tries more
// times spaced by every, each on a tracked goroutine (see spawn), until
// one succeeds or the node closes. Between attempts only a timer is
// pending, so Close never waits out the spacing.
func (n *Node) retry(tries int, every time.Duration, attempt func() error) {
	if tries <= 0 || n.closed.Load() {
		return
	}
	time.AfterFunc(every, func() {
		n.spawn(func() {
			if !n.closed.Load() && attempt() != nil {
				n.retry(tries-1, every, attempt)
			}
		})
	})
}

// periodic is one ticker-driven duty of a daemon: fn runs every period.
// A period <= 0 means never (the duty is disabled).
type periodic struct {
	period time.Duration
	fn     func()
}

// runPeriodic is every daemon's goroutine: it runs up to three duties
// on their own tickers, one at a time, until ctx is cancelled, then
// closes done. A duty that is disabled keeps a nil channel, which never
// fires.
func runPeriodic(ctx context.Context, done chan<- struct{}, duties ...periodic) {
	defer close(done)
	var fire [3]<-chan time.Time
	for i, d := range duties {
		if d.period > 0 {
			t := time.NewTicker(d.period)
			defer t.Stop()
			fire[i] = t.C
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-fire[0]:
			duties[0].fn()
		case <-fire[1]:
			duties[1].fn()
		case <-fire[2]:
			duties[2].fn()
		}
	}
}

// daemon is the lifecycle every background daemon (autopilot,
// placement, health) embeds: startDaemon makes it, stopDaemon spends it.
// Every operation a duty starts derives its context from ctx, so node
// shutdown never waits out a full operation timeout.
type daemon struct {
	ctx  context.Context // cancelled by stopDaemon
	stop context.CancelFunc
	done chan struct{} // closed by the goroutine on its way out
}

func (d *daemon) lifecycle() *daemon { return d }

// daemonPtr is a pointer to one of the three daemon structs.
type daemonPtr interface {
	comparable
	lifecycle() *daemon
}

// startDaemon is the Enable half the daemons share. Under apMu:
// re-check closed — Close's Disable sweep takes apMu too, so an enable
// that sees closed==false here is ordered before the sweep and will be
// stopped by it, and spawn's door, shut only after the sweep, is still
// open for its goroutine — refuse a second instance, publish d in its
// slot, run installed (whatever else must change with the slot; may be
// nil) and start the goroutine on the duties.
func startDaemon[D daemonPtr](n *Node, what string, slot *D, d D, installed func(), duties ...periodic) error {
	n.apMu.Lock()
	defer n.apMu.Unlock()
	if n.closed.Load() {
		return ErrClosed
	}
	var none D
	if *slot != none {
		return fmt.Errorf("objmig: %s already enabled on %s", what, n.id)
	}
	c := d.lifecycle()
	ctx, stop := context.WithCancel(context.Background())
	*c = daemon{ctx: ctx, stop: stop, done: make(chan struct{})}
	*slot = d
	if installed != nil {
		installed()
	}
	n.spawn(func() { runPeriodic(c.ctx, c.done, duties...) })
	return nil
}

// stopDaemon is the Disable half: take the daemon out of its slot —
// running removed in the same critical section, so it cannot overwrite
// what a concurrent re-enable installs — then stop its goroutine and
// wait for it (and whatever its current duty is driving) to wind down.
// It reports whether a daemon was running.
func stopDaemon[D daemonPtr](n *Node, slot *D, removed func()) bool {
	var none D
	n.apMu.Lock()
	d := *slot
	*slot = none
	if d != none && removed != nil {
		removed()
	}
	n.apMu.Unlock()
	if d == none {
		return false
	}
	d.lifecycle().stop()
	<-d.lifecycle().done
	return true
}

// runningDaemon reads a daemon slot (nil while the daemon is off).
func runningDaemon[D daemonPtr](n *Node, slot *D) D {
	n.apMu.Lock()
	defer n.apMu.Unlock()
	return *slot
}

// useAffinity counts a daemon that feeds on the affinity tracker in
// (+1) or out (-1); the tracker runs while any does. Caller holds apMu.
func (n *Node) useAffinity(delta int) {
	n.affUsers += delta
	n.aff.SetEnabled(n.affUsers > 0)
}
