// Package wire defines the message vocabulary of the live runtime —
// the request and response bodies exchanged between nodes and the
// error representation that crosses the wire — together with the
// append-style codec that puts them on the wire: one hand-rolled
// binary layout per body, encoding directly into the caller's buffer
// (MarshalAppend) so a message becomes exactly one copy in exactly one
// frame.
//
// Objects are linearised for transfer exactly as the paper's system
// model describes (Section 3.1): a snapshot carries the object's state,
// its migration-policy state (locks, counters, the fixed flag) and its
// attachment edges, so policy decisions survive the move.
//
// Group migration moves state as a bounded stream of InstallReq frames:
// the first names the full member set, every frame may carry a
// size-bounded batch of snapshots, and the frame flagged Commit makes
// the target install the whole group atomically. A small group is the
// one-frame stream. See docs/protocol.md for the full message catalogue
// and compatibility rules, and docs/wire-format.md for the byte-level
// layouts and the buffer-ownership rules of the zero-copy pipeline.
package wire

import (
	"fmt"
	"reflect"
	"time"

	"objmig/internal/core"
)

// Kind discriminates request bodies.
type Kind uint8

// The request kinds, one per protocol exchange. See docs/protocol.md
// for the catalogue; numbers are append-only (new kinds go immediately
// before kMax, existing constants never renumber). A retired kind keeps
// its slot so its number is never reused; it is not Valid.
const (
	KInvoke Kind = iota + 1
	KMove
	KEnd
	KMigrate
	KLocate
	KPause
	KInstall
	KCommit
	KAbort
	KHomeUpdate
	KEdgeAdd
	KEdgeDel
	KEdges
	KFix
	KPing
	kRetiredFirst // 16–18 were KMigrateBegin, KInstallChunk and KInstallCommit,
	_             // the session kinds KInstall absorbed
	kRetiredLast
	KLoadGossip
	KInventory
	kMax
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	names := [...]string{
		KInvoke: "invoke", KMove: "move", KEnd: "end", KMigrate: "migrate",
		KLocate: "locate", KPause: "pause", KInstall: "install",
		KCommit: "commit", KAbort: "abort", KHomeUpdate: "home-update",
		KEdgeAdd: "edge-add", KEdgeDel: "edge-del", KEdges: "edges",
		KFix: "fix", KPing: "ping",
		KLoadGossip: "load-gossip", KInventory: "inventory",
	}
	if k >= 1 && int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a known, live kind.
func (k Kind) Valid() bool {
	return k >= KInvoke && k < kMax && (k < kRetiredFirst || k > kRetiredLast)
}

// Epoch names this build's wire vocabulary: the body tags and layouts
// of codec.go, the Kind numbers above and the error codes below. Any
// layout, kind or code change bumps it. The rpc layer exchanges epochs once when a connection
// opens and refuses a peer whose epoch differs, so two builds that
// would misread each other never exchange a body. TestGoldenImages
// pins it to the golden images.
const Epoch byte = 5

// MarshalAppend appends the encoding of a message body (a pointer to
// one of the body types below) to dst and returns the extended slice,
// growing it as needed (like append, the result may share dst's
// backing array or be a reallocation — always use the returned slice).
// The message is encoded exactly once, in place: its fields are
// appended directly. This is what lets internal/rpc reserve a frame
// header in a pooled buffer and land the body right behind it with no
// intermediate copy.
//
// Ownership: dst remains the caller's. On error (v is not a message
// body) the returned slice is dst unchanged — no partial body is ever
// published into a buffer the caller will send or recycle.
func MarshalAppend(dst []byte, v interface{}) ([]byte, error) {
	c := coder{b: dst}
	if !layout(&c, v) {
		return dst, fmt.Errorf("wire: marshal %v: not a message body", reflect.TypeOf(v))
	}
	return c.b, nil
}

// Unmarshal decodes a message body into v (a pointer to a body type).
// Decoding is strict: a wrong tag, a truncated field or trailing bytes
// is an error.
//
// Ownership: Unmarshal copies every variable-length field out of data
// — the decoded value never aliases the input. Callers may therefore
// recycle the frame that carried data (framebuf.Put in the rpc layer)
// the moment Unmarshal returns. UnmarshalView is the one exception.
func Unmarshal(data []byte, v interface{}) error {
	return unmarshal(coder{dec: true, b: data}, v)
}

// UnmarshalView is Unmarshal for a consumer that is done with the body
// before data is recycled: its byte-slice fields (an invoke's argument
// or result, a snapshot's state) alias data instead of being copied
// out of it. Strings and names are still copied. It accepts exactly
// the bodies Unmarshal accepts, decoded to equal values.
//
// Ownership: the decoded byte fields are valid only while data is — a
// caller that recycles data must be done with them first. Three
// consumers qualify: a host's invoke handler (the argument is decoded
// before the handler returns), a caller's invoke (the result is
// decoded before it recycles the response frame, rpc.Pool.CallView)
// and a migration target's install handler (every snapshot's state is
// decoded before the handler returns).
func UnmarshalView(data []byte, v interface{}) error {
	return unmarshal(coder{dec: true, view: true, b: data}, v)
}

func unmarshal(c coder, v interface{}) error {
	switch {
	case !layout(&c, v):
		return fmt.Errorf("wire: unmarshal %v: not a message body", reflect.TypeOf(v))
	case c.err != nil:
		return fmt.Errorf("wire: unmarshal %v: %w", reflect.TypeOf(v), c.err)
	case c.pos != len(c.b):
		return fmt.Errorf("wire: unmarshal %v: %d trailing bytes", reflect.TypeOf(v), len(c.b)-c.pos)
	}
	return nil
}

// ErrCode classifies remote failures so callers can react (retry on
// moved, report fixed, and so on).
type ErrCode int

const (
	// CodeInternal: an unclassified failure inside the remote node.
	CodeInternal ErrCode = iota + 1
	// CodeNotFound: the addressed object is unknown at the target and
	// the target has no forwarding pointer for it.
	CodeNotFound
	// CodeMoved: the object has left; To names the next hop.
	CodeMoved
	// CodeFixed: the object is fixed and cannot migrate.
	CodeFixed
	// CodeDenied: a refusal that stands: a migration-policy denial
	// (placement lock held, dynamic policy kept the object) or a veto
	// (a target at capacity, draining or critical).
	CodeDenied
	// CodeUnknownType: the target node has no registration for the
	// object's type and cannot host it.
	CodeUnknownType
	// CodeUnknownMethod: the object's type has no such method.
	CodeUnknownMethod
	// CodeExclusive: an attachment violated the exclusive-attachment
	// admission rule.
	CodeExclusive
	// CodeBadRequest: malformed or inapplicable request.
	CodeBadRequest
	// CodeUnavailable: the node is shutting down.
	CodeUnavailable
	// CodeLayout: an invoke's argument came in a value layout whose
	// fingerprint differs from the method's registration (InvokeReq.
	// Layout). Nothing ran and nothing was counted; the caller re-sends
	// the gob image.
	CodeLayout
	// CodeMigrating: the object is paused by another migration; wait
	// for that migration to end and retry.
	CodeMigrating
)

// RemoteError is the wire representation of a failure. It is the error
// returned by the RPC layer for application-level failures.
type RemoteError struct {
	Code ErrCode
	Msg  string
	To   core.NodeID // next hop for CodeMoved
	Gen  uint64      // CodeMoved: the generation of the departure that names To
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.Code == CodeMoved {
		return fmt.Sprintf("remote: %s (moved to %s)", e.Msg, e.To)
	}
	return "remote: " + e.Msg
}

// Errorf builds a RemoteError.
func Errorf(code ErrCode, format string, args ...interface{}) *RemoteError {
	return &RemoteError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// EdgeRec is one attachment edge in transferable form.
type EdgeRec struct {
	Other    core.OID
	Alliance core.AllianceID
}

// Snapshot is a linearised object: everything a node needs to
// reinstantiate it.
type Snapshot struct {
	ID    core.OID
	Type  string
	State []byte // gob of the user struct
	Pol   core.ObjState
	Edges []EdgeRec
	// Gen is the object's departure generation (bumped by the
	// coordinator per shipped snapshot); it orders location reports.
	Gen uint64
}

// SnapshotSize estimates the snapshot's encoded size in
// bytes. Pause budgeting (PauseReq.MaxBytes) and the coordinator's
// chunk accounting both use this estimate, so "bytes per chunk" means
// the same thing on both ends without encoding anything twice.
func SnapshotSize(s *Snapshot) int {
	n := 40 + len(s.ID.Origin) + len(s.Type) + len(s.State) + len(s.Pol.Lock.Owner)
	for _, e := range s.Edges {
		n += 16 + len(e.Other.Origin)
	}
	for k := range s.Pol.OpenMoves {
		n += 16 + len(k)
	}
	return n
}

// --- Request/response bodies ---

// InvokeReq asks the receiving node to execute a method on a hosted
// object. From names the calling node so the host's affinity tracker
// can attribute the access pressure. Layout says what Arg is: 0 for a
// gob image, otherwise the fingerprint of the caller's value layout of
// the method's argument and result (see internal/valcodec), which the
// host serves only when its registration has the same one.
type InvokeReq struct {
	Obj    core.OID
	Method string
	Arg    []byte
	From   core.NodeID
	Layout uint64
}

// InvokeResp returns the encoded result, in the layout the request's
// argument came in, and the node that executed the call (a location
// hint for the caller's cache).
type InvokeResp struct {
	Result []byte
	At     core.NodeID
}

// MoveReq is the move-primitive: the block on node From asks the
// object's host to bring the object (and its working set) to From.
type MoveReq struct {
	Obj      core.OID
	From     core.NodeID
	Block    core.BlockID
	Alliance core.AllianceID
}

// MoveOutcome mirrors core.MoveAction across the wire.
type MoveOutcome int

// The move-request verdicts: denied outright, granted without
// migration (the object stays and the block runs remotely), or
// granted with migration.
const (
	MoveDenied MoveOutcome = iota + 1
	MoveStayed
	MoveMigrated
)

// MoveResp reports the policy's verdict and the object's location after
// the request.
type MoveResp struct {
	Outcome MoveOutcome
	Reason  core.DenyReason
	At      core.NodeID
	// Moved lists the objects that travelled (the working set), so
	// the block can release them on end.
	Moved []core.OID
}

// EndReq closes move-block Block of node From for object Obj. Members
// lists the working set that was granted (and, under placement,
// locked) at move time, so the end releases exactly what the move
// took — even if attachments changed while the block ran.
type EndReq struct {
	Obj      core.OID
	From     core.NodeID
	Block    core.BlockID
	Alliance core.AllianceID
	Members  []core.OID
}

// EndResp reports what the end-request did.
type EndResp struct {
	Unlocked bool
	Migrated bool // reinstantiation moved the object
	At       core.NodeID
}

// MigrateReq is the explicit migrate-primitive: move Obj (and working
// set) to Target, optionally fixing it there (refix).
type MigrateReq struct {
	Obj      core.OID
	Target   core.NodeID
	Alliance core.AllianceID
	Fix      bool
}

// MigrateResp reports the object's location after the migration.
type MigrateResp struct {
	At    core.NodeID
	Moved []core.OID
}

// LocateReq asks a node (normally the object's origin) where the object
// lives.
type LocateReq struct{ Obj core.OID }

// LocateResp answers with the best known location and the generation
// of the departure that put the object there (the record's own when At
// is the answering node).
type LocateResp struct {
	At  core.NodeID
	Gen uint64
}

// PauseReq asks a node to pause and snapshot the listed local objects
// as part of group migration Token.
//
// MaxBytes, when positive, bounds the cumulative encoded snapshot size
// of one response: the host pauses and snapshots objects in request
// order and stops once the budget is exceeded, returning the untouched
// rest as PauseResp.Pending (at least one object is always processed,
// so oversized objects still make progress). The coordinator re-issues
// the request with the pending tail until it drains — this is what
// keeps a streamed group migration's per-frame footprint bounded by
// the chunk size rather than the working-set size.
//
// Lease, when positive, arms a pause lease at the host: if neither a
// commit nor an abort for (From, Token) arrives within the lease, the
// host fences the migration at Target and then asks it where a member
// lives (the install is atomic, so one member answers for the whole
// group) — departing the objects when the install committed and
// resuming them when it did not. From names the coordinator (leases,
// like staging sessions, are keyed per coordinator because tokens are
// only node-unique); Target names the migration target the lease
// recovery will consult.
type PauseReq struct {
	Objs     []core.OID
	Token    uint64
	MaxBytes int64
	Lease    time.Duration
	From     core.NodeID
	Target   core.NodeID
	// Trace is the migration's TraceID (0 = untraced); the host stamps
	// its pause/snapshot spans with it.
	Trace uint64
}

// PauseResp carries the snapshots of the paused objects. Pending lists
// the requested objects the host did not pause because the response
// hit the PauseReq.MaxBytes budget; the coordinator must re-request
// them (or abort the migration).
type PauseResp struct {
	Snapshots []Snapshot
	Pending   []core.OID
}

// InstallReq is the one payload frame of a group migration: every
// transfer is a sequence of them from the coordinator to the target,
// keyed (From, Token), and a small group is the sequence of length one.
// What a frame carries decides what the target does with it:
//
//   - Members (the opening frame only): open the transfer — run the
//     placement admission for the full expected member set, claim
//     max(Bytes, this frame's snapshot bytes) in the reservation ledger
//     and start a staging session. A session that sees no traffic for
//     the target's configured TTL is discarded, so a coordinator crash
//     mid-stream leaves the target clean.
//   - Snapshots: decode and stage them in the session. Frames carry
//     disjoint member subsets, so their arrival order does not matter.
//   - Commit: close the transfer — verify every expected member was
//     staged and install the whole group in one shard-aware atomic
//     batch.
type InstallReq struct {
	Snapshots []Snapshot
	Token     uint64
	// From names the coordinator. Required: sessions, pause leases,
	// abort fences and ledger claims are all keyed (From, Token),
	// because tokens are only unique per coordinator.
	From core.NodeID
	// Trace is the migration's TraceID (0 = untraced), on every frame:
	// the target stamps the frame's stage span with it and, on the
	// closing frame, the install span.
	Trace uint64
	// Members is the full expected member set, on the opening frame.
	Members []core.OID
	// Bytes, with Members, is the coordinator's estimate of the group's
	// snapshot bytes (the sum of the last-known state sizes of the
	// members it hosts — a floor).
	Bytes int64
	// Commit marks the frame that closes the transfer.
	Commit bool
}

// InstallResp acknowledges one frame.
type InstallResp struct{}

// CommitReq tells the old hosts that the move is complete: replace the
// paused entries with forwarding pointers to NewHome and release
// waiters. From names the coordinator, disarming the matching pause
// lease.
type CommitReq struct {
	Objs    []core.OID
	NewHome core.NodeID
	Token   uint64
	From    core.NodeID
	// Gens aligns with Objs: each object's departure generation, for
	// generation-ordered forwarding state at the old host.
	Gens []uint64
	// Trace is the migration's TraceID (0 = untraced); old hosts stamp
	// their directory-update spans with it.
	Trace uint64
}

// CommitResp acknowledges the commit.
type CommitResp struct{}

// AbortReq rolls a pause back (the migration failed elsewhere). At the
// migration target it additionally discards the session staged for
// (From, Token), if one exists, and fences the migration off.
type AbortReq struct {
	Objs  []core.OID
	Token uint64
	From  core.NodeID
}

// AbortResp acknowledges the rollback.
type AbortResp struct{}

// AffinityObs is one observed (object, caller, count) access-pressure
// sample, gossiped alongside home updates when objects migrate so the
// origin's affinity tracker keeps warm knowledge of who uses what.
type AffinityObs struct {
	Obj   core.OID
	From  core.NodeID
	Count int64
}

// NodeLoad is one node's load/capacity sample — the currency of the
// cluster load-gossip protocol behind the placement engine. Samples
// piggyback on HomeUpdate request/response bodies and travel on the
// low-rate load-gossip heartbeat, so every placement-enabled node
// converges on a decaying view of its peers.
type NodeLoad struct {
	// Node is the sampled node (the sender of a piggybacked sample).
	Node core.NodeID
	// Objects is the node's live (non-forwarding) hosted-object count.
	Objects int64
	// Bytes approximates the resident state bytes of hosted objects
	// (snapshot sizes at install time; locally created objects count
	// zero until they migrate once).
	Bytes int64
	// RateMilli is the node's smoothed invocation-serve rate in
	// milli-invocations per second (an EWMA; see stats.EWMA).
	RateMilli int64
	// Capacity is the node's configured object capacity
	// (Config.Capacity); 0 means uncapped.
	Capacity int64
	// CapBytes is the node's configured resident-byte capacity
	// (Config.CapacityBytes); 0 means uncapped.
	CapBytes int64
	// Seq orders samples from the same node: receivers keep the
	// highest Seq and ignore stragglers.
	Seq uint64
	// Health is the node's gossiped health state (0 healthy,
	// 1 degraded, 2 critical; see the health package). Peers feed it
	// into their placement views so scoring can discount degraded
	// nodes and veto critical ones without a dedicated RPC.
	Health uint8
}

// HomeUpdate tells an origin node where its objects now live. It is
// advisory: lookups fall back to forwarding chains when it is lost.
// Aff piggy-backs the departing host's affinity observations for the
// moved objects (best-effort gossip; may be empty). Load, when
// non-nil, piggy-backs the sender's current load sample for the
// origin's placement view.
type HomeUpdate struct {
	Objs []core.OID
	At   core.NodeID
	Aff  []AffinityObs
	Load *NodeLoad
	// Gens, when non-empty, aligns with Objs and carries each object's
	// departure generation so the origin can drop stale reports.
	Gens []uint64
	// Trace is the TraceID of the migration this update reports (0 when
	// untraced); the origin stamps its directory-update span with it.
	Trace uint64
}

// HomeUpdateResp acknowledges the update. Load, when non-nil, carries
// the origin's own load sample back to the sender — the response half
// of the piggybacked load gossip.
type HomeUpdateResp struct {
	Load *NodeLoad
}

// LoadGossipReq is the load-gossip heartbeat: the sender's current
// load sample. The receiver folds it into its placement view.
type LoadGossipReq struct {
	Load NodeLoad
}

// LoadGossipResp answers a heartbeat with the receiver's own sample,
// so one round trip teaches both ends.
type LoadGossipResp struct {
	Load NodeLoad
}

// InventoryReq asks a node for summaries of its hosted migratable
// units — the job planners' remote input (rebalance jobs enumerate
// every donor candidate's inventory before planning). Answered from
// the store alone: no pauses, no closure walks.
type InventoryReq struct {
	// MaxUnits caps the reply (0 = unlimited).
	MaxUnits int64
}

// InventoryUnit summarises one hosted object as a planning unit. The
// executor walks the real attachment closure at move time, so the
// unit's anchor granularity only affects plan accuracy, never
// migration correctness.
type InventoryUnit struct {
	Anchor   core.OID
	Bytes    int64 // approximate resident state bytes
	Pressure int64 // total observed access pressure (affinity)
}

// InventoryResp carries the units plus the answering node's fresh,
// authoritative load sample — an inventory fetch doubles as a view
// refresh for the planner.
type InventoryResp struct {
	Units []InventoryUnit
	Load  NodeLoad
}

// EdgeAddReq adds half an attachment edge at the host of Obj.
type EdgeAddReq struct {
	Obj      core.OID
	Other    core.OID
	Alliance core.AllianceID
	Mode     core.AttachMode
}

// EdgeAddResp acknowledges the half-edge.
type EdgeAddResp struct{}

// EdgeDelReq removes half an attachment edge.
type EdgeDelReq struct {
	Obj      core.OID
	Other    core.OID
	Alliance core.AllianceID
}

// EdgeDelResp reports whether the edge existed.
type EdgeDelResp struct{ Existed bool }

// EdgesReq fetches the attachment adjacency of a hosted object (used by
// the closure walk of group migration).
type EdgesReq struct{ Obj core.OID }

// EdgesResp lists the edges.
type EdgesResp struct{ Edges []EdgeRec }

// FixReq sets or clears the fixed flag of a hosted object, or (with
// Query) reads it without changing it.
type FixReq struct {
	Obj   core.OID
	Fix   bool
	Query bool
}

// FixResp reports the flag after the request.
type FixResp struct{ Fixed bool }

// PingReq checks liveness.
type PingReq struct{ Payload string }

// PingResp echoes the payload.
type PingResp struct{ Payload string }
