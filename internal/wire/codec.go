package wire

// The codec behind Marshal/MarshalAppend/Unmarshal. Two layers:
//
//   - A hand-rolled binary fast path for the high-frequency bodies —
//     invoke, locate and home-update traffic, the snapshots that make
//     up every migration batch, and the move/end/migrate control
//     bodies that heat up once the autopilot issues migrations
//     continuously. These encode to [tag][varint-framed fields] with
//     zero reflection and no per-message encoder state.
//   - A gob fallback for everything else (control-plane bodies and
//     remote errors), prefixed with tagGob. Each body is a complete,
//     self-describing plain-gob image, but it is not produced by a
//     throwaway encoder: internal/gobstream keeps, per body type,
//     encoders that have already sent the type's descriptors and
//     decoders that have already compiled them, and splices the
//     descriptor bytes back in front of every value. The bytes are
//     those a fresh gob.Encoder writes.
//
// Both layers are append-style: encoders extend the destination slice
// in place, so the rpc layer can reserve a frame header and have the
// body land directly behind it in the same (pooled) buffer — a message
// is encoded exactly once, into its final frame. See MarshalAppend in
// wire.go for the buffer-ownership rules.
//
// A gob stream's first byte is a positive segment length, so tagGob = 0
// can never collide with a legacy un-prefixed message. Both layers sit
// behind the package's Marshal/Unmarshal API: internal/rpc and the
// transports pick the fast path up transparently.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"

	"objmig/internal/core"
	"objmig/internal/framebuf"
	"objmig/internal/gobstream"
)

const (
	tagGob byte = iota
	tagInvokeReq
	tagInvokeResp
	tagLocateReq
	tagLocateResp
	tagHomeUpdate
	tagHomeUpdateResp
	tagSnapshot
	tagPauseResp
	tagInstallReq
	tagMoveReq
	tagMoveResp
	tagEndReq
	tagEndResp
	tagMigrateReq
	tagMigrateResp
	// Tags 16–21 carried the begin/chunk/commit bodies tagInstallReq
	// absorbed. Retired, never reused: no body decodes from them.
	_
	_
	_
	_
	_
	_
	tagLoadGossipReq
	tagLoadGossipResp
	tagInstallResp
)

// --- Gob fallback ---

func marshalGobAppend(dst []byte, v interface{}) ([]byte, error) {
	out, err := gobstream.For(reflect.TypeOf(v)).AppendEncode(append(dst, tagGob), v)
	if err != nil {
		// Leave dst exactly as handed in: a failed encode must not
		// publish half a body into a frame the caller will reuse.
		return dst, fmt.Errorf("wire: marshal %T: %w", v, err)
	}
	return out, nil
}

func unmarshalGob(data []byte, v interface{}) error {
	if err := gobstream.For(reflect.TypeOf(v)).Decode(data, v); err != nil {
		return fmt.Errorf("wire: unmarshal %T: %w", v, err)
	}
	return nil
}

// --- Fast-path encoding ---

// grow ensures dst has room for n more bytes, reallocating at most
// once (append's geometric growth would copy the prefix repeatedly
// while a large body trickles in). The replacement buffer comes from
// the frame pool, so a bulk body outgrowing the small frame the rpc
// layer starts from lands in a recyclable buffer — whoever Puts the
// final frame returns the big allocation to the pool. The outgrown
// buffer is left to the garbage collector: dst stays the caller's
// under the append contract, so grow must never recycle it.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := framebuf.Get(len(dst) + n)[:len(dst)]
	copy(out, dst)
	return out
}

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendByteSlice(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendOID(b []byte, id core.OID) []byte {
	b = appendStr(b, string(id.Origin))
	return appendUvarint(b, id.Seq)
}

// appendNodeLoad encodes one load sample (~8 varints plus the node
// name; loadSize is its grow hint).
func appendNodeLoad(b []byte, l *NodeLoad) []byte {
	b = appendStr(b, string(l.Node))
	b = appendVarint(b, l.Objects)
	b = appendVarint(b, l.Bytes)
	b = appendVarint(b, l.RateMilli)
	b = appendVarint(b, l.Capacity)
	b = appendVarint(b, l.CapBytes)
	b = appendUvarint(b, l.Seq)
	return appendUvarint(b, uint64(l.Health))
}

// loadSize estimates the encoded size of a load sample.
func loadSize(l *NodeLoad) int {
	if l == nil {
		return 1
	}
	return 59 + len(l.Node)
}

func appendOIDs(b []byte, ids []core.OID) []byte {
	b = appendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendOID(b, id)
	}
	return b
}

func appendSnapshotBody(b []byte, s *Snapshot) []byte {
	b = appendOID(b, s.ID)
	b = appendStr(b, s.Type)
	b = appendByteSlice(b, s.State)
	b = appendBool(b, s.Pol.Fixed)
	b = appendBool(b, s.Pol.Lock.Held)
	b = appendStr(b, string(s.Pol.Lock.Owner))
	b = appendUvarint(b, uint64(s.Pol.Lock.Block))
	// OpenMoves in sorted key order: wire images stay deterministic.
	b = appendUvarint(b, uint64(len(s.Pol.OpenMoves)))
	if len(s.Pol.OpenMoves) > 0 {
		keys := make([]core.NodeID, 0, len(s.Pol.OpenMoves))
		for k := range s.Pol.OpenMoves {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			b = appendStr(b, string(k))
			b = appendVarint(b, int64(s.Pol.OpenMoves[k]))
		}
	}
	b = appendUvarint(b, uint64(len(s.Edges)))
	for _, e := range s.Edges {
		b = appendOID(b, e.Other)
		b = appendUvarint(b, uint64(e.Alliance))
	}
	return appendUvarint(b, s.Gen)
}

// snapshotsSize estimates the encoded size of a snapshot batch (a grow
// hint, not a bound).
func snapshotsSize(snaps []Snapshot) int {
	n := 0
	for i := range snaps {
		n += SnapshotSize(&snaps[i])
	}
	return n
}

// oidsSize estimates the encoded size of an OID list, origin strings
// included — a flat per-entry constant would undershoot for realistic
// node-ID lengths and force a second, non-pooled reallocation
// mid-encode.
func oidsSize(ids []core.OID) int {
	n := 10
	for i := range ids {
		n += 12 + len(ids[i].Origin)
	}
	return n
}

// marshalFastAppend appends the encoding of a known hot-path body to
// dst; ok=false means the body has no fast path and the caller falls
// back to gob. Both pointer and value forms are accepted, mirroring
// gob. Bodies that can carry bulk payloads pre-grow dst once, so even
// a megabyte-sized snapshot chunk lands in its frame with at most one
// reallocation.
func marshalFastAppend(dst []byte, v interface{}) (data []byte, ok bool) {
	switch m := v.(type) {
	case *InvokeReq:
		b := grow(dst, 32+len(m.Obj.Origin)+len(m.Method)+len(m.Arg)+len(m.From))
		b = append(b, tagInvokeReq)
		b = appendOID(b, m.Obj)
		b = appendStr(b, m.Method)
		b = appendByteSlice(b, m.Arg)
		return appendStr(b, string(m.From)), true
	case InvokeReq:
		return marshalFastAppend(dst, &m)
	case *InvokeResp:
		b := grow(dst, 16+len(m.Result)+len(m.At))
		b = append(b, tagInvokeResp)
		b = appendByteSlice(b, m.Result)
		return appendStr(b, string(m.At)), true
	case InvokeResp:
		return marshalFastAppend(dst, &m)
	case *LocateReq:
		b := append(dst, tagLocateReq)
		return appendOID(b, m.Obj), true
	case LocateReq:
		return marshalFastAppend(dst, &m)
	case *LocateResp:
		b := append(dst, tagLocateResp)
		return appendStr(b, string(m.At)), true
	case LocateResp:
		return marshalFastAppend(dst, &m)
	case *HomeUpdate:
		hint := 32 + oidsSize(m.Objs) + len(m.At) + loadSize(m.Load) + 10*len(m.Gens)
		for _, o := range m.Aff {
			hint += 24 + len(o.Obj.Origin) + len(o.From)
		}
		for i := range m.Closures {
			cl := &m.Closures[i]
			hint += 24 + len(cl.Anchor.Origin) + oidsSize(cl.Members)
		}
		b := grow(dst, hint)
		b = append(b, tagHomeUpdate)
		b = appendOIDs(b, m.Objs)
		b = appendStr(b, string(m.At))
		b = appendUvarint(b, uint64(len(m.Aff)))
		for _, o := range m.Aff {
			b = appendOID(b, o.Obj)
			b = appendStr(b, string(o.From))
			b = appendVarint(b, o.Count)
		}
		b = appendBool(b, m.Load != nil)
		if m.Load != nil {
			b = appendNodeLoad(b, m.Load)
		}
		b = appendUvarint(b, uint64(len(m.Gens)))
		for _, g := range m.Gens {
			b = appendUvarint(b, g)
		}
		b = appendUvarint(b, uint64(len(m.Closures)))
		for i := range m.Closures {
			cl := &m.Closures[i]
			b = appendOID(b, cl.Anchor)
			b = appendUvarint(b, cl.Gen)
			b = appendOIDs(b, cl.Members)
		}
		return appendUvarint(b, m.Trace), true
	case HomeUpdate:
		return marshalFastAppend(dst, &m)
	case *HomeUpdateResp:
		b := grow(dst, 2+loadSize(m.Load))
		b = append(b, tagHomeUpdateResp)
		b = appendBool(b, m.Load != nil)
		if m.Load != nil {
			b = appendNodeLoad(b, m.Load)
		}
		return b, true
	case HomeUpdateResp:
		return marshalFastAppend(dst, &m)
	case *Snapshot:
		b := grow(dst, 1+SnapshotSize(m))
		b = append(b, tagSnapshot)
		return appendSnapshotBody(b, m), true
	case Snapshot:
		return marshalFastAppend(dst, &m)
	case *PauseResp:
		b := grow(dst, 16+snapshotsSize(m.Snapshots)+oidsSize(m.Pending))
		b = append(b, tagPauseResp)
		b = appendUvarint(b, uint64(len(m.Snapshots)))
		for i := range m.Snapshots {
			b = appendSnapshotBody(b, &m.Snapshots[i])
		}
		return appendOIDs(b, m.Pending), true
	case PauseResp:
		return marshalFastAppend(dst, &m)
	case *InstallReq:
		b := grow(dst, 46+len(m.From)+snapshotsSize(m.Snapshots)+oidsSize(m.Members))
		b = append(b, tagInstallReq)
		b = appendUvarint(b, uint64(len(m.Snapshots)))
		for i := range m.Snapshots {
			b = appendSnapshotBody(b, &m.Snapshots[i])
		}
		b = appendUvarint(b, m.Token)
		b = appendStr(b, string(m.From))
		b = appendUvarint(b, m.Trace)
		b = appendOIDs(b, m.Members)
		b = appendVarint(b, m.Bytes)
		return appendBool(b, m.Commit), true
	case InstallReq:
		return marshalFastAppend(dst, &m)
	case *InstallResp:
		return append(dst, tagInstallResp), true
	case InstallResp:
		return marshalFastAppend(dst, &m)
	case *MoveReq:
		b := append(dst, tagMoveReq)
		b = appendOID(b, m.Obj)
		b = appendStr(b, string(m.From))
		b = appendUvarint(b, uint64(m.Block))
		return appendUvarint(b, uint64(m.Alliance)), true
	case MoveReq:
		return marshalFastAppend(dst, &m)
	case *MoveResp:
		b := append(dst, tagMoveResp)
		b = appendVarint(b, int64(m.Outcome))
		b = appendVarint(b, int64(m.Reason))
		b = appendStr(b, string(m.At))
		return appendOIDs(b, m.Moved), true
	case MoveResp:
		return marshalFastAppend(dst, &m)
	case *EndReq:
		b := append(dst, tagEndReq)
		b = appendOID(b, m.Obj)
		b = appendStr(b, string(m.From))
		b = appendUvarint(b, uint64(m.Block))
		b = appendUvarint(b, uint64(m.Alliance))
		return appendOIDs(b, m.Members), true
	case EndReq:
		return marshalFastAppend(dst, &m)
	case *EndResp:
		b := append(dst, tagEndResp)
		b = appendBool(b, m.Unlocked)
		b = appendBool(b, m.Migrated)
		return appendStr(b, string(m.At)), true
	case EndResp:
		return marshalFastAppend(dst, &m)
	case *MigrateReq:
		b := append(dst, tagMigrateReq)
		b = appendOID(b, m.Obj)
		b = appendStr(b, string(m.Target))
		b = appendUvarint(b, uint64(m.Alliance))
		return appendBool(b, m.Fix), true
	case MigrateReq:
		return marshalFastAppend(dst, &m)
	case *MigrateResp:
		b := append(dst, tagMigrateResp)
		b = appendStr(b, string(m.At))
		return appendOIDs(b, m.Moved), true
	case MigrateResp:
		return marshalFastAppend(dst, &m)
	case *LoadGossipReq:
		b := grow(dst, 1+loadSize(&m.Load))
		b = append(b, tagLoadGossipReq)
		return appendNodeLoad(b, &m.Load), true
	case LoadGossipReq:
		return marshalFastAppend(dst, &m)
	case *LoadGossipResp:
		b := grow(dst, 1+loadSize(&m.Load))
		b = append(b, tagLoadGossipResp)
		return appendNodeLoad(b, &m.Load), true
	case LoadGossipResp:
		return marshalFastAppend(dst, &m)
	}
	return dst, false
}

// --- Fast-path decoding ---

// reader is a cursor over a fast-path body. The first field error
// sticks; callers check err once at the end.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated fast-path body at offset %d", r.pos)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) bool() bool { return r.uvarint() != 0 }

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail()
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// byteSlice copies the field out (wire bodies may alias reused
// transport frames) and maps the empty slice to nil, matching gob.
func (r *reader) byteSlice() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return out
}

func (r *reader) oid() core.OID {
	origin := r.str()
	seq := r.uvarint()
	return core.OID{Origin: core.NodeID(origin), Seq: seq}
}

func (r *reader) oids() []core.OID {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) { // each OID takes ≥ 2 bytes; cheap sanity bound
		r.fail()
		return nil
	}
	out := make([]core.OID, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.oid())
	}
	return out
}

func (r *reader) snapshotBody(s *Snapshot) {
	s.ID = r.oid()
	s.Type = r.str()
	s.State = r.byteSlice()
	s.Pol.Fixed = r.bool()
	s.Pol.Lock.Held = r.bool()
	s.Pol.Lock.Owner = core.NodeID(r.str())
	s.Pol.Lock.Block = core.BlockID(r.uvarint())
	if n := r.uvarint(); n > 0 && r.err == nil {
		if n > uint64(len(r.data)-r.pos) { // each entry takes ≥ 2 bytes
			r.fail()
			return
		}
		s.Pol.OpenMoves = make(map[core.NodeID]int, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			k := core.NodeID(r.str())
			s.Pol.OpenMoves[k] = int(r.varint())
		}
	}
	if n := r.uvarint(); n > 0 && r.err == nil {
		if n > uint64(len(r.data)-r.pos) {
			r.fail()
			return
		}
		s.Edges = make([]EdgeRec, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			var e EdgeRec
			e.Other = r.oid()
			e.Alliance = core.AllianceID(r.uvarint())
			s.Edges = append(s.Edges, e)
		}
	}
	s.Gen = r.uvarint()
}

func (r *reader) uvarints() []uint64 {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) { // each value takes ≥ 1 byte
		r.fail()
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.uvarint())
	}
	return out
}

func (r *reader) closureLocs() []ClosureLoc {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) { // each entry takes ≥ 4 bytes
		r.fail()
		return nil
	}
	out := make([]ClosureLoc, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		var cl ClosureLoc
		cl.Anchor = r.oid()
		cl.Gen = r.uvarint()
		cl.Members = r.oids()
		out = append(out, cl)
	}
	return out
}

func (r *reader) nodeLoad(l *NodeLoad) {
	l.Node = core.NodeID(r.str())
	l.Objects = r.varint()
	l.Bytes = r.varint()
	l.RateMilli = r.varint()
	l.Capacity = r.varint()
	l.CapBytes = r.varint()
	l.Seq = r.uvarint()
	l.Health = uint8(r.uvarint())
}

// optNodeLoad decodes a presence-flagged load sample (nil when absent).
func (r *reader) optNodeLoad() *NodeLoad {
	if !r.bool() || r.err != nil {
		return nil
	}
	l := new(NodeLoad)
	r.nodeLoad(l)
	return l
}

func (r *reader) affinityObs() []AffinityObs {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) { // each entry takes ≥ 4 bytes
		r.fail()
		return nil
	}
	out := make([]AffinityObs, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		var o AffinityObs
		o.Obj = r.oid()
		o.From = core.NodeID(r.str())
		o.Count = r.varint()
		out = append(out, o)
	}
	return out
}

func (r *reader) snapshots() []Snapshot {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail()
		return nil
	}
	out := make([]Snapshot, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		r.snapshotBody(&out[i])
	}
	return out
}

// unmarshalFast decodes a fast-path body whose tag has been stripped.
func unmarshalFast(tag byte, data []byte, v interface{}) error {
	r := &reader{data: data}
	switch out := v.(type) {
	case *InvokeReq:
		if tag != tagInvokeReq {
			return tagMismatch(tag, v)
		}
		out.Obj = r.oid()
		out.Method = r.str()
		out.Arg = r.byteSlice()
		out.From = core.NodeID(r.str())
	case *InvokeResp:
		if tag != tagInvokeResp {
			return tagMismatch(tag, v)
		}
		out.Result = r.byteSlice()
		out.At = core.NodeID(r.str())
	case *LocateReq:
		if tag != tagLocateReq {
			return tagMismatch(tag, v)
		}
		out.Obj = r.oid()
	case *LocateResp:
		if tag != tagLocateResp {
			return tagMismatch(tag, v)
		}
		out.At = core.NodeID(r.str())
	case *HomeUpdate:
		if tag != tagHomeUpdate {
			return tagMismatch(tag, v)
		}
		out.Objs = r.oids()
		out.At = core.NodeID(r.str())
		out.Aff = r.affinityObs()
		out.Load = r.optNodeLoad()
		out.Gens = r.uvarints()
		out.Closures = r.closureLocs()
		out.Trace = r.uvarint()
	case *HomeUpdateResp:
		if tag != tagHomeUpdateResp {
			return tagMismatch(tag, v)
		}
		out.Load = r.optNodeLoad()
	case *Snapshot:
		if tag != tagSnapshot {
			return tagMismatch(tag, v)
		}
		r.snapshotBody(out)
	case *PauseResp:
		if tag != tagPauseResp {
			return tagMismatch(tag, v)
		}
		out.Snapshots = r.snapshots()
		out.Pending = r.oids()
	case *InstallReq:
		if tag != tagInstallReq {
			return tagMismatch(tag, v)
		}
		out.Snapshots = r.snapshots()
		out.Token = r.uvarint()
		out.From = core.NodeID(r.str())
		out.Trace = r.uvarint()
		out.Members = r.oids()
		out.Bytes = r.varint()
		out.Commit = r.bool()
	case *InstallResp:
		if tag != tagInstallResp {
			return tagMismatch(tag, v)
		}
	case *MoveReq:
		if tag != tagMoveReq {
			return tagMismatch(tag, v)
		}
		out.Obj = r.oid()
		out.From = core.NodeID(r.str())
		out.Block = core.BlockID(r.uvarint())
		out.Alliance = core.AllianceID(r.uvarint())
	case *MoveResp:
		if tag != tagMoveResp {
			return tagMismatch(tag, v)
		}
		out.Outcome = MoveOutcome(r.varint())
		out.Reason = core.DenyReason(r.varint())
		out.At = core.NodeID(r.str())
		out.Moved = r.oids()
	case *EndReq:
		if tag != tagEndReq {
			return tagMismatch(tag, v)
		}
		out.Obj = r.oid()
		out.From = core.NodeID(r.str())
		out.Block = core.BlockID(r.uvarint())
		out.Alliance = core.AllianceID(r.uvarint())
		out.Members = r.oids()
	case *EndResp:
		if tag != tagEndResp {
			return tagMismatch(tag, v)
		}
		out.Unlocked = r.bool()
		out.Migrated = r.bool()
		out.At = core.NodeID(r.str())
	case *MigrateReq:
		if tag != tagMigrateReq {
			return tagMismatch(tag, v)
		}
		out.Obj = r.oid()
		out.Target = core.NodeID(r.str())
		out.Alliance = core.AllianceID(r.uvarint())
		out.Fix = r.bool()
	case *MigrateResp:
		if tag != tagMigrateResp {
			return tagMismatch(tag, v)
		}
		out.At = core.NodeID(r.str())
		out.Moved = r.oids()
	case *LoadGossipReq:
		if tag != tagLoadGossipReq {
			return tagMismatch(tag, v)
		}
		r.nodeLoad(&out.Load)
	case *LoadGossipResp:
		if tag != tagLoadGossipResp {
			return tagMismatch(tag, v)
		}
		r.nodeLoad(&out.Load)
	default:
		return fmt.Errorf("wire: unmarshal %T: unrecognised body (tag %d)", v, tag)
	}
	if r.err != nil {
		return fmt.Errorf("wire: unmarshal %T: %w", v, r.err)
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("wire: unmarshal %T: %d trailing bytes", v, len(r.data)-r.pos)
	}
	return nil
}

func tagMismatch(tag byte, v interface{}) error {
	return fmt.Errorf("wire: unmarshal %T: body carries tag %d", v, tag)
}
