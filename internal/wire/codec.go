package wire

// The codec behind MarshalAppend/Unmarshal: one hand-rolled binary
// layout per body, [tag][varint-framed fields], with no reflection and
// no per-message encoder state. Each body's field order is written
// exactly once, as one case of layout, and runs in both directions: a
// coder either appends the fields or strictly reads them back into the
// same fields, writing or checking the tag first. Encoding is
// append-style — the body extends the destination slice in place, so
// the rpc layer can reserve a frame header and have the body land
// directly behind it in the same (pooled) buffer: a message is encoded
// exactly once, into its final frame. See MarshalAppend in wire.go for
// the buffer-ownership rules and docs/wire-format.md for the layouts.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"objmig/internal/core"
	"objmig/internal/framebuf"
)

// Tags are append-only: a shipped layout is frozen under its tag, and
// a retired tag is never reused.
const (
	_ byte = iota // 0 marked the retired gob fallback: no body decodes from it
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
	tagPauseReq
	tagCommitReq
	tagCommitResp
	tagAbortReq
	tagAbortResp
	tagEdgeAddReq
	tagEdgeAddResp
	tagEdgeDelReq
	tagEdgeDelResp
	tagEdgesReq
	tagEdgesResp
	tagFixReq
	tagFixResp
	tagPingReq
	tagPingResp
	tagInventoryReq
	tagInventoryResp
	tagRemoteError
)

// coder runs a layout in one direction. The zero value (plus a
// destination in b) encodes; dec decodes b from pos. Decoding is
// strict and the first field error sticks — later fields read as
// zero, and the caller checks err once at the end. Each primitive
// picks the direction and hands off to a put or a read half.
type coder struct {
	dec bool
	b   []byte
	pos int
	err error
}

func (c *coder) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("truncated body at offset %d", c.pos)
	}
}

// tag writes the body's tag, or checks it. hint is the encoder's
// estimate of the body size: a body that can carry bulk payloads
// pre-grows the destination once, so even a megabyte-sized snapshot
// lands in its frame with at most one reallocation.
func (c *coder) tag(t byte, hint int) {
	if c.dec {
		c.readTag(t)
		return
	}
	c.b = append(grow(c.b, 1+hint), t)
}

func (c *coder) readTag(t byte) {
	if c.pos >= len(c.b) {
		c.fail()
		return
	}
	if c.b[c.pos] != t {
		c.err = fmt.Errorf("body carries tag %d", c.b[c.pos])
	}
	c.pos++
}

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

// uv, sv and str run the unsigned, signed and string fields of any
// named type; the put and read halves they call are plain methods.
func uv[T ~uint8 | ~uint64](c *coder, v *T) {
	if c.dec {
		*v = T(c.readUvarint())
		return
	}
	c.putUvarint(uint64(*v))
}

func sv[T ~int | ~int64](c *coder, v *T) {
	if c.dec {
		*v = T(c.readVarint())
		return
	}
	c.b = binary.AppendVarint(c.b, int64(*v))
}

func str[T ~string](c *coder, s *T) {
	if c.dec {
		*s = T(c.readSpan())
		return
	}
	c.putStr(string(*s))
}

func (c *coder) putUvarint(v uint64) { c.b = binary.AppendUvarint(c.b, v) }

func (c *coder) putStr(s string) {
	c.b = binary.AppendUvarint(c.b, uint64(len(s)))
	c.b = append(c.b, s...)
}

func (c *coder) readUvarint() uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.pos += n
	return x
}

func (c *coder) readVarint() int64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.pos += n
	return x
}

// bool is one byte, 0 or 1 (read as a uvarint: any non-zero is true).
func (c *coder) bool(v *bool) {
	if c.dec {
		*v = c.readUvarint() != 0
	} else if *v {
		c.b = append(c.b, 1)
	} else {
		c.b = append(c.b, 0)
	}
}

// bytes copies the field out (wire bodies may alias reused transport
// frames) and maps the empty slice to nil.
func (c *coder) bytes(p *[]byte) {
	if !c.dec {
		c.putUvarint(uint64(len(*p)))
		c.b = append(c.b, *p...)
		return
	}
	*p = nil
	if q := c.readSpan(); len(q) > 0 {
		*p = make([]byte, len(q)) // exact size: append would round it up
		copy(*p, q)
	}
}

// readSpan reads a length-prefixed byte run, aliasing the input.
func (c *coder) readSpan() []byte {
	n := c.readCount()
	c.pos += n
	return c.b[c.pos-n : c.pos]
}

// count writes a length, or reads one.
func (c *coder) count(n int) int {
	if c.dec {
		return c.readCount()
	}
	c.putUvarint(uint64(n))
	return n
}

// readCount is the single bound on every decoded byte run and
// collection: each element takes at least one byte, so a count above
// the bytes left is corruption, refused before anything is allocated.
func (c *coder) readCount() int {
	x := c.readUvarint()
	if x > uint64(len(c.b)-c.pos) {
		c.fail()
		return 0
	}
	return int(x)
}

// list runs a slice's count and returns the slice whose elements the
// caller then runs — on decode a fresh one (nil when empty).
func list[T any](c *coder, s *[]T) []T {
	n := c.count(len(*s))
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	return *s
}

func oid(c *coder, id *core.OID) {
	str(c, &id.Origin)
	uv(c, &id.Seq)
}

func oids(c *coder, ids *[]core.OID) {
	for i := range list(c, ids) {
		oid(c, &(*ids)[i])
	}
}

func uvarints(c *coder, vs *[]uint64) {
	for i := range list(c, vs) {
		uv(c, &(*vs)[i])
	}
}

// nodeLoad is the load layout (~8 varints plus the node name).
func nodeLoad(c *coder, l *NodeLoad) {
	str(c, &l.Node)
	sv(c, &l.Objects)
	sv(c, &l.Bytes)
	sv(c, &l.RateMilli)
	sv(c, &l.Capacity)
	sv(c, &l.CapBytes)
	uv(c, &l.Seq)
	uv(c, &l.Health)
}

// optNodeLoad runs a presence-flagged load sample (nil when absent).
func optNodeLoad(c *coder, l **NodeLoad) {
	has := *l != nil
	if c.bool(&has); c.dec {
		*l = nil
		if has {
			*l = new(NodeLoad)
		}
	}
	if has {
		nodeLoad(c, *l)
	}
}

func edges(c *coder, es *[]EdgeRec) {
	for i := range list(c, es) {
		oid(c, &(*es)[i].Other)
		uv(c, &(*es)[i].Alliance)
	}
}

func snapshots(c *coder, ss *[]Snapshot) {
	for i := range list(c, ss) {
		snapshot(c, &(*ss)[i])
	}
}

// snapshot is the snapshot layout. OpenMoves is written in sorted key
// order, so wire images stay deterministic.
func snapshot(c *coder, s *Snapshot) {
	oid(c, &s.ID)
	str(c, &s.Type)
	c.bytes(&s.State)
	c.bool(&s.Pol.Fixed)
	c.bool(&s.Pol.Lock.Held)
	str(c, &s.Pol.Lock.Owner)
	uv(c, &s.Pol.Lock.Block)
	if !c.dec {
		keys := make([]core.NodeID, 0, len(s.Pol.OpenMoves))
		for k := range s.Pol.OpenMoves {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.count(len(keys))
		for _, k := range keys {
			v := s.Pol.OpenMoves[k]
			str(c, &k)
			sv(c, &v)
		}
	} else if n := c.count(0); n == 0 {
		s.Pol.OpenMoves = nil
	} else {
		s.Pol.OpenMoves = make(map[core.NodeID]int, n)
		for i := 0; i < n; i++ {
			var k core.NodeID
			var v int
			str(c, &k)
			sv(c, &v)
			s.Pol.OpenMoves[k] = v
		}
	}
	edges(c, &s.Edges)
	uv(c, &s.Gen)
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

// homeUpdateSize estimates the encoded size of a home update (a grow
// hint: a large group's update carries long OID and generation lists).
func homeUpdateSize(m *HomeUpdate) int {
	n := 32 + oidsSize(m.Objs) + len(m.At) + 10*len(m.Gens)
	if m.Load != nil {
		n += 59 + len(m.Load.Node)
	}
	for _, o := range m.Aff {
		n += 24 + len(o.Obj.Origin) + len(o.From)
	}
	return n
}

// layout runs v's layout through c — the one place each body's tag and
// field order is written — and reports false when v is not a message
// body (bodies travel as pointers).
func layout(c *coder, v any) bool {
	switch m := v.(type) {
	case *InvokeReq:
		c.tag(tagInvokeReq, 32+len(m.Obj.Origin)+len(m.Method)+len(m.Arg)+len(m.From))
		oid(c, &m.Obj)
		str(c, &m.Method)
		c.bytes(&m.Arg)
		str(c, &m.From)
	case *InvokeResp:
		c.tag(tagInvokeResp, 16+len(m.Result)+len(m.At))
		c.bytes(&m.Result)
		str(c, &m.At)
	case *LocateReq:
		c.tag(tagLocateReq, 0)
		oid(c, &m.Obj)
	case *LocateResp:
		c.tag(tagLocateResp, 0)
		str(c, &m.At)
	case *HomeUpdate:
		c.tag(tagHomeUpdate, homeUpdateSize(m))
		oids(c, &m.Objs)
		str(c, &m.At)
		for i := range list(c, &m.Aff) {
			oid(c, &m.Aff[i].Obj)
			str(c, &m.Aff[i].From)
			sv(c, &m.Aff[i].Count)
		}
		optNodeLoad(c, &m.Load)
		uvarints(c, &m.Gens)
		uv(c, &m.Trace)
	case *HomeUpdateResp:
		c.tag(tagHomeUpdateResp, 0)
		optNodeLoad(c, &m.Load)
	case *Snapshot:
		c.tag(tagSnapshot, SnapshotSize(m))
		snapshot(c, m)
	case *PauseReq:
		c.tag(tagPauseReq, 0)
		oids(c, &m.Objs)
		uv(c, &m.Token)
		sv(c, &m.MaxBytes)
		sv(c, &m.Lease)
		str(c, &m.From)
		str(c, &m.Target)
		uv(c, &m.Trace)
	case *PauseResp:
		c.tag(tagPauseResp, 16+snapshotsSize(m.Snapshots)+oidsSize(m.Pending))
		snapshots(c, &m.Snapshots)
		oids(c, &m.Pending)
	case *InstallReq:
		c.tag(tagInstallReq, 46+len(m.From)+snapshotsSize(m.Snapshots)+oidsSize(m.Members))
		snapshots(c, &m.Snapshots)
		uv(c, &m.Token)
		str(c, &m.From)
		uv(c, &m.Trace)
		oids(c, &m.Members)
		sv(c, &m.Bytes)
		c.bool(&m.Commit)
	case *InstallResp:
		c.tag(tagInstallResp, 0)
	case *CommitReq:
		c.tag(tagCommitReq, 0)
		oids(c, &m.Objs)
		str(c, &m.NewHome)
		uv(c, &m.Token)
		str(c, &m.From)
		uvarints(c, &m.Gens)
		uv(c, &m.Trace)
	case *CommitResp:
		c.tag(tagCommitResp, 0)
	case *AbortReq:
		c.tag(tagAbortReq, 0)
		oids(c, &m.Objs)
		uv(c, &m.Token)
		str(c, &m.From)
	case *AbortResp:
		c.tag(tagAbortResp, 0)
	case *MoveReq:
		c.tag(tagMoveReq, 0)
		oid(c, &m.Obj)
		str(c, &m.From)
		uv(c, &m.Block)
		uv(c, &m.Alliance)
	case *MoveResp:
		c.tag(tagMoveResp, 0)
		sv(c, &m.Outcome)
		sv(c, &m.Reason)
		str(c, &m.At)
		oids(c, &m.Moved)
	case *EndReq:
		c.tag(tagEndReq, 0)
		oid(c, &m.Obj)
		str(c, &m.From)
		uv(c, &m.Block)
		uv(c, &m.Alliance)
		oids(c, &m.Members)
	case *EndResp:
		c.tag(tagEndResp, 0)
		c.bool(&m.Unlocked)
		c.bool(&m.Migrated)
		str(c, &m.At)
	case *MigrateReq:
		c.tag(tagMigrateReq, 0)
		oid(c, &m.Obj)
		str(c, &m.Target)
		uv(c, &m.Alliance)
		c.bool(&m.Fix)
	case *MigrateResp:
		c.tag(tagMigrateResp, 0)
		str(c, &m.At)
		oids(c, &m.Moved)
	case *LoadGossipReq:
		c.tag(tagLoadGossipReq, 0)
		nodeLoad(c, &m.Load)
	case *LoadGossipResp:
		c.tag(tagLoadGossipResp, 0)
		nodeLoad(c, &m.Load)
	case *InventoryReq:
		c.tag(tagInventoryReq, 0)
		sv(c, &m.MaxUnits)
	case *InventoryResp:
		c.tag(tagInventoryResp, 0)
		for i := range list(c, &m.Units) {
			oid(c, &m.Units[i].Anchor)
			sv(c, &m.Units[i].Bytes)
			sv(c, &m.Units[i].Pressure)
		}
		nodeLoad(c, &m.Load)
	case *EdgeAddReq:
		c.tag(tagEdgeAddReq, 0)
		oid(c, &m.Obj)
		oid(c, &m.Other)
		uv(c, &m.Alliance)
		sv(c, &m.Mode)
	case *EdgeAddResp:
		c.tag(tagEdgeAddResp, 0)
	case *EdgeDelReq:
		c.tag(tagEdgeDelReq, 0)
		oid(c, &m.Obj)
		oid(c, &m.Other)
		uv(c, &m.Alliance)
	case *EdgeDelResp:
		c.tag(tagEdgeDelResp, 0)
		c.bool(&m.Existed)
	case *EdgesReq:
		c.tag(tagEdgesReq, 0)
		oid(c, &m.Obj)
	case *EdgesResp:
		c.tag(tagEdgesResp, 0)
		edges(c, &m.Edges)
	case *FixReq:
		c.tag(tagFixReq, 0)
		oid(c, &m.Obj)
		c.bool(&m.Fix)
		c.bool(&m.Query)
	case *FixResp:
		c.tag(tagFixResp, 0)
		c.bool(&m.Fixed)
	case *PingReq:
		c.tag(tagPingReq, 0)
		str(c, &m.Payload)
	case *PingResp:
		c.tag(tagPingResp, 0)
		str(c, &m.Payload)
	case *RemoteError:
		c.tag(tagRemoteError, 0)
		sv(c, &m.Code)
		str(c, &m.Msg)
		str(c, &m.To)
	default:
		return false
	}
	return true
}
