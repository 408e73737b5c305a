package wire

import (
	"bytes"
	"encoding/hex"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"

	"objmig/internal/core"
)

// fastBodies is one populated specimen per body type (pointer form, the
// only form a body travels in), in tag order.
func fastBodies() []interface{} {
	oid1 := core.OID{Origin: "n1", Seq: 42}
	oid2 := core.OID{Origin: "n2", Seq: 7}
	snap := Snapshot{
		ID:    oid1,
		Type:  "counter",
		Gen:   6,
		State: []byte{9, 8, 7},
		Pol: core.ObjState{
			Fixed:     true,
			Lock:      core.LockState{Held: true, Owner: "n3", Block: 11},
			OpenMoves: map[core.NodeID]int{"a": 2, "b": 5},
		},
		Edges: []EdgeRec{{Other: oid2, Alliance: 3}, {Other: oid1, Alliance: 0}},
	}
	load := NodeLoad{Node: "n9", Objects: 120, Bytes: 1 << 20, RateMilli: 2500, Capacity: 256, CapBytes: 1 << 30, Seq: 31, Health: 2}
	return []interface{}{
		&InvokeReq{Obj: oid1, Method: "Add", Arg: []byte{1, 2, 3}, From: "n7"},
		&InvokeReq{Obj: oid1, Method: "Add", Arg: []byte{2}, From: "n7", Layout: 0x1234},
		&InvokeResp{Result: []byte{4, 5}, At: "n2"},
		&LocateReq{Obj: oid2},
		&LocateResp{At: "n5", Gen: 9},
		&HomeUpdate{Objs: []core.OID{oid1, oid2}, Gens: []uint64{3, 9}, At: "n4",
			Aff: []AffinityObs{
				{Obj: oid1, From: "n7", Count: 12},
				{Obj: oid2, From: "n8", Count: 1},
			}, Load: &load},
		&HomeUpdateResp{},
		&HomeUpdateResp{Load: &load},
		&LoadGossipReq{Load: load},
		&LoadGossipResp{Load: NodeLoad{Node: "n0", Seq: 1}},
		&snap,
		&PauseResp{Snapshots: []Snapshot{snap, {ID: oid2, Type: "t"}}, Pending: []core.OID{oid1}},
		// The one migration payload frame in its three uses: a whole
		// small group (open + stage + commit), a continuation, a bare
		// commit.
		&InstallReq{Snapshots: []Snapshot{snap}, Token: 99, From: "n1", Trace: 5,
			Members: []core.OID{oid1}, Bytes: 1 << 22, Commit: true},
		&InstallReq{Snapshots: []Snapshot{snap}, Token: 99, From: "n1"},
		&InstallReq{Token: 99, From: "n1", Commit: true},
		&InstallResp{},
		&MoveReq{Obj: oid1, From: "n2", Block: 7, Alliance: 3},
		&MoveResp{Outcome: MoveMigrated, Reason: core.ReasonLocked, At: "n2", Moved: []core.OID{oid1, oid2}},
		&EndReq{Obj: oid1, From: "n2", Block: 7, Alliance: 3, Members: []core.OID{oid1, oid2}},
		&EndResp{Unlocked: true, Migrated: true, At: "n9"},
		&MigrateReq{Obj: oid2, Target: "n5", Alliance: 1, Fix: true},
		&MigrateResp{At: "n5", Moved: []core.OID{oid2}},
		&PauseReq{Objs: []core.OID{oid1, oid2}, Token: 8, MaxBytes: 1 << 20, Lease: 30 * time.Second,
			From: "n2", Target: "n3", Trace: 5},
		&CommitReq{Objs: []core.OID{oid1}, NewHome: "n3", Token: 8, From: "n1", Gens: []uint64{4}, Trace: 5},
		&CommitResp{},
		&AbortReq{Objs: []core.OID{oid2}, Token: 8, From: "n1"},
		&AbortResp{},
		&EdgeAddReq{Obj: oid1, Other: oid2, Alliance: 5, Mode: core.AttachExclusive},
		&EdgeAddResp{},
		&EdgeDelReq{Obj: oid1, Other: oid2, Alliance: 5},
		&EdgeDelResp{Existed: true},
		&EdgesReq{Obj: oid2},
		&EdgesResp{Edges: []EdgeRec{{Other: oid2, Alliance: 3}}},
		&FixReq{Obj: oid1, Fix: true, Query: true},
		&FixResp{Fixed: true},
		&PingReq{Payload: "hi"},
		&PingResp{Payload: "hi"},
		&InventoryReq{MaxUnits: 64},
		&InventoryResp{Units: []InventoryUnit{{Anchor: oid1, Bytes: 4096, Pressure: 12}}, Load: load},
		&RemoteError{Code: CodeMoved, Msg: "gone", To: "n7", Gen: 5},
	}
}

// TestFastPathRoundTrip: every body must decode back to a deep-equal
// value.
func TestFastPathRoundTrip(t *testing.T) {
	t.Parallel()
	for _, in := range fastBodies() {
		data, err := MarshalAppend(nil, in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
		if err := Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip %T:\n in: %+v\nout: %+v", in, in, out)
		}
	}
}

// goldenImages are the exact wire bytes of fastBodies(), entry for
// entry. Layouts are frozen per tag (docs/wire-format.md): a change
// that moves a single byte of an existing image is a protocol break and
// must show up here as an edited literal, never silently.
var goldenImages = []string{
	"01026e312a0341646403010203026e3700", // InvokeReq: gob image
	"01026e312a034164640102026e37b424",   // InvokeReq: value layout
	"02020405026e32",                     // InvokeResp
	"03026e3207",                         // LocateReq
	"04026e3509",                         // LocateResp
	"0502026e312a026e3207026e3402026e312a026e3718026e3207026e380201026e39f001808080018827800480808080081f02" +
		"02030900", // HomeUpdate
	"0600", // HomeUpdateResp, no sample
	"0601026e39f001808080018827800480808080081f02",                                         // HomeUpdateResp
	"16026e39f001808080018827800480808080081f02",                                           // LoadGossipReq
	"17026e3000000000000100",                                                               // LoadGossipResp
	"07026e312a07636f756e746572030908070101026e330b0201610401620a02026e320703026e312a0006", // Snapshot
	"0802026e312a07636f756e746572030908070101026e330b0201610401620a02026e320703026e312a0006" +
		"026e32070174000000000000000001026e312a", // PauseResp
	"0901026e312a07636f756e746572030908070101026e330b0201610401620a02026e320703026e312a0006" +
		"63026e310501026e312a8080800401", // InstallReq: open + stage + commit
	"0901026e312a07636f756e746572030908070101026e330b0201610401620a02026e320703026e312a0006" +
		"63026e3100000000", // InstallReq: continuation
	"090063026e3100000001",                   // InstallReq: bare commit
	"18",                                     // InstallResp
	"0a026e312a026e320703",                   // MoveReq
	"0b0606026e3202026e312a026e3207",         // MoveResp
	"0c026e312a026e32070302026e312a026e3207", // EndReq
	"0d0101026e39",                           // EndResp
	"0e026e3207026e350101",                   // MigrateReq
	"0f026e3501026e3207",                     // MigrateResp
	"1902026e312a026e3207088080800180b09dc2df01026e32026e3305", // PauseReq
	"1a01026e312a026e3308026e31010405",                         // CommitReq
	"1b",                                                       // CommitResp
	"1c01026e320708026e31",                                     // AbortReq
	"1d",                                                       // AbortResp
	"1e026e312a026e32070506",                                   // EdgeAddReq
	"1f",                                                       // EdgeAddResp
	"20026e312a026e320705",                                     // EdgeDelReq
	"2101",                                                     // EdgeDelResp
	"22026e3207",                                               // EdgesReq
	"2301026e320703",                                           // EdgesResp
	"24026e312a0101",                                           // FixReq
	"2501",                                                     // FixResp
	"26026869",                                                 // PingReq
	"27026869",                                                 // PingResp
	"288001",                                                   // InventoryReq
	"2901026e312a804018026e39f001808080018827800480808080081f02", // InventoryResp
	"2a0604676f6e65026e3705",                                     // RemoteError
}

// epochImages pins each wire epoch to the digest of the golden images
// it shipped with. Editing, adding or removing an image changes the
// digest, and TestGoldenImages then fails until Epoch is bumped and the
// new epoch's row is added here. Rows are never edited.
var epochImages = map[byte]string{
	1: "4a18d3beb11c0577",
	2: "68e26220f2e0502e",
	3: "31099a7c320d8c37",
	4: "44ad1a25da0e91e1",
	5: "44ad1a25da0e91e1", // the images of 4; adds the error code CodeMigrating
}

// TestGoldenImages: every live tag encodes its specimen to exactly the
// pinned bytes, the pinned bytes decode back to it, and the images are
// the ones wire.Epoch names.
func TestGoldenImages(t *testing.T) {
	t.Parallel()
	bodies := fastBodies()
	if len(bodies) != len(goldenImages) {
		t.Fatalf("%d specimens, %d golden images", len(bodies), len(goldenImages))
	}
	tags := make(map[byte]bool)
	for i, in := range bodies {
		want, err := hex.DecodeString(goldenImages[i])
		if err != nil {
			t.Fatalf("golden image %d: %v", i, err)
		}
		got, err := MarshalAppend(nil, in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T (specimen %d) encodes to\n  %x\nwant\n  %x", in, i, got, want)
		}
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
		if err := Unmarshal(want, out); err != nil || !reflect.DeepEqual(in, out) {
			t.Fatalf("golden image %d decodes to %+v (%v), want %+v", i, out, err, in)
		}
		tags[want[0]] = true
	}
	// Every live tag has a specimen; the retired ones have none.
	for tag := byte(0); tag <= tagRemoteError; tag++ {
		if retired := tag == 0 || tag > tagMigrateResp && tag < tagLoadGossipReq; tags[tag] == retired {
			t.Fatalf("tag %d: golden image present = %v, retired = %v", tag, tags[tag], retired)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(goldenImages, "\n")))
	if digest := hex.EncodeToString(h.Sum(nil)); epochImages[Epoch] != digest {
		t.Fatalf("golden images (digest %s) differ from those of wire epoch %d (%q): a layout change must bump Epoch and pin the new digest",
			digest, Epoch, epochImages[Epoch])
	}
}

// TestRetiredTagsNeverDecode: tag 0 marked the retired gob fallback and
// tags 16–21 carried the begin/chunk/commit bodies of the retired
// session kinds. No body type may accept them — not even one whose own
// image follows the tag byte.
func TestRetiredTagsNeverDecode(t *testing.T) {
	t.Parallel()
	retired := []byte{0}
	for tag := tagMigrateResp + 1; tag < tagLoadGossipReq; tag++ {
		retired = append(retired, tag)
	}
	for _, tag := range retired {
		for _, in := range fastBodies() {
			data, err := MarshalAppend(nil, in)
			if err != nil {
				t.Fatal(err)
			}
			data[0] = tag
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
			if err := Unmarshal(data, out); err == nil {
				t.Fatalf("%T decoded from retired tag %d", in, tag)
			}
		}
	}
}

// TestFastPathValueForms: a body travels as a pointer. Its value form
// is not a body, and both ends refuse it.
func TestFastPathValueForms(t *testing.T) {
	t.Parallel()
	req := InvokeReq{Obj: core.OID{Origin: "n", Seq: 1}, Method: "m", Arg: []byte{1}}
	if _, err := MarshalAppend(nil, req); err == nil {
		t.Fatal("value form encoded")
	}
	data, err := MarshalAppend(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data, req); err == nil {
		t.Fatal("decoded into a value form")
	}
}

// TestFastPathEmptySemantics: zero-length byte fields and lists decode
// as nil.
func TestFastPathEmptySemantics(t *testing.T) {
	t.Parallel()
	in := &InvokeReq{Obj: core.OID{Origin: "n", Seq: 1}, Method: "", Arg: []byte{}}
	data, err := MarshalAppend(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var out InvokeReq
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Arg != nil {
		t.Fatalf("empty Arg decoded as %#v, want nil", out.Arg)
	}
	data, err = MarshalAppend(nil, &HomeUpdate{Objs: []core.OID{}})
	if err != nil {
		t.Fatal(err)
	}
	var outHU HomeUpdate
	if err := Unmarshal(data, &outHU); err != nil {
		t.Fatal(err)
	}
	if outHU.Objs != nil {
		t.Fatalf("empty Objs decoded as %#v, want nil", outHU.Objs)
	}
	data, err = MarshalAppend(nil, &EdgesResp{Edges: []EdgeRec{}})
	if err != nil {
		t.Fatal(err)
	}
	outEdges := EdgesResp{Edges: []EdgeRec{{Alliance: 1}}}
	if err := Unmarshal(data, &outEdges); err != nil {
		t.Fatal(err)
	}
	if outEdges.Edges != nil {
		t.Fatalf("empty Edges decoded as %#v, want nil", outEdges.Edges)
	}
}

// TestUnmarshalViewAliases: the three bodies read in place decode
// with UnmarshalView to the same values as with Unmarshal, but their
// byte fields alias the input, capped at the field, while strings and
// names are still copied. Scribbling over the input after both decodes
// shows it: the view's byte fields follow, nothing else moves, and the
// Unmarshal decode of the same bytes is untouched.
func TestUnmarshalViewAliases(t *testing.T) {
	t.Parallel()
	oid := func(seq uint64) core.OID { return core.OID{Origin: "n1", Seq: seq} }
	cases := []struct {
		in    interface{}
		bytes func(v interface{}) []*[]byte
	}{
		{&InvokeReq{Obj: oid(1), Method: "Get", Arg: []byte("argument"), From: "n2", Layout: 9},
			func(v interface{}) []*[]byte { return []*[]byte{&v.(*InvokeReq).Arg} }},
		{&InvokeResp{Result: []byte("result"), At: "n1"},
			func(v interface{}) []*[]byte { return []*[]byte{&v.(*InvokeResp).Result} }},
		{&InstallReq{Token: 3, From: "n2", Members: []core.OID{oid(1), oid(2)}, Commit: true, Snapshots: []Snapshot{
			{ID: oid(1), Type: "counter", State: []byte("state one"), Edges: []EdgeRec{{Other: oid(2)}}},
			{ID: oid(2), Type: "counter", State: []byte("state two"), Gen: 4},
		}}, func(v interface{}) []*[]byte {
			m := v.(*InstallReq)
			return []*[]byte{&m.Snapshots[0].State, &m.Snapshots[1].State}
		}},
	}
	for _, c := range cases {
		data, err := MarshalAppend(nil, c.in)
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(c.in).Elem()
		view, copied := reflect.New(typ).Interface(), reflect.New(typ).Interface()
		if err := UnmarshalView(data, view); err != nil {
			t.Fatalf("%T: view decode: %v", c.in, err)
		}
		if err := Unmarshal(data, copied); err != nil {
			t.Fatalf("%T: decode: %v", c.in, err)
		}
		if !reflect.DeepEqual(view, c.in) || !reflect.DeepEqual(copied, c.in) {
			t.Fatalf("%T decodes drifted:\n  in: %+v\nview: %+v\ncopy: %+v", c.in, c.in, view, copied)
		}
		for _, f := range c.bytes(view) {
			if cap(*f) != len(*f) {
				t.Fatalf("%T: view field %q has cap %d, want its length", c.in, *f, cap(*f))
			}
		}
		for i := range data {
			data[i] = 0xA5
		}
		if !reflect.DeepEqual(copied, c.in) {
			t.Fatalf("%T: Unmarshal output changed with its input: %+v", c.in, copied)
		}
		fields, want := c.bytes(view), c.bytes(c.in)
		for i, f := range fields {
			if !bytes.Equal(*f, bytes.Repeat([]byte{0xA5}, len(*f))) {
				t.Fatalf("%T: view field %q does not alias the input", c.in, *f)
			}
			*f = *want[i]
		}
		if !reflect.DeepEqual(view, c.in) {
			t.Fatalf("%T: a view field other than the byte fields aliases the input: %+v", c.in, view)
		}
	}
}

// TestFastPathRejectsCorruption: truncations and trailing garbage must
// error, never panic or silently succeed.
func TestFastPathRejectsCorruption(t *testing.T) {
	t.Parallel()
	for _, in := range fastBodies() {
		data, err := MarshalAppend(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(data); cut++ {
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
			if err := Unmarshal(data[:cut], out); err == nil && cut < len(data) {
				// Some prefixes of variable-length bodies are valid
				// encodings of shorter values; the decoder must at
				// least not panic. A clean error is required only when
				// the fixed-layout spine is cut.
				continue
			}
		}
		// Trailing garbage after a complete body is always an error.
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
		if err := Unmarshal(append(append([]byte{}, data...), 0xFF), out); err == nil {
			t.Fatalf("%T accepted trailing garbage", in)
		}
	}
}

// TestTagMismatch: a body of one kind must not decode into another.
func TestTagMismatch(t *testing.T) {
	t.Parallel()
	data, err := MarshalAppend(nil, &LocateReq{Obj: core.OID{Origin: "n", Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var wrong InvokeReq
	if err := Unmarshal(data, &wrong); err == nil {
		t.Fatal("locate body decoded as invoke request")
	}
}

// TestSnapshotDeterministicEncoding: the same snapshot must encode to
// identical bytes (OpenMoves iterates in sorted key order) — migration
// batches stay byte-deterministic.
func TestSnapshotDeterministicEncoding(t *testing.T) {
	t.Parallel()
	snap := Snapshot{
		ID:   core.OID{Origin: "n", Seq: 1},
		Type: "t",
		Pol: core.ObjState{
			OpenMoves: map[core.NodeID]int{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},
		},
	}
	first, err := MarshalAppend(nil, &snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		again, err := MarshalAppend(nil, &snap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatal("snapshot encoding is nondeterministic")
		}
	}
}

// TestMarshalAppendPrefix: MarshalAppend must extend dst in place,
// leaving the existing prefix intact, and the appended bytes must
// equal a fresh encoding of the same body. This is the contract
// internal/rpc relies on when it reserves a frame header and hands the
// codec the tail.
func TestMarshalAppendPrefix(t *testing.T) {
	t.Parallel()
	for _, in := range fastBodies() {
		fresh, err := MarshalAppend(nil, in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05}
		out, err := MarshalAppend(append([]byte(nil), prefix...), in)
		if err != nil {
			t.Fatalf("marshal-append %T: %v", in, err)
		}
		if !reflect.DeepEqual(out[:len(prefix)], prefix) {
			t.Fatalf("%T: MarshalAppend clobbered the reserved prefix", in)
		}
		if !reflect.DeepEqual(out[len(prefix):], fresh) {
			t.Fatalf("%T: appended body differs from a fresh encoding", in)
		}
	}
}

// TestMarshalAppendReusesCapacity: encoding into a buffer with enough
// spare capacity must not reallocate — the zero-copy guarantee that
// lets a pooled frame be reused across calls.
func TestMarshalAppendReusesCapacity(t *testing.T) {
	t.Parallel()
	in := &InvokeReq{Obj: core.OID{Origin: "n", Seq: 1}, Method: "m", Arg: make([]byte, 256)}
	buf := make([]byte, 10, 4096)
	out, err := MarshalAppend(buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Fatal("MarshalAppend reallocated despite sufficient capacity")
	}
}

// TestMarshalAppendErrorLeavesDst: a failed encode must return dst
// unchanged — no partial body may be published into a frame the
// caller will send or recycle.
func TestMarshalAppendErrorLeavesDst(t *testing.T) {
	t.Parallel()
	dst := []byte{1, 2, 3}
	out, err := MarshalAppend(dst, &core.OID{Origin: "n", Seq: 1}) // not a message body
	if err == nil {
		t.Fatal("encoding a non-body succeeded")
	}
	if !reflect.DeepEqual(out, []byte{1, 2, 3}) {
		t.Fatalf("failed encode left dst = %v", out)
	}
}

// FuzzUnmarshal: no input makes the codec panic, and whatever decodes
// re-encodes to something that decodes to the same value. Seeded with
// the golden image of every live tag; a body is decoded into the type
// its tag byte names, and bytes under any other tag (retired or
// unknown) into every body type.
func FuzzUnmarshal(f *testing.F) {
	byTag := make(map[byte]reflect.Type)
	for i, in := range fastBodies() {
		img, err := hex.DecodeString(goldenImages[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		byTag[img[0]] = reflect.TypeOf(in).Elem()
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0x03, 0x04, 0x00, 0x54}) // the retired gob tag
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			if Unmarshal(data, new(InvokeReq)) == nil {
				t.Fatal("empty body decoded")
			}
			return
		}
		typ, live := byTag[data[0]]
		if !live {
			for _, typ := range byTag {
				_ = Unmarshal(data, reflect.New(typ).Interface())
			}
			return
		}
		// A view decode of the same input agrees: same verdict, equal body.
		first, view := reflect.New(typ).Interface(), reflect.New(typ).Interface()
		err, viewErr := Unmarshal(data, first), UnmarshalView(data, view)
		if (err == nil) != (viewErr == nil) {
			t.Fatalf("%T: Unmarshal says %v, UnmarshalView says %v", first, err, viewErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(first, view) {
			t.Fatalf("%T view decode differs:\n copy: %+v\n view: %+v", first, first, view)
		}
		again, err := MarshalAppend(nil, first)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", first, err)
		}
		second := reflect.New(typ).Interface()
		if err := Unmarshal(again, second); err != nil || !reflect.DeepEqual(first, second) {
			t.Fatalf("%T round trip drifted (%v):\n first: %+v\nsecond: %+v", first, err, first, second)
		}
	})
}
