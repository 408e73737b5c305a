package wire

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"objmig/internal/core"
)

func TestMarshalRoundTrip(t *testing.T) {
	t.Parallel()
	in := InvokeReq{
		Obj:    core.OID{Origin: "n1", Seq: 42},
		Method: "Get",
		Arg:    []byte{1, 2, 3},
	}
	data, err := MarshalAppend(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out InvokeReq
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(origin string, seq uint64, typ string, state []byte, fixed bool, owner string, block uint64) bool {
		in := Snapshot{
			ID:    core.OID{Origin: core.NodeID(origin), Seq: seq},
			Type:  typ,
			State: state,
			Pol: core.ObjState{
				Fixed: fixed,
				Lock: core.LockState{
					Held:  owner != "",
					Owner: core.NodeID(owner),
					Block: core.BlockID(block),
				},
				OpenMoves: map[core.NodeID]int{"a": 1, "b": 2},
			},
			Edges: []EdgeRec{{Other: core.OID{Origin: "x", Seq: 1}, Alliance: 3}},
		}
		data, err := MarshalAppend(nil, &in)
		if err != nil {
			return false
		}
		var out Snapshot
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		// gob encodes nil and empty slices identically; normalise.
		if len(in.State) == 0 {
			in.State, out.State = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalError(t *testing.T) {
	t.Parallel()
	var out InvokeReq
	if err := Unmarshal([]byte("not gob"), &out); err == nil {
		t.Fatal("garbage decoded successfully")
	}
}

// TestMarshalAppendBodyStaysOnStack: MarshalAppend does not leak its
// argument, so a body built on the caller's stack stays there and an
// encode into a reused buffer allocates nothing. Every request the rpc
// layer sends relies on it.
func TestMarshalAppendBodyStaysOnStack(t *testing.T) {
	buf := make([]byte, 0, 256)
	oid := core.OID{Origin: "n1", Seq: 7}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = MarshalAppend(buf[:0], &InvokeReq{Obj: oid, Method: "Get", From: "n2"})
		if err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MarshalAppend of a stack-built body: %v allocs, want 0", allocs)
	}
}

// TestCodecErrorTexts pins the codec's error messages: each names the
// value's dynamic type exactly as %T prints it.
func TestCodecErrorTexts(t *testing.T) {
	t.Parallel()
	img, err := MarshalAppend(nil, &InvokeReq{Obj: core.OID{Origin: "n1", Seq: 1}, Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	ping, err := MarshalAppend(nil, &PingReq{Payload: "p"})
	if err != nil {
		t.Fatal(err)
	}
	var out InvokeReq
	_, marshalInt := MarshalAppend(nil, 42)
	_, marshalNil := MarshalAppend(nil, nil)
	for _, tc := range []struct {
		err       error
		want, old string
	}{
		{marshalInt, "wire: marshal int: not a message body",
			fmt.Sprintf("wire: marshal %T: not a message body", 42)},
		{marshalNil, "wire: marshal <nil>: not a message body",
			fmt.Sprintf("wire: marshal %T: not a message body", nil)},
		{Unmarshal(img, 42), "wire: unmarshal int: not a message body",
			fmt.Sprintf("wire: unmarshal %T: not a message body", 42)},
		{Unmarshal(nil, &out), "wire: unmarshal *wire.InvokeReq: truncated body at offset 0",
			fmt.Sprintf("wire: unmarshal %T: truncated body at offset 0", &out)},
		{Unmarshal(ping, &out), fmt.Sprintf("wire: unmarshal *wire.InvokeReq: body carries tag %d", ping[0]),
			fmt.Sprintf("wire: unmarshal %T: body carries tag %d", &out, ping[0])},
		{Unmarshal(append(img, 0), &out), "wire: unmarshal *wire.InvokeReq: 1 trailing bytes",
			fmt.Sprintf("wire: unmarshal %T: %d trailing bytes", &out, 1)},
	} {
		if tc.err == nil {
			t.Errorf("no error, want %q", tc.want)
			continue
		}
		if got := tc.err.Error(); got != tc.want || got != tc.old {
			t.Errorf("error %q, want %q (the %%T form: %q)", got, tc.want, tc.old)
		}
	}
}

func TestRemoteError(t *testing.T) {
	t.Parallel()
	e := Errorf(CodeFixed, "object %s is fixed", "n1/3")
	if e.Code != CodeFixed {
		t.Fatalf("code = %v", e.Code)
	}
	if e.Error() != "remote: object n1/3 is fixed" {
		t.Fatalf("Error() = %q", e.Error())
	}
	moved := &RemoteError{Code: CodeMoved, Msg: "gone", To: "n7"}
	if moved.Error() != "remote: gone (moved to n7)" {
		t.Fatalf("Error() = %q", moved.Error())
	}
	var re *RemoteError
	if !errors.As(error(moved), &re) || re.To != "n7" {
		t.Fatal("errors.As failed on RemoteError")
	}
}

func TestKindString(t *testing.T) {
	t.Parallel()
	if KInvoke.String() != "invoke" || KCommit.String() != "commit" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("unknown kind: %q", Kind(200).String())
	}
	if Kind(0).Valid() || Kind(200).Valid() || !KPing.Valid() {
		t.Fatal("Kind.Valid mismatch")
	}
}

// TestKindNumbersPinned: kind numbers are the protocol. Live kinds keep
// theirs for good; the three retired session kinds keep their slots
// reserved (so nothing after them renumbers) but are not valid.
func TestKindNumbersPinned(t *testing.T) {
	t.Parallel()
	pinned := map[Kind]uint8{
		KInvoke: 1, KMove: 2, KEnd: 3, KMigrate: 4, KLocate: 5, KPause: 6, KInstall: 7,
		KCommit: 8, KAbort: 9, KHomeUpdate: 10, KEdgeAdd: 11, KEdgeDel: 12, KEdges: 13,
		KFix: 14, KPing: 15, KLoadGossip: 19, KInventory: 20,
	}
	for k, num := range pinned {
		if uint8(k) != num || !k.Valid() {
			t.Errorf("%v = %d (valid %v), want %d and valid", k, uint8(k), k.Valid(), num)
		}
	}
	if int(kMax) != len(pinned)+4 {
		t.Errorf("kMax = %d: a kind was added or removed without being pinned here", kMax)
	}
	for k := Kind(16); k <= 18; k++ {
		if k.Valid() {
			t.Errorf("retired kind %d is valid", k)
		}
		if want := fmt.Sprintf("kind(%d)", uint8(k)); k.String() != want {
			t.Errorf("retired kind %d is named %q", k, k.String())
		}
	}
}
