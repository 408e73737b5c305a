package valcodec

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

type inner struct {
	X    int16
	Name string
	G    [2]bool
}

// allKinds reaches every leaf kind, a nested struct, an array of
// structs and an empty array.
type allKinds struct {
	B    bool
	I    int
	I8   int8
	I16  int16
	I32  int32
	I64  int64
	U    uint
	U8   uint8
	U16  uint16
	U32  uint32
	U64  uint64
	F32  float32
	F64  float64
	C64  complex64
	C128 complex128
	S    string
	A    [3]inner
	E    [0]int
}

func specimen() allKinds {
	return allKinds{
		B: true, I: -5, I8: math.MinInt8, I16: math.MaxInt16, I32: -1 << 30, I64: math.MinInt64,
		U: 7, U8: math.MaxUint8, U16: 300, U32: math.MaxUint32, U64: math.MaxUint64,
		F32: -1.5, F64: math.Inf(1), C64: complex(1, -2), C128: complex(math.Pi, 0),
		S: "héllo",
		A: [3]inner{{X: -1, Name: "a", G: [2]bool{true, false}}, {}, {X: 9, Name: strings.Repeat("z", 200)}},
	}
}

func codecOf[T any](t testing.TB) *Codec {
	t.Helper()
	c := For(reflect.TypeOf((*T)(nil)).Elem())
	if c == nil {
		t.Fatalf("%v is not value-safe", reflect.TypeOf((*T)(nil)).Elem())
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := codecOf[allKinds](t)
	in := specimen()
	img := Append(c, nil, &in)
	var out allKinds
	if err := Decode(c, img, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
	if again := Append(c, nil, &out); !bytes.Equal(again, img) {
		t.Fatalf("re-encode differs:\n %x\n %x", img, again)
	}
	// The image is the documented layout: a one-field struct of an int8
	// is its zigzag varint, a string its length and bytes, a float32 its
	// little-endian bits.
	type one struct{ V int8 }
	v := one{V: -2}
	if got := hex.EncodeToString(Append(codecOf[one](t), nil, &v)); got != "03" {
		t.Errorf("int8 -2 encodes to %s, want 03", got)
	}
	s := "ab"
	if got := hex.EncodeToString(Append(codecOf[string](t), nil, &s)); got != "026162" {
		t.Errorf(`"ab" encodes to %s, want 026162`, got)
	}
	f := float32(1)
	if got := hex.EncodeToString(Append(codecOf[float32](t), nil, &f)); got != "0000803f" {
		t.Errorf("float32 1 encodes to %s, want 0000803f", got)
	}
}

func TestFingerprint(t *testing.T) {
	type pair struct {
		A int64
		B string
	}
	type twin struct { // another name, the same layout
		A int64
		B string
	}
	type swapped struct {
		B string
		A int64
	}
	type renamed struct {
		A int64
		C string
	}
	type narrow struct {
		A int32
		B string
	}
	fp := func(v any) uint64 { return For(reflect.TypeOf(v)).Fingerprint() }
	if fp(pair{}) != fp(twin{}) {
		t.Error("two structs with the same fields have different fingerprints")
	}
	for _, other := range []any{swapped{}, renamed{}, narrow{}, int64(0), [1]pair{}} {
		if fp(other) == fp(pair{}) {
			t.Errorf("%T has the fingerprint of pair", other)
		}
	}
	if fp([3]int8{}) == fp([4]int8{}) {
		t.Error("array lengths do not change the fingerprint")
	}
	if fp(int32(0)) == fp(int64(0)) || fp(uint8(0)) == fp(int8(0)) || fp(float32(0)) == fp(int32(0)) {
		t.Error("leaf kinds collide")
	}
	// int is its platform's width.
	if wide := strconv.IntSize == 64; (fp(0) == fp(int64(0))) != wide || (fp(0) == fp(int32(0))) == wide {
		t.Errorf("int's fingerprint does not follow its %d-bit width", strconv.IntSize)
	}
	a, r := codecOf[int64](t), codecOf[string](t)
	if Pair(a, r) == Pair(r, a) || Pair(a, r) == 0 {
		t.Error("Pair is symmetric or zero")
	}
}

func TestDecodeStrict(t *testing.T) {
	type rec struct {
		B bool
		N int8
		U uint16
		S string
	}
	c := codecOf[rec](t)
	good := rec{B: true, N: -3, U: 500, S: "xy"}
	img := Append(c, nil, &good)
	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"truncated", img[:len(img)-1], "truncated"},
		{"empty", nil, "truncated"},
		{"trailing", append(append([]byte{}, img...), 0), "trailing"},
		{"bool 2", append([]byte{2}, img[1:]...), "bool"},
		{"varint not minimal", append([]byte{1, 0x85, 0x00}, img[2:]...), "minimal"},
		{"int8 out of range", append([]byte{1, 0x80, 0x02}, img[2:]...), "range"},
		{"uint16 out of range", []byte{1, 5, 0x80, 0x80, 0x04, 2, 'x', 'y'}, "range"},
		{"string past the end", []byte{1, 5, 0xf4, 0x03, 9, 'x'}, "truncated"},
	} {
		var out rec
		err := Decode(c, tc.img, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error about %q", tc.name, err, tc.want)
		}
	}
}

// TestAppendDecodeAllocate: an encode into a buffer with room, and a
// decode of a value without strings, allocate nothing — the value
// stays on the caller's stack.
func TestAppendDecodeAllocate(t *testing.T) {
	type nums struct {
		A int64
		F float64
		G [4]uint16
	}
	c := codecOf[nums](t)
	buf := make([]byte, 0, 64)
	img := Append(c, nil, &nums{A: 1, F: 2, G: [4]uint16{3}})
	allocs := testing.AllocsPerRun(100, func() {
		v := nums{A: -9, F: 0.5}
		buf = Append(c, buf[:0], &v)
		var out nums
		if err := Decode(c, img, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per encode and decode, want 0", allocs)
	}
}

// FuzzValueDecode: no input panics the decoder, and whatever decodes
// re-encodes to exactly the input — so truncated or trailing bytes,
// non-minimal varints and out-of-range integers are all errors.
func FuzzValueDecode(f *testing.F) {
	c := codecOf[allKinds](f)
	for _, v := range []allKinds{{}, specimen(), {S: "x", A: [3]inner{{Name: "y"}}}} {
		f.Add(Append(c, nil, &v))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0x80})
	f.Fuzz(func(t *testing.T, img []byte) {
		var v allKinds
		if err := Decode(c, img, &v); err != nil {
			return
		}
		if again := Append(c, nil, &v); !bytes.Equal(again, img) {
			t.Fatalf("%x decodes to %+v, which re-encodes to %x", img, v, again)
		}
	})
}
