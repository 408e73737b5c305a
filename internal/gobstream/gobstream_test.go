package gobstream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type inner struct {
	ID   uint64
	Tags []string
}

type nested struct {
	Name  string
	In    inner
	Ptr   *inner
	List  []inner
	Index map[string]int
	Blob  []byte
}

// four is the four-field struct of the issue's measurements.
type four struct {
	A int
	B string
	C float64
	D bool
}

// celsius carries its own wire form.
type celsius struct{ milli int64 }

func (c celsius) GobEncode() ([]byte, error) { return []byte(fmt.Sprintf("%dmC", c.milli)), nil }
func (c *celsius) GobDecode(b []byte) error {
	_, err := fmt.Sscanf(string(b), "%dmC", &c.milli)
	return err
}

type withGobEncoder struct {
	T    celsius
	Note string
}

type withInterface struct {
	Name string
	V    interface{}
}

type withChan struct{ C chan int }

func plainEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func plainDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// samples are pointers to values, the shape every caller passes. Maps
// hold one key: gob writes map entries in iteration order.
func samples() []any {
	n := 42
	s := "hello"
	b := []byte{1, 2, 3}
	e := struct{}{}
	p := &inner{ID: 7}
	return []any{
		&n, &s, &b, &e,
		&inner{ID: 9, Tags: []string{"x", "y"}},
		&nested{Name: "n", In: inner{ID: 1}, Ptr: &inner{ID: 2, Tags: []string{"t"}},
			List: []inner{{ID: 3}, {ID: 4}}, Index: map[string]int{"k": 5}, Blob: []byte("blob")},
		&[]inner{{ID: 1}, {ID: 2}},
		&map[string]inner{"only": {ID: 8}},
		&p,
		&four{A: 1, B: "two", C: 3.5, D: true},
		&withGobEncoder{T: celsius{21500}, Note: "warm"},
		&celsius{-3},
	}
}

func streamOf(v any) *Stream { return For(reflect.TypeOf(v)) }

// (a) AppendEncode writes exactly what a fresh gob.Encoder writes, on
// the first message and on the hundredth.
func TestByteEquivalence(t *testing.T) {
	for _, v := range samples() {
		want, wantErr := plainEncode(v)
		s := streamOf(v)
		for i := 1; i <= 100; i++ {
			prefix := []byte("hdr")
			got, err := s.AppendEncode(prefix, v)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%T message %d: err %q, plain gob %q", v, i, errText(err), errText(wantErr))
			}
			if err != nil {
				if string(got) != "hdr" {
					t.Fatalf("%T: failed encode returned %q, want dst unchanged", v, got)
				}
				continue
			}
			if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
				t.Fatalf("%T message %d:\n got  %x\n want %x", v, i, got[3:], want)
			}
		}
	}
}

func TestEligibility(t *testing.T) {
	for _, tc := range []struct {
		v      any
		pooled bool
	}{
		{new(int), true},
		{new(four), true},
		{new(nested), true},
		{new(withGobEncoder), true},
		{new(struct{}), true},
		{new(struct{ a int }), false},  // gob: no exported fields
		{new(withInterface), false},    // lazy concrete-type descriptors
		{new([]interface{}), false},    // reaches an interface through a slice
		{new(map[string]error), false}, // … and through a map
		{new(withChan), false},         // nothing gob can send
		{new(chan int), false},
	} {
		if got := streamOf(tc.v).pooled; got != tc.pooled {
			t.Errorf("%T: pooled = %v, want %v", tc.v, got, tc.pooled)
		}
	}
	if For(reflect.TypeOf(new(**four))) != For(reflect.TypeOf(four{})) {
		t.Error("pointer types must share their base type's stream")
	}
}

// (b) plain gob → Stream.Decode, and Stream.AppendEncode → plain gob.
func TestCrossDecode(t *testing.T) {
	for _, v := range samples() {
		plain, err := plainEncode(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		s := streamOf(v)
		ours, err := s.AppendEncode(nil, v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		for i := 0; i < 3; i++ { // miss, then learned
			got := reflect.New(reflect.TypeOf(v).Elem())
			if err := s.Decode(plain, got.Interface()); err != nil {
				t.Fatalf("%T: Stream.Decode(plain gob): %v", v, err)
			}
			if !reflect.DeepEqual(got.Interface(), v) {
				t.Fatalf("%T: Stream.Decode = %+v, want %+v", v, got.Elem(), reflect.ValueOf(v).Elem())
			}
		}
		got := reflect.New(reflect.TypeOf(v).Elem())
		if err := plainDecode(ours, got.Interface()); err != nil {
			t.Fatalf("%T: plain gob decode of AppendEncode: %v", v, err)
		}
		if !reflect.DeepEqual(got.Interface(), v) {
			t.Fatalf("%T: plain decode = %+v", v, got.Elem())
		}
	}
}

// skewType is structurally `four` plus one ignorable field whose name
// makes the type — hence its gob id and descriptors — distinct.
func skewType(i int) reflect.Type {
	ft := reflect.TypeOf(four{})
	fields := make([]reflect.StructField, 0, ft.NumField()+1)
	for j := 0; j < ft.NumField(); j++ {
		fields = append(fields, ft.Field(j))
	}
	fields = append(fields, reflect.StructField{Name: fmt.Sprintf("Pad%d", i), Type: reflect.TypeOf(0)})
	return reflect.StructOf(fields)
}

func skewMessage(t testing.TB, i int, a int, b string) []byte {
	t.Helper()
	v := reflect.New(skewType(i))
	v.Elem().Field(0).SetInt(int64(a))
	v.Elem().Field(1).SetString(b)
	data, err := plainEncode(v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// (c) a sender whose preamble differs from ours (another process,
// another registration order) is learned once, up to the bound.
func TestPreambleSkew(t *testing.T) {
	s := newStream(reflect.TypeOf(four{})) // private: its table starts empty
	tableLen := func() int {
		if p := s.learned.Load(); p != nil {
			return len(*p)
		}
		return 0
	}
	decode := func(data []byte, a int, b string) {
		t.Helper()
		var got four
		if err := s.Decode(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.A != a || got.B != b {
			t.Fatalf("decoded %+v, want A=%d B=%q", got, a, b)
		}
	}
	if bytes.HasPrefix(skewMessage(t, 1, 1, "x"), s.preamble) {
		t.Fatal("skewed sender has the local preamble; the test proves nothing")
	}
	decode(skewMessage(t, 1, 10, "first"), 10, "first")
	if m, n := s.tableMisses.Load(), tableLen(); m != 1 || n != 1 {
		t.Fatalf("after the first skewed message: misses %d, table %d; want 1, 1", m, n)
	}
	decode(skewMessage(t, 1, 11, "second"), 11, "second")
	if m, n := s.tableMisses.Load(), tableLen(); m != 1 || n != 1 {
		t.Fatalf("second message from the same sender: misses %d, table %d; want a hit (1, 1)", m, n)
	}
	for i := 2; i <= maxPreambles; i++ {
		decode(skewMessage(t, i, i, "fill"), i, "fill")
	}
	if n := tableLen(); n != maxPreambles {
		t.Fatalf("table holds %d preambles, want %d", n, maxPreambles)
	}
	before := s.tableMisses.Load()
	for i := 0; i < 3; i++ {
		decode(skewMessage(t, maxPreambles+1, 99, "ninth"), 99, "ninth")
	}
	if m, n := s.tableMisses.Load(), tableLen(); m != before+3 || n != maxPreambles {
		t.Fatalf("ninth preamble: misses %d → %d, table %d; want +3 and no growth", before, m, n)
	}
	// The learned senders are still served from the table.
	decode(skewMessage(t, 3, 33, "again"), 33, "again")
	if m := s.tableMisses.Load(); m != before+3 {
		t.Fatalf("learned sender missed the table after it filled (misses %d)", m)
	}
}

// (d) interface-bearing and unencodable types behave exactly as plain
// gob, error text included.
func TestPlainPath(t *testing.T) {
	gob.Register(inner{})
	in := &withInterface{Name: "boxed", V: inner{ID: 5, Tags: []string{"a"}}}
	s := streamOf(in)
	for i := 0; i < 3; i++ {
		want, _ := plainEncode(in)
		data, err := s.AppendEncode(nil, in)
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("interface type: err %v, bytes equal %v", err, bytes.Equal(data, want))
		}
		var out withInterface
		if err := s.Decode(data, &out); err != nil || !reflect.DeepEqual(&out, in) {
			t.Fatalf("interface type round trip: %+v, %v", out, err)
		}
	}
	for _, v := range []any{&withChan{}, new(chan int), new(func()), &struct{ a int }{}} {
		_, wantErr := plainEncode(v)
		if wantErr == nil {
			t.Fatalf("%T: plain gob encodes it; not a useful specimen", v)
		}
		got, err := streamOf(v).AppendEncode([]byte{9}, v)
		if errText(err) != wantErr.Error() || len(got) != 1 {
			t.Errorf("%T: err %q (len %d), plain gob %q", v, errText(err), len(got), wantErr)
		}
	}
	// Decoding into the wrong shape reports gob's own complaint.
	data, _ := plainEncode(&four{A: 1})
	var n int
	want := plainDecode(data, &n)
	if err := streamOf(&n).Decode(data, &n); want == nil || errText(err) != want.Error() {
		t.Errorf("type mismatch: err %q, plain gob %q", errText(err), errText(want))
	}
}

// fussy encodes itself, and refuses negative values.
type fussy struct{ N int }

func (f fussy) GobEncode() ([]byte, error) {
	if f.N < 0 {
		return nil, fmt.Errorf("fussy: negative %d", f.N)
	}
	return []byte{byte(f.N)}, nil
}

func (f *fussy) GobDecode(b []byte) error { f.N = int(b[0]); return nil }

// A value that fails to encode fails a pooled type with gob's own
// error, and the failed encoder is not reused: the next message is
// again byte-identical to plain gob's.
func TestEncodeErrorOnPooledType(t *testing.T) {
	type holder struct {
		Name string
		F    fussy
	}
	bad := &holder{Name: "bad", F: fussy{-1}}
	s := streamOf(bad)
	if !s.pooled {
		t.Fatal("holder should be pooled: its zero value encodes")
	}
	_, wantErr := plainEncode(bad)
	if wantErr == nil {
		t.Fatal("plain gob encodes the bad value; not a useful specimen")
	}
	for i := 0; i < 3; i++ {
		got, err := s.AppendEncode([]byte{1, 2}, bad)
		if errText(err) != wantErr.Error() || !bytes.Equal(got, []byte{1, 2}) {
			t.Fatalf("bad value: err %q, dst %v; plain gob %q", errText(err), got, wantErr)
		}
		ok := &holder{Name: "ok", F: fussy{i}}
		want, _ := plainEncode(ok)
		if got, err := s.AppendEncode(nil, ok); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("message after a failed encode: err %v, bytes equal %v", err, bytes.Equal(got, want))
		}
	}
}

// (e) corrupt or truncated input is an error, takes its decoder out of
// circulation, and does not disturb the next message.
func TestCorruptInput(t *testing.T) {
	v := &nested{Name: "ok", In: inner{ID: 1, Tags: []string{"a", "b"}}, Blob: []byte("0123456789")}
	s := streamOf(v)
	good, err := s.AppendEncode(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		t.Helper()
		var out nested
		if err := s.Decode(good, &out); err != nil || !reflect.DeepEqual(&out, v) {
			t.Fatalf("good message after a bad one: %+v, %v", out, err)
		}
	}
	roundTrip() // learn the preamble so the bad inputs reach pooled decoders
	split, _ := lastMessage(good)
	for cut := split; cut < len(good); cut++ {
		// Truncated value with its length byte patched to match, so the
		// framing still parses and the damage reaches the decoder.
		bad := append([]byte{}, good[:cut]...)
		if cut > split {
			bad[split] = byte(cut - split - 1)
		}
		var out nested
		got, want := s.Decode(bad, &out), plainDecode(bad, new(nested))
		if (got == nil) != (want == nil) || errText(got) != errText(want) {
			t.Fatalf("cut at %d: err %q, plain gob %q", cut, errText(got), errText(want))
		}
		roundTrip()
	}
	for i := range good {
		bad := append([]byte{}, good...)
		bad[i] ^= 0x55
		var a, b nested
		got, want := s.Decode(bad, &a), plainDecode(bad, &b)
		if (got == nil) != (want == nil) {
			t.Fatalf("flip at %d: err %v, plain gob %v", i, got, want)
		}
		if got == nil && !reflect.DeepEqual(a, b) {
			t.Fatalf("flip at %d: decoded %+v, plain gob %+v", i, a, b)
		}
		roundTrip()
	}
	if err := s.Decode(nil, new(nested)); errText(err) != errText(plainDecode(nil, new(nested))) {
		t.Fatalf("empty input: %v", err)
	}
}

// (f) decoded strings and byte slices own their memory.
func TestDecodedValuesDoNotAlias(t *testing.T) {
	v := &nested{Name: "name-one", Blob: []byte("blob-one"), In: inner{Tags: []string{"tag-one"}}}
	s := streamOf(v)
	data, err := s.AppendEncode(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	var first nested
	for i := 0; i < 2; i++ { // second pass runs on the pooled decoder
		first = nested{}
		if err := s.Decode(data, &first); err != nil {
			t.Fatal(err)
		}
	}
	// Scribble over the input, then push another message through the
	// same pooled decoder.
	other, _ := s.AppendEncode(nil, &nested{Name: "name-two", Blob: []byte("blob-two"), In: inner{Tags: []string{"tag-two"}}})
	for i := range data {
		data[i] = 0xEE
	}
	var second nested
	if err := s.Decode(other, &second); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&first, v) {
		t.Fatalf("first decode changed under reuse: %+v", first)
	}
	if second.Name != "name-two" || string(second.Blob) != "blob-two" {
		t.Fatalf("second decode: %+v", second)
	}
	// The encode side: output appended to a caller buffer is the
	// caller's; a later message must not write into it.
	mine, _ := s.AppendEncode(make([]byte, 0, 4096), v)
	keep := append([]byte{}, mine...)
	if _, err := s.AppendEncode(nil, &nested{Name: strings.Repeat("z", 512)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mine, keep) {
		t.Fatal("an earlier AppendEncode result changed under a later encode")
	}
}

// A message past maxPooled is served but its stream is not kept.
func TestHugeMessageNotPooled(t *testing.T) {
	type big struct{ Blob []byte }
	s := For(reflect.TypeOf(big{}))
	small := &big{Blob: []byte("small")}
	huge := &big{Blob: bytes.Repeat([]byte{7}, maxPooled+1)}
	for _, v := range []*big{small, huge, small, huge, small} {
		data, err := s.AppendEncode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := plainEncode(v)
		if !bytes.Equal(data, want) {
			t.Fatalf("%d-byte state: bytes differ from plain gob", len(v.Blob))
		}
		var out big
		if err := s.Decode(data, &out); err != nil || !bytes.Equal(out.Blob, v.Blob) {
			t.Fatalf("%d-byte state: round trip failed: %v", len(v.Blob), err)
		}
	}
}

// (g) many goroutines, three types, one set of pools.
func TestConcurrentHammer(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 300; i++ {
				var in, out any
				switch (g + i) % 3 {
				case 0:
					n := g*1000 + i
					in, out = &n, new(int)
				case 1:
					in, out = &four{A: i, B: fmt.Sprint("g", g), C: float64(i) / 2, D: i%2 == 0}, new(four)
				default:
					in, out = &nested{Name: fmt.Sprint(g, "/", i), In: inner{ID: uint64(i)}, Index: map[string]int{"g": g}}, new(nested)
				}
				s := streamOf(in)
				var err error
				if buf, err = s.AppendEncode(buf[:0], in); err != nil {
					t.Error(err)
					return
				}
				if err := s.Decode(buf, out); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(in, out) {
					t.Errorf("goroutine %d message %d: got %+v, want %+v", g, i, out, in)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// (h) whatever the bytes, Stream.Decode and a fresh gob.Decoder agree.
func FuzzGobStreamDecode(f *testing.F) {
	for _, v := range samples() {
		if data, err := plainEncode(v); err == nil {
			f.Add(data)
		}
	}
	f.Add(skewMessage(f, 1, 5, "skew"))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x04, 0x00, 0x54})
	s := For(reflect.TypeOf(nested{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want nested
		gotErr, wantErr := s.Decode(data, &got), plainDecode(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Stream.Decode err %v, plain gob err %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Stream.Decode %+v, plain gob %+v", got, want)
		}
	})
}

// --- benchmarks: one encode+decode round trip per iteration ---

var benchSpecimens = []struct {
	name string
	in   any
	out  func() any
}{
	{"Int", func() any { n := 12345; return &n }(), func() any { return new(int) }},
	{"Struct", &four{A: 7, B: "seven", C: 7.7, D: true}, func() any { return new(four) }},
	{"State256KiB", &struct{ Blob []byte }{bytes.Repeat([]byte{0x5A}, 256<<10)}, func() any { return new(struct{ Blob []byte }) }},
}

// BenchmarkGobStream is the primed round trip; scripts/alloc-budget.txt
// holds its allocs/op (the decode's message copy and its output).
func BenchmarkGobStream(b *testing.B) {
	for _, sp := range benchSpecimens {
		b.Run(sp.name, func(b *testing.B) {
			s := streamOf(sp.in)
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = s.AppendEncode(buf[:0], sp.in); err != nil {
					b.Fatal(err)
				}
				if err := s.Decode(buf, sp.out()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGobPlain is the per-message baseline the streams replaced.
func BenchmarkGobPlain(b *testing.B) {
	for _, sp := range benchSpecimens {
		b.Run(sp.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := plainEncode(sp.in)
				if err != nil {
					b.Fatal(err)
				}
				if err := plainDecode(data, sp.out()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
