// Package valcodec is the value layout of value-safe Go types: the
// fixed-order binary image a remote call's argument and result travel
// in when both are value-safe, instead of a gob image.
//
// A type is value-safe when a gob round trip of it yields exactly a Go
// copy of the value: bool, sized integers, floats, complex numbers and
// strings, arrays of value-safe types, and structs of at least one
// field whose fields are all exported and value-safe — none of them
// with custom gob, binary or text marshalling. Such a value holds no
// pointer but its strings' bytes, so For compiles its type once into a
// list of leaves at fixed offsets, and a Codec walks a value's memory
// directly:
//
//   - bool: one byte, 0 or 1;
//   - signed integers: a zigzag varint; unsigned: a uvarint;
//   - floats: the IEEE bits, little-endian (4 or 8 bytes); a complex
//     number is its real part, then its imaginary part;
//   - string: a uvarint length, then the bytes;
//   - array: its elements in order (the length is in the type);
//   - struct: its fields in declaration order.
//
// There is no tag, no length and no field name in an image: both ends
// must agree on the layout, which is what the fingerprint checks. A
// decode is strict — a truncated image, trailing bytes, a varint that
// is not minimal, a bool that is not 0 or 1 or an integer out of its
// type's range is an error — so whatever decodes re-encodes to the
// same bytes.
package valcodec

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"sync"
	"unsafe"
)

// kind is a leaf's encoding. Integers are named by their width, so a
// Go int is intN of its platform and two builds that disagree on its
// width disagree on the fingerprint.
type kind uint8

const (
	kBool kind = iota + 1
	kInt8
	kInt16
	kInt32
	kInt64
	kUint8
	kUint16
	kUint32
	kUint64
	kFloat32
	kFloat64
	kComplex64
	kComplex128
	kString
	kArray
)

// op is one leaf at an offset into the value, or an array of n
// elements, each of which runs elem at its own stride.
type op struct {
	kind   kind
	off    uintptr
	n      int
	stride uintptr
	elem   []op
}

// Codec is the value layout of one value-safe type. It is safe for
// concurrent use.
type Codec struct {
	typ reflect.Type
	ops []op
	fp  uint64
}

// Fingerprint digests the layout: the leaves' kinds in order, the
// struct field names and the array lengths. Two types with equal
// fingerprints read each other's images; a reordered, renamed or
// retyped field changes it. It is never 0.
func (c *Codec) Fingerprint() uint64 { return c.fp }

// Pair is the fingerprint of a call signature, an argument layout and
// a result layout together. It is never 0, so 0 can mean "no value
// layout" on the wire.
func Pair(arg, res *Codec) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], arg.fp)
	binary.LittleEndian.PutUint64(b[8:], res.fp)
	h.Write(b[:])
	return nonZero(h.Sum64())
}

func nonZero(fp uint64) uint64 {
	if fp == 0 {
		return 1
	}
	return fp
}

var codecs sync.Map // reflect.Type → *Codec, nil for a type that is not value-safe

// For returns the codec of t, or nil when t is not value-safe. The
// walk that decides value-safety is the one that compiles the codec,
// once per type.
func For(t reflect.Type) *Codec {
	if c, ok := codecs.Load(t); ok {
		return c.(*Codec)
	}
	var c *Codec
	var desc []byte
	if ops, ok := compile(t, 0, &desc); ok {
		h := fnv.New64a()
		h.Write(desc)
		c = &Codec{typ: t, ops: ops, fp: nonZero(h.Sum64())}
	}
	got, _ := codecs.LoadOrStore(t, c)
	return got.(*Codec)
}

// marshalers are the interfaces through which a type takes over its own
// encoding; a gob round trip of such a type need not be a copy.
var marshalers = []reflect.Type{
	reflect.TypeOf((*gob.GobEncoder)(nil)).Elem(),
	reflect.TypeOf((*gob.GobDecoder)(nil)).Elem(),
	reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem(),
}

// leaves maps the scalar reflect kinds to their encodings; int and
// uint take their platform width.
var leaves = map[reflect.Kind]kind{
	reflect.Bool: kBool, reflect.String: kString,
	reflect.Int8: kInt8, reflect.Int16: kInt16, reflect.Int32: kInt32, reflect.Int64: kInt64,
	reflect.Uint8: kUint8, reflect.Uint16: kUint16, reflect.Uint32: kUint32, reflect.Uint64: kUint64,
	reflect.Float32: kFloat32, reflect.Float64: kFloat64,
	reflect.Complex64: kComplex64, reflect.Complex128: kComplex128,
	reflect.Int: kInt32 + kind(strconv.IntSize/64), reflect.Uint: kUint32 + kind(strconv.IntSize/64),
}

// compile appends the ops of a t at offset off and t's description to
// desc, or reports false when t is not value-safe: it holds a pointer,
// slice, map, interface, channel or func, an unexported or marshalled
// part, or an empty struct.
func compile(t reflect.Type, off uintptr, desc *[]byte) ([]op, bool) {
	for _, m := range marshalers {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return nil, false
		}
	}
	if k, ok := leaves[t.Kind()]; ok {
		*desc = append(*desc, byte(k))
		return []op{{kind: k, off: off}}, true
	}
	switch t.Kind() {
	case reflect.Array:
		*desc = binary.AppendUvarint(append(*desc, byte(kArray)), uint64(t.Len()))
		elem, ok := compile(t.Elem(), 0, desc)
		if !ok {
			return nil, false
		}
		return []op{{kind: kArray, off: off, n: t.Len(), stride: t.Elem().Size(), elem: elem}}, true
	case reflect.Struct:
		if t.NumField() == 0 {
			return nil, false
		}
		*desc = append(*desc, '{')
		var ops []op
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, false
			}
			*desc = append(append(*desc, f.Name...), ':')
			fops, ok := compile(f.Type, off+f.Offset, desc)
			if !ok {
				return nil, false
			}
			ops = append(ops, fops...)
		}
		*desc = append(*desc, '}')
		return ops, true
	}
	return nil, false
}

// Append appends the value layout of *v to dst and returns the
// extended slice. c must be the codec of T.
func Append[T any](c *Codec, dst []byte, v *T) []byte {
	return appendOps(dst, c.ops, unsafe.Pointer(v))
}

// Decode decodes one value-layout image of T into *v, which should be
// the zero value. c must be the codec of T. The image must be complete
// and exact: no trailing bytes.
func Decode[T any](c *Codec, src []byte, v *T) error {
	d := decoder{b: src}
	d.ops(c.ops, unsafe.Pointer(v))
	switch {
	case d.err != nil:
		return fmt.Errorf("valcodec: decode %v: %w", c.typ, d.err)
	case d.pos != len(src):
		return fmt.Errorf("valcodec: decode %v: %d trailing bytes", c.typ, len(src)-d.pos)
	}
	return nil
}

func appendOps(dst []byte, ops []op, p unsafe.Pointer) []byte {
	for i := range ops {
		o := &ops[i]
		q := unsafe.Add(p, o.off)
		switch o.kind {
		case kBool:
			b := byte(0)
			if *(*bool)(q) {
				b = 1
			}
			dst = append(dst, b)
		case kInt8:
			dst = binary.AppendVarint(dst, int64(*(*int8)(q)))
		case kInt16:
			dst = binary.AppendVarint(dst, int64(*(*int16)(q)))
		case kInt32:
			dst = binary.AppendVarint(dst, int64(*(*int32)(q)))
		case kInt64:
			dst = binary.AppendVarint(dst, *(*int64)(q))
		case kUint8:
			dst = binary.AppendUvarint(dst, uint64(*(*uint8)(q)))
		case kUint16:
			dst = binary.AppendUvarint(dst, uint64(*(*uint16)(q)))
		case kUint32:
			dst = binary.AppendUvarint(dst, uint64(*(*uint32)(q)))
		case kUint64:
			dst = binary.AppendUvarint(dst, *(*uint64)(q))
		case kFloat32:
			dst = binary.LittleEndian.AppendUint32(dst, *(*uint32)(q))
		case kFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(q))
		case kComplex64:
			dst = binary.LittleEndian.AppendUint32(dst, *(*uint32)(q))
			dst = binary.LittleEndian.AppendUint32(dst, *(*uint32)(unsafe.Add(q, 4)))
		case kComplex128:
			dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(q))
			dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(unsafe.Add(q, 8)))
		case kString:
			s := *(*string)(q)
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		case kArray:
			for j := 0; j < o.n; j++ {
				dst = appendOps(dst, o.elem, unsafe.Add(q, uintptr(j)*o.stride))
			}
		}
	}
	return dst
}

var (
	errTruncated = errors.New("truncated image")
	errVarint    = errors.New("varint not minimal")
	errBool      = errors.New("bool not 0 or 1")
	errRange     = errors.New("integer out of range")
)

// decoder reads an image from pos; the first error sticks and later
// leaves read nothing.
type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) ops(ops []op, p unsafe.Pointer) {
	for i := range ops {
		if d.err != nil {
			return
		}
		o := &ops[i]
		q := unsafe.Add(p, o.off)
		switch o.kind {
		case kBool:
			switch d.byte() {
			case 0:
				*(*bool)(q) = false
			case 1:
				*(*bool)(q) = true
			default:
				d.fail(errBool)
			}
		case kInt8:
			*(*int8)(q) = int8(d.varint(8))
		case kInt16:
			*(*int16)(q) = int16(d.varint(16))
		case kInt32:
			*(*int32)(q) = int32(d.varint(32))
		case kInt64:
			*(*int64)(q) = d.varint(64)
		case kUint8:
			*(*uint8)(q) = uint8(d.uvarint(8))
		case kUint16:
			*(*uint16)(q) = uint16(d.uvarint(16))
		case kUint32:
			*(*uint32)(q) = uint32(d.uvarint(32))
		case kUint64:
			*(*uint64)(q) = d.uvarint(64)
		case kFloat32:
			*(*uint32)(q) = uint32(d.fixed(4))
		case kFloat64:
			*(*uint64)(q) = d.fixed(8)
		case kComplex64:
			*(*uint32)(q) = uint32(d.fixed(4))
			*(*uint32)(unsafe.Add(q, 4)) = uint32(d.fixed(4))
		case kComplex128:
			*(*uint64)(q) = d.fixed(8)
			*(*uint64)(unsafe.Add(q, 8)) = d.fixed(8)
		case kString:
			n := d.uvarint(64)
			if n > uint64(len(d.b)-d.pos) {
				d.fail(errTruncated)
				return
			}
			*(*string)(q) = string(d.b[d.pos : d.pos+int(n)])
			d.pos += int(n)
		case kArray:
			for j := 0; j < o.n && d.err == nil; j++ {
				d.ops(o.elem, unsafe.Add(q, uintptr(j)*o.stride))
			}
		}
	}
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w at offset %d", err, d.pos)
	}
}

func (d *decoder) byte() byte {
	if d.pos >= len(d.b) {
		d.fail(errTruncated)
		return 0
	}
	d.pos++
	return d.b[d.pos-1]
}

// uvarint reads a minimal uvarint that fits in bits.
func (d *decoder) uvarint(bits int) uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.pos:])
	switch {
	case n <= 0:
		d.fail(errTruncated)
		return 0
	case n > 1 && d.b[d.pos+n-1] == 0:
		d.fail(errVarint)
		return 0
	case bits < 64 && x>>bits != 0:
		d.fail(errRange)
		return 0
	}
	d.pos += n
	return x
}

// varint reads a minimal zigzag varint that fits in bits.
func (d *decoder) varint(bits int) int64 {
	ux := d.uvarint(64)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	if bits < 64 && (x < -1<<(bits-1) || x >= 1<<(bits-1)) {
		d.fail(errRange)
		return 0
	}
	return x
}

// fixed reads a little-endian word of n bytes.
func (d *decoder) fixed(n int) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.pos < n {
		d.fail(errTruncated)
		return 0
	}
	var x uint64
	if n == 4 {
		x = uint64(binary.LittleEndian.Uint32(d.b[d.pos:]))
	} else {
		x = binary.LittleEndian.Uint64(d.b[d.pos:])
	}
	d.pos += n
	return x
}
