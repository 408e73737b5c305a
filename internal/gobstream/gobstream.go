// Package gobstream compiles a Go type's gob machinery once and reuses
// it for every later message of that type.
//
// encoding/gob is a stream protocol: a fresh Encoder first emits the
// descriptors of every type the value can reach (the preamble D), then
// the value message V; a fresh Decoder compiles a decode engine from
// those descriptors before it reads V. Used per message — a new
// Encoder and Decoder for every call argument, result and object
// state — that set-up is almost the whole cost. Two facts
// make it avoidable without changing a byte on the wire:
//
//   - An Encoder that has already sent a type's descriptors emits only
//     V on the next Encode, and D ‖ V is byte-identical to what a fresh
//     Encoder writes (type ids are fixed per process, D depends only on
//     the static type).
//   - A Decoder that has consumed D once decodes bare V messages from
//     then on.
//
// A Stream therefore keeps D and a pool of primed encoders per type,
// and per distinct incoming preamble D' a pool of decoders primed with
// it. Every message it writes is a complete plain-gob image; every
// plain-gob image decodes. Types whose graph reaches an interface
// (gob sends concrete-type descriptors lazily, so a reused encoder
// would omit them from later messages) and types gob refuses to
// encode keep the per-message path, errors and all.
package gobstream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

const (
	// maxPooled is the largest message a stream may have handled and
	// still return to its pool: gob encoders keep a buffer the size of
	// their largest message and decoders keep their last one, so a
	// once-seen huge state must not stay pinned behind a pool entry.
	maxPooled = 1 << 20
	// maxPreambles bounds the learned-preamble table of one type. A
	// cluster has one preamble per distinct gob registration order
	// among its binaries, so a handful covers any real deployment;
	// past the bound a sender simply gets the per-message path.
	maxPreambles = 8
)

// Stream is the reusable gob codec of one Go type. It is safe for
// concurrent use.
type Stream struct {
	typ reflect.Type
	// pooled is false for types that keep the per-message path.
	pooled   bool
	preamble []byte    // D: what a fresh encoder emits before the first value
	encs     sync.Pool // *encoder, each primed (D already sent)

	learnMu sync.Mutex
	// learned maps an incoming preamble D' to the decoders primed with
	// it. Copy-on-write: reads are one atomic load, writes happen at
	// most maxPreambles times per type.
	learned atomic.Pointer[map[string]*sync.Pool]
	// tableMisses counts decodes whose preamble was not in the learned
	// table (first sight of a sender's preamble, or a full table).
	tableMisses atomic.Int64
}

type encoder struct {
	w   sliceWriter
	enc *gob.Encoder // writes to &w
}

type decoder struct {
	r   bytes.Reader
	dec *gob.Decoder // reads from &r
}

// sliceWriter adapts a swappable append target to io.Writer so gob
// encodes straight into the tail of the caller's buffer.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var streams sync.Map // reflect.Type (pointers stripped) → *Stream

// For returns the stream of t. Pointer types share the stream of their
// base type, as gob flattens pointers on the wire.
func For(t reflect.Type) *Stream {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if s, ok := streams.Load(t); ok {
		return s.(*Stream)
	}
	s, _ := streams.LoadOrStore(t, newStream(t))
	return s.(*Stream)
}

func newStream(t reflect.Type) *Stream {
	s := &Stream{typ: t}
	if reachesInterface(t, make(map[reflect.Type]bool)) {
		return s
	}
	e, out, err := s.prime()
	if err != nil {
		// Unencodable (chan or func at top level, no exported fields):
		// the per-message path reports gob's own error at the call
		// that hits it, as it always did.
		return s
	}
	i, ok := lastMessage(out)
	if !ok {
		return s
	}
	s.pooled = true
	s.preamble = out[:i:i]
	s.encs.Put(e)
	return s
}

// reachesInterface reports whether gob could meet an interface value
// while encoding a t. It follows gob's own rule for what is sent:
// exported struct fields only.
func reachesInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reachesInterface(t.Elem(), seen)
	case reflect.Map:
		return reachesInterface(t.Key(), seen) || reachesInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && reachesInterface(f.Type, seen) {
				return true
			}
		}
	}
	return false
}

// prime returns an encoder that has sent the type's descriptors, by
// encoding the zero value, along with what it wrote (D ‖ V of the zero
// value). A user GobEncoder that panics on its zero value makes the
// type unpoolable rather than taking the registration down.
func (s *Stream) prime() (e *encoder, out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gobstream: prime %v: %v", s.typ, r)
		}
	}()
	e = new(encoder)
	e.enc = gob.NewEncoder(&e.w)
	if err := e.enc.Encode(reflect.New(s.typ).Interface()); err != nil {
		return nil, nil, err
	}
	out, e.w.b = e.w.b, nil
	return e, out, nil
}

// AppendEncode appends the plain-gob image of v (a value of the
// stream's type, or a pointer to one) to dst and returns the extended
// slice. On error the returned slice is dst unchanged.
func (s *Stream) AppendEncode(dst []byte, v any) ([]byte, error) {
	if !s.pooled {
		w := sliceWriter{b: dst}
		if err := gob.NewEncoder(&w).Encode(v); err != nil {
			return dst, err
		}
		return w.b, nil
	}
	e, _ := s.encs.Get().(*encoder)
	if e == nil {
		var err error
		if e, _, err = s.prime(); err != nil {
			return dst, err
		}
	}
	e.w.b = append(dst, s.preamble...)
	err := e.enc.Encode(v)
	out := e.w.b
	e.w.b = nil
	if err != nil {
		return dst, err // e is dropped: its sent-type state is suspect
	}
	if len(out)-len(dst) <= maxPooled {
		s.encs.Put(e)
	}
	return out, nil
}

// Decode decodes one plain-gob image into v, a pointer to a value of
// the stream's type. The result never aliases data.
func (s *Stream) Decode(data []byte, v any) error {
	i, ok := 0, false
	if s.pooled {
		i, ok = lastMessage(data)
	}
	if !ok {
		return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	}
	// data is D' ‖ V for some sender's preamble D'.
	var pool *sync.Pool
	if table := s.learned.Load(); table != nil {
		pool = (*table)[string(data[:i])]
	}
	if pool == nil {
		s.tableMisses.Add(1)
	} else if d, _ := pool.Get().(*decoder); d != nil {
		d.r.Reset(data[i:])
		err := d.dec.Decode(v)
		d.r.Reset(nil) // don't pin the caller's frame from the pool
		if err == nil {
			if len(data)-i <= maxPooled {
				pool.Put(d)
			}
			return nil
		}
		// d is dropped. The verdict on data is plain gob's, so a fresh
		// decoder has the last word (it rewrites whatever prefix of v
		// the failed attempt filled in).
	}
	d := new(decoder)
	d.dec = gob.NewDecoder(&d.r)
	d.r.Reset(data)
	if err := d.dec.Decode(v); err != nil {
		return err
	}
	// d is now primed with D' — unless the value sat in an earlier
	// message and the tail was never read.
	if d.r.Len() == 0 && len(data)-i <= maxPooled {
		if pool == nil {
			pool = s.learn(data[:i])
		}
		if pool != nil {
			d.r.Reset(nil)
			pool.Put(d)
		}
	}
	return nil
}

// learn returns the decoder pool of preamble, adding it to the table
// unless the table is full (nil).
func (s *Stream) learn(preamble []byte) *sync.Pool {
	s.learnMu.Lock()
	defer s.learnMu.Unlock()
	var old map[string]*sync.Pool
	if p := s.learned.Load(); p != nil {
		old = *p
	}
	if pool := old[string(preamble)]; pool != nil {
		return pool
	}
	if len(old) >= maxPreambles {
		return nil
	}
	next := make(map[string]*sync.Pool, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	pool := new(sync.Pool)
	next[string(preamble)] = pool
	s.learned.Store(&next)
	return pool
}

// lastMessage returns the offset of the last gob message in data, and
// whether data is exactly a sequence of length-prefixed gob messages.
// A count is one byte below 0x80, or the negated byte length followed
// by that many big-endian bytes.
func lastMessage(data []byte) (last int, ok bool) {
	for off := 0; off < len(data); {
		n, w := uint64(data[off]), 1
		if n > 0x7f {
			w = 1 - int(int8(data[off]))
			if w > 9 || w > len(data)-off {
				return 0, false
			}
			n = 0
			for _, b := range data[off+1 : off+w] {
				n = n<<8 | uint64(b)
			}
		}
		if n > uint64(len(data)-off-w) {
			return 0, false
		}
		last, ok = off, true
		off += w + int(n)
	}
	return last, ok
}
