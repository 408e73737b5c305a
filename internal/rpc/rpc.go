// Package rpc multiplexes request/response exchanges over a
// transport.Conn: every in-flight call has an ID, responses are matched
// to pending calls, and inbound requests are served on worker
// goroutines.
//
// Dispatch: the read loop hands each request to a worker parked on the
// peer, or starts a new worker when none is parked. A worker serves its
// request and parks for the next; it exits when the peer shuts down, or
// at once if GOMAXPROCS workers are already parked on the peer. A
// reused worker keeps the stack that decoding grew, so a request costs
// neither a goroutine start nor a stack copy. The read loop never
// serves a request and never waits for a busy worker: a handler may
// block on an object lock or a migration, or call other nodes whose
// calls come back over this connection (A→B→A→B), and a read loop
// blocked in such a handler would deadlock the chain.
//
// Frame layout:
//
//	[1B direction][8B big-endian call ID][payload]
//
// direction 0 carries a request ([1B kind][body]); direction 1 a
// successful response ([body]); direction 2 a failed response
// (an encoded wire.RemoteError).
//
// A connection opens with one exchange of wire epochs (wire.Epoch):
// the dialer's first frame is a hello carrying its epoch and the
// acceptor's first frame answers with its own. Pool hands out a peer
// only after a matching answer, and the acceptor closes a connection
// whose hello names another epoch before any of its frames reaches the
// handler — two builds that would misread each other's bodies never
// exchange one.
//
// Frames are pooled (internal/framebuf), and messages are encoded
// exactly once: Call and serve reserve the frame header up front in a
// pooled buffer and hand the codec the tail (wire.MarshalAppend), so
// the marshalled body is never copied into a second allocation. Sent
// frames return to the pool as soon as the transport has taken them
// (Conn.Send does not retain its argument); received frames return to
// the pool after dispatch — which is safe because wire.Unmarshal fully
// copies every field it decodes. CallView is the exception: it decodes
// the response with wire.UnmarshalView and hands the frame to the
// caller, who recycles it once done with the response. See
// docs/wire-format.md for the byte-level layout and the complete
// ownership rules.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"objmig/internal/framebuf"
	"objmig/internal/transport"
	"objmig/internal/wire"
)

const (
	dirRequest = 0
	dirOK      = 1
	dirErr     = 2

	// hdrLen is the frame header (direction + call ID); requests carry
	// one extra kind byte, making reqHdrLen the offset of a request
	// body within its frame.
	hdrLen    = 9
	reqHdrLen = hdrLen + 1

	// helloLen is the dialer's opening frame: a request header of call
	// ID 0 and kind 0, then the dialer's epoch. Kind 0 is no kind, so a
	// build predating the exchange answers the hello with an error
	// response instead of running a handler.
	helloLen = reqHdrLen + 1
)

// ErrPeerClosed is returned by calls whose peer shut down before a
// response arrived. The request may or may not have been processed
// remotely — callers that care about exactly-once effects must treat
// it as ambiguous.
var ErrPeerClosed = errors.New("rpc: peer closed")

// ErrDialFailed marks calls that failed before a connection existed:
// the request was definitely never delivered.
var ErrDialFailed = errors.New("rpc: dial failed")

// ErrEpochMismatch marks a connection refused when it opened because
// the two ends speak different wire epochs. It always comes wrapped
// together with ErrDialFailed: the request was never delivered.
var ErrEpochMismatch = errors.New("rpc: wire epoch mismatch")

// ErrSendFailed marks calls whose frame could not be handed to the
// connection: the request was definitely never delivered.
var ErrSendFailed = errors.New("rpc: send failed")

// Handler processes one inbound request on a worker goroutine (see the
// package doc: it may block, and it never holds up the connection's
// read loop) and appends its encoded response body to dst (normally
// via wire.MarshalAppend), returning the extended slice. dst arrives with the frame header already
// reserved; the handler must only append. body is only valid until the
// handler returns — the frame it points into is recycled afterwards —
// so the handler must not retain it: it decodes it with wire.Unmarshal,
// which copies, or with wire.UnmarshalView when it is done with the
// decoded byte fields before it returns.
//
// Returning a *wire.RemoteError preserves the error code across the
// wire; any other error is wrapped as CodeInternal. On error the
// response bytes appended so far are discarded.
type Handler func(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error)

// Peer manages one connection: concurrent outbound calls and inbound
// request dispatch.
type Peer struct {
	conn    transport.Conn
	handler Handler
	// accepted: the connection was accepted by a Server, so its first
	// frame must be the dialer's hello.
	accepted bool

	ctx    context.Context
	cancel context.CancelFunc

	// idle hands a request to a parked worker; it is unbuffered, so a
	// send succeeds only while a worker waits on it. parked counts the
	// workers parked or about to park, at most maxParked (GOMAXPROCS
	// when the peer was created).
	idle      chan request
	parked    atomic.Int32
	maxParked int32

	mu      sync.Mutex
	pending map[uint64]chan callResult
	nextID  uint64
	closed  bool

	wg sync.WaitGroup
}

// resultChans recycles the one-slot channel a call blocks on.
var resultChans = sync.Pool{New: func() interface{} { return make(chan callResult, 1) }}

// request is one received request frame on its way to a worker, which
// serves it and recycles the frame.
type request struct {
	id    uint64
	kind  wire.Kind
	body  []byte // payload within frame
	frame []byte // whole pooled frame
}

// callResult carries one response frame (or a local failure) from the
// read loop to the blocked caller, which decodes it and recycles the
// frame.
type callResult struct {
	frame []byte // whole pooled frame; recycled by finish
	body  []byte // payload within frame
	isErr bool   // dirErr: body is an encoded wire.RemoteError
	err   error  // local failure (peer shut down); no frame attached
}

// finish decodes the response into resp (skipped when resp is nil) and
// recycles the frame.
func (r callResult) finish(resp interface{}) error {
	frame, err := r.decode(resp, false)
	framebuf.Put(frame)
	return err
}

// decode decodes the response into resp (skipped when resp is nil),
// with wire.UnmarshalView when view is set, and returns the frame,
// which the caller recycles: nil when no frame came, or when a failure
// already recycled it.
func (r callResult) decode(resp interface{}, view bool) ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	var err error
	if r.isErr {
		err = decodeError(r.body)
	} else if resp != nil && view {
		err = wire.UnmarshalView(r.body, resp)
	} else if resp != nil {
		err = wire.Unmarshal(r.body, resp)
	}
	if err != nil {
		framebuf.Put(r.frame)
		return nil, err
	}
	return r.frame, nil
}

// NewPeer wraps a connection. handler may be nil for client-only peers
// (inbound requests are then rejected). The peer owns the connection
// and closes it on Close.
func NewPeer(conn transport.Conn, handler Handler) *Peer {
	return newPeer(conn, handler, false)
}

func newPeer(conn transport.Conn, handler Handler, accepted bool) *Peer {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Peer{
		conn:      conn,
		handler:   handler,
		accepted:  accepted,
		ctx:       ctx,
		cancel:    cancel,
		idle:      make(chan request),
		maxParked: int32(runtime.GOMAXPROCS(0)),
		pending:   make(map[uint64]chan callResult),
	}
	p.wg.Add(1)
	go p.readLoop()
	return p
}

// Call encodes req into a pooled frame, sends it, and blocks for the
// response (decoded into resp, which may be nil to discard it), the
// context's cancellation, or peer shutdown. The request is marshalled
// exactly once, directly behind the reserved frame header; the frame
// returns to the pool as soon as the transport has taken it.
func (p *Peer) Call(ctx context.Context, kind wire.Kind, req, resp interface{}) error {
	r, err := p.roundTrip(ctx, kind, req)
	if err != nil {
		return err
	}
	return r.finish(resp)
}

// CallView is Call for a caller that reads the response in place: resp
// is decoded with wire.UnmarshalView, so its byte fields alias the
// response frame, which CallView returns instead of recycling. The
// caller calls framebuf.Put on it once it is done with resp. On error
// there is no frame to put.
func (p *Peer) CallView(ctx context.Context, kind wire.Kind, req, resp interface{}) ([]byte, error) {
	r, err := p.roundTrip(ctx, kind, req)
	if err != nil {
		return nil, err
	}
	return r.decode(resp, true)
}

// roundTrip sends req and waits for its response frame.
func (p *Peer) roundTrip(ctx context.Context, kind wire.Kind, req interface{}) (callResult, error) {
	ch := resultChans.Get().(chan callResult)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return callResult{}, ErrPeerClosed
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = ch
	p.mu.Unlock()

	frame := framebuf.Get(reqHdrLen + 64)
	frame, err := wire.MarshalAppend(frame[:reqHdrLen], req)
	if err != nil {
		framebuf.Put(frame)
		p.forget(id)
		return callResult{}, err
	}
	// The header is filled in after the body: MarshalAppend may have
	// grown the frame into a new backing array.
	frame[0] = dirRequest
	binary.BigEndian.PutUint64(frame[1:hdrLen], id)
	frame[hdrLen] = byte(kind)
	err = p.conn.Send(frame)
	framebuf.Put(frame)
	if err != nil {
		p.forget(id)
		return callResult{}, fmt.Errorf("%w: %v", ErrSendFailed, err)
	}

	select {
	case r := <-ch:
		// The registration was deleted before the one send it allows,
		// so the drained channel is private again. Every other exit
		// drops it: a late response or failAll may still send into it.
		resultChans.Put(ch)
		return r, nil
	case <-ctx.Done():
		p.forget(id)
		return callResult{}, ctx.Err()
	}
}

// forget drops a pending call registration.
func (p *Peer) forget(id uint64) {
	p.mu.Lock()
	delete(p.pending, id)
	p.mu.Unlock()
}

// readLoop receives frames until the connection dies, dispatching
// requests and completing pending calls. Every received frame is
// recycled exactly once: by the worker after its handler returns, by
// the blocked caller after it decodes the response, or right here when
// nobody wants it.
func (p *Peer) readLoop() {
	defer p.wg.Done()
	if p.accepted && !p.answerHello() {
		return
	}
	for {
		frame, err := p.conn.Recv()
		if err != nil {
			p.failAll(err)
			return
		}
		if len(frame) < hdrLen {
			framebuf.Put(frame)
			p.failAll(fmt.Errorf("rpc: short frame (%d bytes)", len(frame)))
			return
		}
		dir := frame[0]
		id := binary.BigEndian.Uint64(frame[1:hdrLen])
		payload := frame[hdrLen:]
		switch dir {
		case dirRequest:
			if len(payload) < 1 {
				framebuf.Put(frame)
				continue
			}
			r := request{id: id, kind: wire.Kind(payload[0]), body: payload[1:], frame: frame}
			select {
			case p.idle <- r:
			default:
				p.wg.Add(1)
				go p.worker(r)
			}
		case dirOK, dirErr:
			p.mu.Lock()
			ch, ok := p.pending[id]
			delete(p.pending, id)
			p.mu.Unlock()
			if !ok {
				framebuf.Put(frame) // caller gave up (context cancelled)
				continue
			}
			ch <- callResult{frame: frame, body: payload, isErr: dir == dirErr}
		default:
			framebuf.Put(frame)
		}
	}
}

// answerHello reads an accepted connection's first frame, which must be
// the dialer's hello, and answers it with this build's epoch. Anything
// else — no hello, or a hello of another epoch — closes the connection
// unserved.
func (p *Peer) answerHello() bool {
	frame, err := p.conn.Recv()
	if err != nil {
		p.failAll(err)
		return false
	}
	hello := len(frame) == helloLen && frame[0] == dirRequest && frame[hdrLen] == 0
	ok := hello && frame[reqHdrLen] == wire.Epoch
	framebuf.Put(frame)
	if hello {
		answer := make([]byte, hdrLen+1)
		answer[0], answer[hdrLen] = dirOK, wire.Epoch
		err = p.conn.Send(answer)
	}
	if err != nil || !ok {
		_ = p.conn.Close()
		p.failAll(ErrEpochMismatch)
		return false
	}
	return true
}

// hello opens a dialled connection to addr: it sends this build's
// epoch and waits, bounded by ctx, for the acceptor's. Every failure
// wraps ErrDialFailed — no request has been sent yet.
func hello(ctx context.Context, conn transport.Conn, addr string) error {
	frame := make([]byte, helloLen) // direction, call ID and kind all 0
	frame[reqHdrLen] = wire.Epoch
	if err := conn.Send(frame); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrDialFailed, addr, err)
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	answer, err := conn.Recv()
	if !stop() {
		err = ctx.Err() // the connection was closed under the wait
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrDialFailed, addr, err)
	}
	defer framebuf.Put(answer)
	if len(answer) != hdrLen+1 || answer[0] != dirOK {
		return fmt.Errorf("%w: %s: %w: local epoch %d, peer answered without one", ErrDialFailed, addr, ErrEpochMismatch, wire.Epoch)
	}
	if answer[hdrLen] != wire.Epoch {
		return fmt.Errorf("%w: %s: %w: local epoch %d, peer epoch %d", ErrDialFailed, addr, ErrEpochMismatch, wire.Epoch, answer[hdrLen])
	}
	return nil
}

// worker serves r, then parks for the next request until the peer
// shuts down. It exits instead of parking when maxParked workers are
// parked already: a burst of blocked requests leaves at most that many
// behind.
func (p *Peer) worker(r request) {
	defer p.wg.Done()
	for {
		p.serve(r.id, r.kind, r.body)
		framebuf.Put(r.frame) // body (an alias) is dead once serve returns
		if p.parked.Add(1) > p.maxParked {
			p.parked.Add(-1)
			return
		}
		select {
		case r = <-p.idle:
			p.parked.Add(-1)
		case <-p.ctx.Done():
			return
		}
	}
}

// serve runs the handler for one request, encoding the response
// straight into a pooled frame behind its reserved header.
func (p *Peer) serve(id uint64, kind wire.Kind, body []byte) {
	frame := framebuf.Get(hdrLen + 64)
	frame = frame[:hdrLen]
	var err error
	if p.handler == nil {
		err = wire.Errorf(wire.CodeBadRequest, "peer does not serve requests")
	} else if !kind.Valid() {
		err = wire.Errorf(wire.CodeBadRequest, "unknown request kind %d", kind)
	} else {
		var out []byte
		if out, err = p.handler(p.ctx, kind, body, frame); err == nil && out != nil {
			frame = out
		}
	}
	if err != nil {
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			re = wire.Errorf(wire.CodeInternal, "%v", err)
		}
		// Rewind past anything a failing handler appended and encode
		// the error instead.
		var mErr error
		if frame, mErr = wire.MarshalAppend(frame[:hdrLen], re); mErr != nil {
			frame, _ = wire.MarshalAppend(frame[:hdrLen], wire.Errorf(wire.CodeInternal, "unencodable error"))
		}
		frame[0] = dirErr
	} else {
		frame[0] = dirOK
	}
	binary.BigEndian.PutUint64(frame[1:hdrLen], id)
	// A send failure means the connection is dying; the read loop
	// will fail all pending calls, nothing more to do here.
	_ = p.conn.Send(frame)
	framebuf.Put(frame)
}

// decodeError reconstructs the remote error from a dirErr payload.
func decodeError(payload []byte) error {
	var re wire.RemoteError
	if err := wire.Unmarshal(payload, &re); err != nil {
		return fmt.Errorf("rpc: undecodable remote error: %w", err)
	}
	return &re
}

// failAll terminates every pending call with err and marks the peer
// closed.
func (p *Peer) failAll(err error) {
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for id, ch := range p.pending {
		ch <- callResult{err: fmt.Errorf("%w: %v", ErrPeerClosed, err)}
		delete(p.pending, id)
	}
}

// Closed reports whether the peer has shut down.
func (p *Peer) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close tears the peer down and waits for its goroutines (read loop,
// parked workers and in-flight handlers) to finish.
func (p *Peer) Close() error {
	p.cancel()
	err := p.conn.Close()
	p.wg.Wait()
	p.failAll(ErrPeerClosed)
	return err
}

// Server accepts inbound connections and serves them with a handler.
type Server struct {
	l       transport.Listener
	handler Handler

	mu    sync.Mutex
	peers map[*Peer]struct{}
	done  bool

	wg sync.WaitGroup
}

// Serve starts accepting connections on l.
func Serve(l transport.Listener, handler Handler) *Server {
	s := &Server{l: l, handler: handler, peers: make(map[*Peer]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.l.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		p := newPeer(conn, s.handler, true)
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			_ = p.Close()
			return
		}
		s.peers[p] = struct{}{}
		s.mu.Unlock()
	}
}

// Close stops accepting and closes every live peer.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return nil
	}
	s.done = true
	peers := make([]*Peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.peers = nil
	s.mu.Unlock()
	err := s.l.Close()
	for _, p := range peers {
		_ = p.Close()
	}
	s.wg.Wait()
	return err
}

// Pool maintains client connections keyed by address, dialling lazily
// and re-dialling after failures.
type Pool struct {
	tr transport.Transport

	mu    sync.Mutex
	conns map[string]*Peer
	done  bool
}

// NewPool returns an empty pool over the transport.
func NewPool(tr transport.Transport) *Pool {
	return &Pool{tr: tr, conns: make(map[string]*Peer)}
}

// Call sends one request to addr, dialling (and exchanging epochs) if
// needed, and decodes the response into resp (nil discards it). Dead
// peers are evicted and re-dialled on the next call.
func (p *Pool) Call(ctx context.Context, addr string, kind wire.Kind, req, resp interface{}) error {
	peer, err := p.get(ctx, addr)
	if err != nil {
		return err
	}
	return p.evictOn(addr, peer, peer.Call(ctx, kind, req, resp))
}

// CallView is Call through Peer.CallView: resp's byte fields alias the
// returned response frame, which the caller recycles with framebuf.Put
// once it is done with resp.
func (p *Pool) CallView(ctx context.Context, addr string, kind wire.Kind, req, resp interface{}) ([]byte, error) {
	peer, err := p.get(ctx, addr)
	if err != nil {
		return nil, err
	}
	frame, err := peer.CallView(ctx, kind, req, resp)
	return frame, p.evictOn(addr, peer, err)
}

// evictOn evicts peer when err says it shut down, and returns err.
func (p *Pool) evictOn(addr string, peer *Peer, err error) error {
	if errors.Is(err, ErrPeerClosed) {
		p.evict(addr, peer)
	}
	return err
}

func (p *Pool) get(ctx context.Context, addr string) (*Peer, error) {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return nil, ErrPeerClosed
	}
	if peer, ok := p.conns[addr]; ok && !peer.Closed() {
		p.mu.Unlock()
		return peer, nil
	}
	p.mu.Unlock()

	conn, err := p.tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrDialFailed, addr, err)
	}
	if err := hello(ctx, conn, addr); err != nil {
		_ = conn.Close()
		return nil, err
	}
	peer := NewPeer(conn, nil)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		go func() { _ = peer.Close() }()
		return nil, ErrPeerClosed
	}
	if existing, ok := p.conns[addr]; ok && !existing.Closed() {
		// Lost a dial race; keep the existing peer.
		go func() { _ = peer.Close() }()
		return existing, nil
	}
	p.conns[addr] = peer
	return peer, nil
}

func (p *Pool) evict(addr string, peer *Peer) {
	p.mu.Lock()
	if p.conns[addr] == peer {
		delete(p.conns, addr)
	}
	p.mu.Unlock()
}

// Close closes every pooled connection.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.done = true
	conns := p.conns
	p.conns = map[string]*Peer{}
	p.mu.Unlock()
	for _, peer := range conns {
		_ = peer.Close()
	}
	return nil
}
