package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/transport"
	"objmig/internal/wire"
)

// echoHandler replies with the request payload; payload "fail" returns
// a typed error; "boom" a plain error; "slow" blocks until the context
// dies.
func echoHandler(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
	var req wire.PingReq
	if err := wire.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	switch req.Payload {
	case "fail":
		return nil, wire.Errorf(wire.CodeFixed, "nope")
	case "boom":
		return nil, errors.New("plain failure")
	case "slow":
		<-ctx.Done()
		return nil, ctx.Err()
	default:
		return wire.MarshalAppend(dst, &wire.PingResp{Payload: req.Payload})
	}
}

// ping round-trips one payload through the pool.
func ping(pool *Pool, addr, payload string) (string, error) {
	var resp wire.PingResp
	err := pool.Call(context.Background(), addr, wire.KPing, &wire.PingReq{Payload: payload}, &resp)
	return resp.Payload, err
}

// pipe builds a served listener and a pool on a fresh in-memory
// network, returning the address.
func pipe(t testing.TB, h Handler) (*Server, *Pool, string) {
	t.Helper()
	tr := transport.NewNetwork().Transport()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, h)
	pool := NewPool(tr)
	t.Cleanup(func() {
		_ = pool.Close()
		_ = srv.Close()
	})
	return srv, pool, l.Addr()
}

func TestCallRoundTrip(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, echoHandler)
	res, err := ping(pool, addr, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if res != "hello" {
		t.Fatalf("res = %q", res)
	}
}

func TestTypedErrorCrossesWire(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, echoHandler)
	_, err := ping(pool, addr, "fail")
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a RemoteError", err)
	}
	if re.Code != wire.CodeFixed || re.Msg != "nope" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestPlainErrorBecomesInternal(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, echoHandler)
	_, err := ping(pool, addr, "boom")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeInternal {
		t.Fatalf("error = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, echoHandler)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("msg-%d", i)
			res, err := ping(pool, addr, msg)
			if err != nil {
				errs <- err
				return
			}
			if res != msg {
				errs <- fmt.Errorf("mismatched response %q for %q", res, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestContextCancellation(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := pool.Call(ctx, addr, wire.KPing, &wire.PingReq{Payload: "slow"}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation took far too long")
	}
	// The peer must still work for subsequent calls.
	res, err := ping(pool, addr, "after")
	if err != nil || res != "after" {
		t.Fatalf("call after cancellation: %q, %v", res, err)
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	t.Parallel()
	srv, pool, addr := pipe(t, echoHandler)
	done := make(chan error, 1)
	go func() {
		_, err := ping(pool, addr, "slow")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	_ = srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded across server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by server close")
	}
}

func TestPoolRedialsAfterPeerDeath(t *testing.T) {
	t.Parallel()
	tr := transport.NewNetwork().Transport()
	l, err := tr.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	pool := NewPool(tr)
	defer pool.Close()

	if _, err := ping(pool, "svc", "a"); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	// First call after death may fail while the dead peer is evicted.
	_, _ = ping(pool, "svc", "b")

	l2, err := tr.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := Serve(l2, echoHandler)
	defer srv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := ping(pool, "svc", "c")
		if err == nil && res == "c" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClientOnlyPeerRejectsRequests(t *testing.T) {
	t.Parallel()
	tr := transport.NewNetwork().Transport()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	// The "server" here dials back through the accepted conn.
	conns := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			conns <- c
		}
	}()
	clientConn, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client := NewPeer(clientConn, nil) // client-only: no handler
	defer client.Close()
	serverSide := NewPeer(<-conns, echoHandler)
	defer serverSide.Close()

	err = serverSide.Call(context.Background(), wire.KPing, &wire.PingReq{Payload: "x"}, nil)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("err = %v, want CodeBadRequest", err)
	}
}

func TestInvalidKindRejected(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, echoHandler)
	err := pool.Call(context.Background(), addr, wire.Kind(99), &wire.PingReq{Payload: "x"}, nil)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("err = %v, want CodeBadRequest", err)
	}
}

func TestPoolCloseRejectsCalls(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, echoHandler)
	_ = pool.Close()
	if _, err := ping(pool, addr, "x"); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("err = %v, want ErrPeerClosed", err)
	}
}

func TestCallsOverTCP(t *testing.T) {
	t.Parallel()
	tr := transport.TCP{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()
	pool := NewPool(tr)
	defer pool.Close()
	for i := 0; i < 20; i++ {
		msg := fmt.Sprintf("tcp-%d", i)
		res, err := ping(pool, l.Addr(), msg)
		if err != nil || res != msg {
			t.Fatalf("call %d: %q, %v", i, res, err)
		}
	}
}

// TestNilResponseBody: a handler returning (nil, nil) sends an empty
// success payload instead of crashing the serve goroutine; callers
// that discard the response (resp == nil) see plain success.
func TestNilResponseBody(t *testing.T) {
	t.Parallel()
	_, pool, addr := pipe(t, func(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
		return nil, nil
	})
	if err := pool.Call(context.Background(), addr, wire.KPing, &wire.PingReq{}, nil); err != nil {
		t.Fatalf("nil-body call failed: %v", err)
	}
	// Asking to decode an empty body is the caller's error, reported
	// cleanly.
	var resp wire.PingResp
	if err := pool.Call(context.Background(), addr, wire.KPing, &wire.PingReq{}, &resp); err == nil {
		t.Fatal("decoding an empty body unexpectedly succeeded")
	}
}

// TestEpochMismatchRefusedAtDial: a connection whose two ends speak
// different wire epochs is refused when it opens, in both directions.
// A dialer announcing another epoch gets the acceptor's epoch back and a
// closed connection, and the request it sends after the hello never
// reaches the handler. A pool dialling an acceptor of another epoch
// fails the call definitely (ErrDialFailed), naming both epochs, before
// any request leaves.
func TestEpochMismatchRefusedAtDial(t *testing.T) {
	t.Parallel()
	var served atomic.Int64
	tr := transport.NewNetwork().Transport()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, func(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
		served.Add(1)
		return echoHandler(ctx, kind, body, dst)
	})
	defer srv.Close()
	conn, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	other := wire.Epoch + 1
	hello := make([]byte, helloLen)
	hello[reqHdrLen] = other
	req, err := wire.MarshalAppend([]byte{dirRequest, 0, 0, 0, 0, 0, 0, 0, 1, byte(wire.KPing)}, &wire.PingReq{Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(hello); err != nil {
		t.Fatal(err)
	}
	_ = conn.Send(req) // may already find the connection closed
	answer, err := conn.Recv()
	if err != nil || len(answer) != hdrLen+1 || answer[0] != dirOK || answer[hdrLen] != wire.Epoch {
		t.Fatalf("hello answered with %x (%v), want the acceptor's epoch %d", answer, err, wire.Epoch)
	}
	if f, err := conn.Recv(); err == nil {
		t.Fatalf("connection of epoch %d stayed open (received %x)", other, f)
	}
	if n := served.Load(); n != 0 {
		t.Fatalf("handler ran %d times on a refused connection", n)
	}

	// The other direction: an acceptor that answers with another epoch.
	tr = transport.NewNetwork().Transport()
	if l, err = tr.Listen(""); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	requests := make(chan []byte, 4)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := c.Recv(); err != nil {
			return
		}
		_ = c.Send([]byte{dirOK, 0, 0, 0, 0, 0, 0, 0, 0, other})
		for {
			f, err := c.Recv()
			if err != nil {
				close(requests)
				return
			}
			requests <- f
		}
	}()
	pool := NewPool(tr)
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err = pool.Call(ctx, l.Addr(), wire.KPing, &wire.PingReq{Payload: "x"}, nil)
	if !errors.Is(err, ErrDialFailed) || !errors.Is(err, ErrEpochMismatch) ||
		!strings.Contains(err.Error(), fmt.Sprintf("local epoch %d, peer epoch %d", wire.Epoch, other)) {
		t.Fatalf("call to an acceptor of epoch %d: %v, want a definite epoch mismatch naming both epochs", other, err)
	}
	for f := range requests {
		t.Fatalf("a request (%x) left after the mismatch", f)
	}
}

// --- Dispatch rules ---

// blockingHandler is echoHandler, except that payload "block" signals
// entered and then waits for release.
func blockingHandler(entered chan<- struct{}, release <-chan struct{}) Handler {
	return func(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
		var req wire.PingReq
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Payload == "block" {
			entered <- struct{}{}
			<-release
		}
		return wire.MarshalAppend(dst, &wire.PingResp{Payload: req.Payload})
	}
}

// TestBlockedHandlerDoesNotDelayNextRequest: a handler blocked on one
// request must not hold up the next request on the same connection.
// The read loop never waits for a busy worker.
func TestBlockedHandlerDoesNotDelayNextRequest(t *testing.T) {
	t.Parallel()
	entered, release := make(chan struct{}), make(chan struct{})
	_, pool, addr := pipe(t, blockingHandler(entered, release))
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before pipe's, which waits for the handler
	blocked := make(chan error, 1)
	go func() {
		_, err := ping(pool, addr, "block")
		blocked <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp wire.PingResp
	if err := pool.Call(ctx, addr, wire.KPing, &wire.PingReq{Payload: "next"}, &resp); err != nil || resp.Payload != "next" {
		t.Fatalf("request behind a blocked handler: %q, %v", resp.Payload, err)
	}
	unblock()
	if err := <-blocked; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
}

// TestNestedCallCycleCompletes runs a chain of calls that crosses two
// nodes back and forth, A→B→A→B→A, each handler calling the other node
// before it answers. Every hop after the first reuses a connection
// whose far end is still serving an earlier link of the chain, so it
// completes only if a serving handler never holds up its connection's
// read loop.
func TestNestedCallCycleCompletes(t *testing.T) {
	t.Parallel()
	tr := transport.NewNetwork().Transport()
	pools := [2]*Pool{NewPool(tr), NewPool(tr)}
	var addrs [2]string
	for i := range pools {
		other := 1 - i
		l, err := tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr()
		pool := pools[i]
		srv := Serve(l, func(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
			var req wire.PingReq
			if err := wire.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			payload := req.Payload
			if rest := strings.TrimPrefix(payload, ">"); rest != payload {
				// Pass the rest of the chain on to the other node.
				var resp wire.PingResp
				if err := pool.Call(ctx, addrs[other], wire.KPing, &wire.PingReq{Payload: rest}, &resp); err != nil {
					return nil, err
				}
				payload = resp.Payload + "<"
			}
			return wire.MarshalAppend(dst, &wire.PingResp{Payload: payload})
		})
		t.Cleanup(func() {
			_ = pool.Close()
			_ = srv.Close()
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp wire.PingResp
	// From A's pool to B: B calls A, A calls B, B calls A, A answers.
	if err := pools[0].Call(ctx, addrs[1], wire.KPing, &wire.PingReq{Payload: ">>>end"}, &resp); err != nil {
		t.Fatalf("nested cycle A→B→A→B→A: %v", err)
	}
	if resp.Payload != "end<<<" {
		t.Fatalf("nested cycle answered %q, want %q", resp.Payload, "end<<<")
	}
}

// settle waits up to five seconds for the goroutine count to satisfy ok.
func settle(t *testing.T, what string, ok func(n int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for !ok(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines", what, n)
		}
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
}

// TestBurstLeavesBoundedWorkers: a burst of concurrently blocked
// requests starts a worker each; once they are released, at most
// GOMAXPROCS of them stay parked on the peer, and Close ends the rest.
// It counts the process's goroutines, so it does not run in parallel.
func TestBurstLeavesBoundedWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	tr := transport.NewNetwork().Transport()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	srv := Serve(l, blockingHandler(entered, release))
	pool := NewPool(tr)
	if _, err := ping(pool, l.Addr(), "warm"); err != nil {
		t.Fatal(err)
	}
	// Connected: the accept loop, both read loops and the one worker
	// that served "warm", now parked.
	connected := runtime.NumGoroutine()

	const k = 32
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			_, err := ping(pool, l.Addr(), "block")
			errs <- err
		}()
	}
	for i := 0; i < k; i++ {
		<-entered // all k handlers run at once, each on its own worker
	}
	close(release)
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	parked := runtime.GOMAXPROCS(0)
	settle(t, fmt.Sprintf("after a burst of %d, more than %d workers parked", k, parked), func(n int) bool {
		return n <= connected-1+parked
	})

	_ = pool.Close()
	_ = srv.Close()
	settle(t, fmt.Sprintf("after Close, above the baseline of %d", base), func(n int) bool { return n <= base })
}

// BenchmarkPeerEcho is one echo request and its response over the
// in-memory transport: the rpc layer's own cost per call.
func BenchmarkPeerEcho(b *testing.B) {
	_, pool, addr := pipe(b, echoHandler)
	req := &wire.PingReq{Payload: "echo"}
	var resp wire.PingResp
	ctx := context.Background()
	if err := pool.Call(ctx, addr, wire.KPing, req, &resp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Call(ctx, addr, wire.KPing, req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Frame-recycling stress ---

// checksum is the integrity check of the reuse stress test: any
// use-after-recycle corruption of a pooled frame flips payload bytes
// and breaks it.
func checksum(b []byte) uint32 {
	h := fnv.New32a()
	_, _ = h.Write(b)
	return h.Sum32()
}

// payloadFor deterministically fills a payload from a seed, so both
// ends of a call can regenerate the exact expected bytes.
func payloadFor(seed, n int) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 12345
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// stressHandler verifies the request checksum and answers with a fresh
// deterministic payload (seed+1) plus its checksum. KInvoke carries
// mixed-size payloads, KPing small ones; payload "err" exercises the
// error frame path.
func stressHandler(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
	switch kind {
	case wire.KInvoke:
		var req wire.InvokeReq
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Method != fmt.Sprint(checksum(req.Arg)) {
			return nil, wire.Errorf(wire.CodeBadRequest, "request checksum mismatch (%d bytes)", len(req.Arg))
		}
		out := payloadFor(int(req.Obj.Seq)+1, len(req.Arg))
		return wire.MarshalAppend(dst, &wire.InvokeResp{Result: out, At: core.NodeID(fmt.Sprint(checksum(out)))})
	case wire.KPing:
		var req wire.PingReq
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Payload == "err" {
			return nil, wire.Errorf(wire.CodeDenied, "requested error")
		}
		return wire.MarshalAppend(dst, &wire.PingResp{Payload: req.Payload})
	default:
		return nil, wire.Errorf(wire.CodeBadRequest, "kind %v", kind)
	}
}

// stressCalls hammers one peer with mixed-size checksummed calls.
// Every response is regenerated independently and compared
// byte-for-byte, so a frame recycled while still referenced — by
// either end, in either direction — shows up as a checksum or payload
// mismatch (and usually as a race-detector report first).
func stressCalls(t *testing.T, p *Peer, worker, iters int) {
	t.Helper()
	sizes := []int{0, 7, 100, 600, 5000, 70000, 300000}
	for i := 0; i < iters; i++ {
		seed := worker*1_000_000 + i*2
		switch i % 5 {
		case 4: // small body
			var resp wire.PingResp
			msg := fmt.Sprintf("ping-%d", seed)
			if i%10 == 9 {
				err := p.Call(context.Background(), wire.KPing, &wire.PingReq{Payload: "err"}, &resp)
				var re *wire.RemoteError
				if !errors.As(err, &re) || re.Code != wire.CodeDenied {
					t.Errorf("worker %d call %d: err = %v, want CodeDenied", worker, i, err)
					return
				}
				continue
			}
			if err := p.Call(context.Background(), wire.KPing, &wire.PingReq{Payload: msg}, &resp); err != nil || resp.Payload != msg {
				t.Errorf("worker %d call %d: %q, %v", worker, i, resp.Payload, err)
				return
			}
		default: // invoke body, mixed sizes
			n := sizes[(worker+i)%len(sizes)]
			arg := payloadFor(seed, n)
			req := &wire.InvokeReq{
				Obj:    core.OID{Origin: "stress", Seq: uint64(seed)},
				Method: fmt.Sprint(checksum(arg)),
				Arg:    arg,
			}
			var resp wire.InvokeResp
			if err := p.Call(context.Background(), wire.KInvoke, req, &resp); err != nil {
				t.Errorf("worker %d call %d (%d bytes): %v", worker, i, n, err)
				return
			}
			want := payloadFor(seed+1, n)
			if string(resp.At) != fmt.Sprint(checksum(resp.Result)) || !bytes.Equal(resp.Result, want) {
				t.Errorf("worker %d call %d (%d bytes): response corrupted", worker, i, n)
				return
			}
		}
	}
}

// TestFrameReuseStress drives concurrent calls in both directions over
// one connection — every frame drawn from and returned to the shared
// pool — and checks payload integrity end to end. Run with -race, this
// is the buffer-ownership regression test for the zero-copy pipeline:
// a frame recycled early (or written after Put) corrupts a checksummed
// payload or trips the race detector.
func TestFrameReuseStress(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		tr   transport.Transport
	}{
		{"mem", transport.NewNetwork().Transport()},
		{"tcp", transport.TCP{}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			l, err := tc.tr.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			conns := make(chan transport.Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					conns <- c
				}
			}()
			dialed, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			a := NewPeer(dialed, stressHandler)
			b := NewPeer(<-conns, stressHandler)
			defer a.Close()
			defer b.Close()
			_ = l.Close()

			const workers, iters = 6, 120
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				for _, p := range []*Peer{a, b} {
					wg.Add(1)
					go func(p *Peer, w int) {
						defer wg.Done()
						stressCalls(t, p, w, iters)
					}(p, w)
				}
			}
			wg.Wait()
		})
	}
}
