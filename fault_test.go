package objmig

import (
	"encoding/binary"
	"fmt"
	"sync"

	"objmig/internal/transport"
	"objmig/internal/wire"
)

// installTap wraps the in-memory fabric so a test can count the
// migration payload frames (KInstall requests) nodes send each other,
// lose the reply to one, or hold one back and deliver it late. It reads
// the rpc frame header — direction byte, 8-byte call ID and, on
// requests, the kind byte — which internal/rpc keeps private; every
// test that uses the tap also asserts a frame count, so a layout change
// fails loudly instead of silently disarming the faults.
type installTap struct {
	transport.Transport

	mu     sync.Mutex
	decide func(*wire.InstallReq) tapAction // nil: deliver everything
	frames int                              // install frames seen so far
	held   []heldFrame
	// late receives the direction byte (1 ok, 2 error) of the reply to
	// every frame that was held and later released.
	late chan byte
}

type tapAction int

const (
	tapDeliver   tapAction = iota
	tapLoseReply           // deliver the frame, swallow the target's reply
	tapHold                // keep the frame until release
)

type heldFrame struct {
	conn  transport.Conn
	frame []byte
}

// newTappedCluster returns an in-process cluster whose install frames
// pass through the returned tap.
func newTappedCluster() (*Cluster, *installTap) {
	net := transport.NewNetwork()
	tap := &installTap{Transport: net.Transport(), late: make(chan byte, 8)}
	return &Cluster{tr: tap, mem: net}, tap
}

func (t *installTap) Dial(addr string) (transport.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: t, lose: make(map[uint64]bool), watch: make(map[uint64]bool)}, nil
}

// setDecide installs the fault plan for the frames to come.
func (t *installTap) setDecide(decide func(*wire.InstallReq) tapAction) {
	t.mu.Lock()
	t.decide = decide
	t.mu.Unlock()
}

// seen reports the install frames sent so far.
func (t *installTap) seen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames
}

// release delivers every held frame, late.
func (t *installTap) release() error {
	t.mu.Lock()
	held := t.held
	t.held = nil
	t.mu.Unlock()
	for _, h := range held {
		if err := h.conn.Send(h.frame); err != nil {
			return fmt.Errorf("releasing a held frame: %w", err)
		}
	}
	return nil
}

// tapConn is the dialling end of one connection; lose and watch hold
// call IDs and are guarded by the tap's mutex.
type tapConn struct {
	transport.Conn
	tap         *installTap
	lose, watch map[uint64]bool
}

func (c *tapConn) Send(frame []byte) error {
	const reqHdr = 10 // direction, call ID, kind
	if len(frame) < reqHdr || frame[0] != 0 || wire.Kind(frame[9]) != wire.KInstall {
		return c.Conn.Send(frame)
	}
	var req wire.InstallReq
	if err := wire.Unmarshal(frame[reqHdr:], &req); err != nil {
		return c.Conn.Send(frame)
	}
	id := binary.BigEndian.Uint64(frame[1:9])
	t := c.tap
	t.mu.Lock()
	t.frames++
	action := tapDeliver
	if t.decide != nil {
		action = t.decide(&req)
	}
	switch action {
	case tapLoseReply:
		c.lose[id] = true
	case tapHold:
		c.watch[id] = true
		t.held = append(t.held, heldFrame{conn: c.Conn, frame: append([]byte(nil), frame...)})
	}
	t.mu.Unlock()
	if action == tapHold {
		return nil
	}
	return c.Conn.Send(frame)
}

func (c *tapConn) Recv() ([]byte, error) {
	for {
		frame, err := c.Conn.Recv()
		if err != nil || len(frame) < 9 {
			return frame, err
		}
		id := binary.BigEndian.Uint64(frame[1:9])
		c.tap.mu.Lock()
		lose, watch := c.lose[id], c.watch[id]
		c.tap.mu.Unlock()
		if lose {
			continue
		}
		if watch {
			c.tap.late <- frame[0]
		}
		return frame, nil
	}
}
