package netmedium

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"

	"sos/internal/mpc"
	"sos/internal/wire"
)

// netConn is one side of a TCP session. Send enqueues and never blocks
// (the Medium contract); a writer goroutine drains the queue onto the
// socket, and a reader goroutine turns inbound frames into Received
// callbacks on the endpoint's serial queue.
type netConn struct {
	ep        *Endpoint
	peer      mpc.PeerID
	sock      net.Conn
	initiator bool

	mu     sync.Mutex
	cond   *sync.Cond
	sendQ  [][]byte
	closed bool

	torn sync.Once
}

var _ mpc.Conn = (*netConn)(nil)

func newNetConn(ep *Endpoint, sock net.Conn, peer mpc.PeerID, initiator bool) *netConn {
	c := &netConn{ep: ep, peer: peer, sock: sock, initiator: initiator}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// startPumps launches the reader and writer goroutines (their WaitGroup
// slots were reserved by adopt, which also posted Incoming first for
// inbound sessions, so it precedes every Received on the endpoint's
// queue).
func (c *netConn) startPumps() {
	go c.readLoop()
	go c.writeLoop()
}

// Peer implements mpc.Conn.
func (c *netConn) Peer() mpc.PeerID { return c.peer }

// Initiator implements mpc.Conn.
func (c *netConn) Initiator() bool { return c.initiator }

// Send implements mpc.Conn: enqueue one frame without blocking.
func (c *netConn) Send(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return mpc.ErrClosed
	}
	c.sendQ = append(c.sendQ, bytes.Clone(frame))
	c.cond.Signal()
	return nil
}

// Close implements mpc.Conn.
func (c *netConn) Close() error {
	c.teardown(mpc.ErrClosed)
	return nil
}

// teardown ends the session exactly once: close the socket (waking both
// pumps; the peer observes EOF), unregister, and report Disconnected.
func (c *netConn) teardown(reason error) {
	c.torn.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.sendQ = nil
		c.cond.Broadcast()
		c.mu.Unlock()

		c.sock.Close()
		c.ep.m.stats.sessionsClosed.Add(1)
		c.ep.dropConn(c)
		c.ep.queue.Post(func() { c.ep.events.Disconnected(c, reason) })
	})
}

// readLoop delivers inbound frames until the socket dies.
func (c *netConn) readLoop() {
	defer c.ep.wg.Done()
	for {
		frame, err := wire.ReadFrame(c.sock)
		if err != nil {
			// A clean EOF is the peer closing its side; anything else is
			// the link breaking under us.
			if errors.Is(err, io.EOF) {
				c.teardown(mpc.ErrClosed)
			} else {
				c.teardown(mpc.ErrPeerGone)
			}
			return
		}
		c.ep.m.stats.framesReceived.Add(1)
		c.ep.m.stats.frameBytesReceived.Add(uint64(len(frame)))
		c.ep.queue.Post(func() { c.ep.events.Received(c, frame) })
	}
}

// writeLoop drains the send queue onto the socket.
func (c *netConn) writeLoop() {
	defer c.ep.wg.Done()
	for {
		c.mu.Lock()
		for len(c.sendQ) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		frame := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		c.mu.Unlock()

		if err := wire.WriteFrame(c.sock, frame); err != nil {
			c.teardown(mpc.ErrPeerGone)
			return
		}
		c.ep.m.stats.framesSent.Add(1)
		c.ep.m.stats.frameBytesSent.Add(uint64(len(frame)))
	}
}
