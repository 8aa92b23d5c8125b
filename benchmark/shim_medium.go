package main

import (
	"sync"
	"sync/atomic"
	"time"

	"sos/internal/mpc"
)

// mediumShim wraps the outermost mpc.Medium a workload's nodes join. It
// is always on: it counts every byte a node hands to the medium — beacon
// payloads through SetAdvertisement and session frames through Send —
// which is what wire_bytes_per_msg reports (two atomic adds per call).
// With a tracer it also times those calls and opens a callback span
// around every event the medium delivers, which is where the adhoc,
// message and routing layers do their work.
type mediumShim struct {
	inner mpc.Medium
	tr    *tracer // nil in the untraced run

	c mediumCounters

	mu    sync.Mutex
	joins map[mpc.PeerID]time.Time
	ctx   map[mpc.PeerID]*nodeCtx
}

// mediumCounters is what the shim counts. Handshake bytes are the frames
// that cross a connection before its session exists: SOS's handshake is
// Hello and HelloFin from the initiator, HelloAck from the responder.
type mediumCounters struct {
	beacons        atomic.Uint64
	beaconBytes    atomic.Uint64
	frames         atomic.Uint64
	frameBytes     atomic.Uint64
	handshakeBytes atomic.Uint64
}

type mediumCount struct {
	beacons, beaconBytes, frames, frameBytes, handshakeBytes uint64
}

func (c *mediumCounters) read() mediumCount {
	return mediumCount{
		beacons:        c.beacons.Load(),
		beaconBytes:    c.beaconBytes.Load(),
		frames:         c.frames.Load(),
		frameBytes:     c.frameBytes.Load(),
		handshakeBytes: c.handshakeBytes.Load(),
	}
}

func (a mediumCount) sub(b mediumCount) mediumCount {
	return mediumCount{
		beacons:        a.beacons - b.beacons,
		beaconBytes:    a.beaconBytes - b.beaconBytes,
		frames:         a.frames - b.frames,
		frameBytes:     a.frameBytes - b.frameBytes,
		handshakeBytes: a.handshakeBytes - b.handshakeBytes,
	}
}

func (a mediumCount) add(b mediumCount) mediumCount {
	return mediumCount{
		beacons:        a.beacons + b.beacons,
		beaconBytes:    a.beaconBytes + b.beaconBytes,
		frames:         a.frames + b.frames,
		frameBytes:     a.frameBytes + b.frameBytes,
		handshakeBytes: a.handshakeBytes + b.handshakeBytes,
	}
}

// wireBytes is every byte handed to the medium.
func (a mediumCount) wireBytes() uint64 { return a.beaconBytes + a.frameBytes }

func newMediumShim(inner mpc.Medium, tr *tracer) *mediumShim {
	return &mediumShim{
		inner: inner,
		tr:    tr,
		joins: make(map[mpc.PeerID]time.Time),
		ctx:   make(map[mpc.PeerID]*nodeCtx),
	}
}

var _ mpc.Medium = (*mediumShim)(nil)

// nodeCtx returns the trace context of the node that joins (or joined)
// as peer, creating it on first use so the store, routing and observer
// shims of the same node can share it. Nil when untraced.
func (m *mediumShim) nodeCtx(peer mpc.PeerID) *nodeCtx {
	if m.tr == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.ctx[peer]; ok {
		return n
	}
	n := m.tr.node(string(peer))
	m.ctx[peer] = n
	return n
}

// joinedAt reports when peer last joined, for join → ContactUp timing.
func (m *mediumShim) joinedAt(peer mpc.PeerID) (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.joins[peer]
	return at, ok
}

// Join implements mpc.Medium.
func (m *mediumShim) Join(peer mpc.PeerID, events mpc.Events) (mpc.Endpoint, error) {
	ep := &endpointShim{m: m, n: m.nodeCtx(peer), conns: make(map[mpc.Conn]*connShim)}
	m.mu.Lock()
	m.joins[peer] = time.Now()
	m.mu.Unlock()
	inner, err := m.inner.Join(peer, &eventsShim{ep: ep, user: events})
	if err != nil {
		return nil, err
	}
	ep.inner = inner
	return ep, nil
}

type endpointShim struct {
	m     *mediumShim
	n     *nodeCtx
	inner mpc.Endpoint

	mu    sync.Mutex
	conns map[mpc.Conn]*connShim // inner conn → the wrapper the node holds
}

var _ mpc.Endpoint = (*endpointShim)(nil)

func (ep *endpointShim) Self() mpc.PeerID { return ep.inner.Self() }

func (ep *endpointShim) SetAdvertisement(ad []byte) {
	if ad != nil {
		ep.m.c.beacons.Add(1)
		ep.m.c.beaconBytes.Add(uint64(len(ad)))
	}
	sp := ep.n.begin("mpc.set_advertisement")
	ep.inner.SetAdvertisement(ad)
	sp.end()
}

func (ep *endpointShim) Connect(peer mpc.PeerID) (mpc.Conn, error) {
	sp := ep.n.begin("mpc.connect")
	defer sp.end()
	inner, err := ep.inner.Connect(peer)
	if err != nil {
		return nil, err
	}
	return ep.wrap(inner), nil
}

func (ep *endpointShim) Close() error { return ep.inner.Close() }

// wrap returns the wrapper for an inner connection, creating it on first
// sight: Connect's return path and the event callbacks both come through
// here, so the node sees one identity per connection.
func (ep *endpointShim) wrap(inner mpc.Conn) *connShim {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	c, ok := ep.conns[inner]
	if !ok {
		c = &connShim{ep: ep, inner: inner, handshakeFrames: 1}
		if inner.Initiator() {
			c.handshakeFrames = 2
		}
		ep.conns[inner] = c
	}
	return c
}

func (ep *endpointShim) forget(inner mpc.Conn) {
	ep.mu.Lock()
	delete(ep.conns, inner)
	ep.mu.Unlock()
}

type connShim struct {
	ep    *endpointShim
	inner mpc.Conn
	// handshakeFrames is how many of this side's first frames belong to
	// the handshake; sent counts frames so far.
	handshakeFrames uint64
	sent            atomic.Uint64
}

var _ mpc.Conn = (*connShim)(nil)

func (c *connShim) Peer() mpc.PeerID { return c.inner.Peer() }
func (c *connShim) Initiator() bool  { return c.inner.Initiator() }
func (c *connShim) Close() error     { return c.inner.Close() }

func (c *connShim) Send(frame []byte) error {
	counters := &c.ep.m.c
	counters.frames.Add(1)
	counters.frameBytes.Add(uint64(len(frame)))
	if c.sent.Add(1) <= c.handshakeFrames {
		counters.handshakeBytes.Add(uint64(len(frame)))
	}
	sp := c.ep.n.begin("mpc.send")
	err := c.inner.Send(frame)
	sp.end()
	return err
}

// eventsShim hands the node's Events the wrapped connections and, when
// traced, opens the callback span every nested shim call hangs from.
type eventsShim struct {
	ep   *endpointShim
	user mpc.Events
}

var _ mpc.Events = (*eventsShim)(nil)

func (e *eventsShim) PeerFound(peer mpc.PeerID, ad []byte) {
	sp := e.ep.n.beginCallback("adhoc.peerfound")
	e.user.PeerFound(peer, ad)
	sp.end()
}

func (e *eventsShim) PeerLost(peer mpc.PeerID) {
	sp := e.ep.n.beginCallback("adhoc.peerlost")
	e.user.PeerLost(peer)
	sp.end()
}

func (e *eventsShim) Incoming(conn mpc.Conn) {
	sp := e.ep.n.beginCallback("adhoc.incoming")
	e.user.Incoming(e.ep.wrap(conn))
	sp.end()
}

func (e *eventsShim) Received(conn mpc.Conn, frame []byte) {
	sp := e.ep.n.beginCallback("adhoc.received")
	e.user.Received(e.ep.wrap(conn), frame)
	sp.end()
}

func (e *eventsShim) Disconnected(conn mpc.Conn, reason error) {
	c := e.ep.wrap(conn)
	e.ep.forget(conn)
	sp := e.ep.n.beginCallback("adhoc.disconnected")
	e.user.Disconnected(c, reason)
	sp.end()
}
