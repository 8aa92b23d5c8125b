package mpc

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// MemMedium is a live, in-process medium. Every joined endpoint can reach
// every other by default; tests and examples toggle reachability to stage
// encounters and partitions. Callbacks for each endpoint run sequentially
// on that endpoint's dispatcher goroutine, mirroring how MPC delivers
// delegate callbacks on a session queue.
type MemMedium struct {
	mu        sync.Mutex
	endpoints map[PeerID]*memEndpoint
	blocked   map[PairKey]bool // explicitly severed pairs
}

var _ Medium = (*MemMedium)(nil)

// NewMemMedium creates an empty live medium.
func NewMemMedium() *MemMedium {
	return &MemMedium{
		endpoints: make(map[PeerID]*memEndpoint),
		blocked:   make(map[PairKey]bool),
	}
}

// Join attaches a device to the medium.
func (m *MemMedium) Join(peer PeerID, events Events) (Endpoint, error) {
	if peer == "" {
		return nil, fmt.Errorf("mpc: empty peer id")
	}
	if events == nil {
		return nil, fmt.Errorf("mpc: nil events for %s", peer)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.endpoints[peer]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePeer, peer)
	}
	ep := &memEndpoint{medium: m, self: peer, events: events, conns: make(map[*memConn]bool)}
	ep.dispatcher = NewSerialQueue()
	m.endpoints[peer] = ep

	// The newcomer immediately discovers reachable peers that are already
	// advertising.
	for _, other := range m.endpoints {
		if other == ep || m.blocked[MakePair(peer, other.self)] {
			continue
		}
		other.mu.Lock()
		ad := bytes.Clone(other.ad)
		other.mu.Unlock()
		if ad == nil {
			continue
		}
		from := other.self
		ep.dispatcher.Post(func() { ep.events.PeerFound(from, ad) })
	}
	return ep, nil
}

// SetReachable severs or restores the link between two devices. Severing
// drops active connections and fires PeerLost for advertised peers.
func (m *MemMedium) SetReachable(a, b PeerID, up bool) {
	m.mu.Lock()
	key := MakePair(a, b)
	was := !m.blocked[key]
	if up {
		delete(m.blocked, key)
	} else {
		m.blocked[key] = true
	}
	epA, epB := m.endpoints[a], m.endpoints[b]
	m.mu.Unlock()

	if epA == nil || epB == nil || was == up {
		return
	}
	if !up {
		// Tear down connections crossing the severed link.
		for _, conn := range connsBetween(epA, epB) {
			conn.teardown(ErrPeerGone)
		}
		notifyLost(epA, epB)
		notifyLost(epB, epA)
	} else {
		notifyFound(epA, epB)
		notifyFound(epB, epA)
	}
}

// reachable reports whether two attached endpoints can currently talk.
func (m *MemMedium) reachable(a, b PeerID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.blocked[MakePair(a, b)]
}

// notifyFound tells `to` about `from` if `from` is advertising.
func notifyFound(to, from *memEndpoint) {
	from.mu.Lock()
	ad := bytes.Clone(from.ad)
	from.mu.Unlock()
	if ad == nil {
		return
	}
	peer := from.self
	to.dispatcher.Post(func() { to.events.PeerFound(peer, ad) })
}

// notifyLost tells `to` that `from` is gone if it was advertising.
func notifyLost(to, from *memEndpoint) {
	from.mu.Lock()
	advertising := from.ad != nil
	from.mu.Unlock()
	if !advertising {
		return
	}
	peer := from.self
	to.dispatcher.Post(func() { to.events.PeerLost(peer) })
}

// connsBetween snapshots the active connections bridging two endpoints.
func connsBetween(a, b *memEndpoint) []*memConn {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*memConn
	for conn := range a.conns {
		if conn.remoteEP == b {
			out = append(out, conn)
		}
	}
	return out
}

// memEndpoint is one device's attachment to a MemMedium.
type memEndpoint struct {
	medium     *MemMedium
	self       PeerID
	events     Events
	dispatcher *SerialQueue

	mu     sync.Mutex
	ad     []byte
	conns  map[*memConn]bool
	closed bool
}

var _ Endpoint = (*memEndpoint)(nil)

// Self implements Endpoint.
func (ep *memEndpoint) Self() PeerID { return ep.self }

// SetAdvertisement implements Endpoint. Publishing (or changing) an
// advertisement makes every reachable endpoint rediscover this peer;
// withdrawing it fires PeerLost.
func (ep *memEndpoint) SetAdvertisement(ad []byte) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	wasAdvertising := ep.ad != nil
	ep.ad = bytes.Clone(ad)
	ep.mu.Unlock()

	ep.medium.mu.Lock()
	others := make([]*memEndpoint, 0, len(ep.medium.endpoints))
	for _, other := range ep.medium.endpoints {
		if other != ep && !ep.medium.blocked[MakePair(ep.self, other.self)] {
			others = append(others, other)
		}
	}
	ep.medium.mu.Unlock()

	self := ep.self
	for _, other := range others {
		other := other
		switch {
		case ad != nil:
			payload := bytes.Clone(ad)
			other.dispatcher.Post(func() { other.events.PeerFound(self, payload) })
		case wasAdvertising:
			other.dispatcher.Post(func() { other.events.PeerLost(self) })
		}
	}
}

// Connect implements Endpoint.
func (ep *memEndpoint) Connect(peer PeerID) (Conn, error) {
	if peer == ep.self {
		return nil, ErrSelfConnect
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, ErrClosed
	}
	ep.mu.Unlock()

	ep.medium.mu.Lock()
	remote, ok := ep.medium.endpoints[peer]
	blocked := ep.medium.blocked[MakePair(ep.self, peer)]
	ep.medium.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrPeerUnknown, peer)
	}
	if blocked {
		return nil, fmt.Errorf("%w: %s", ErrPeerGone, peer)
	}

	local := &memConn{localEP: ep, remoteEP: remote, initiator: true}
	remoteSide := &memConn{localEP: remote, remoteEP: ep, initiator: false}
	local.twin, remoteSide.twin = remoteSide, local

	ep.addConn(local)
	remote.addConn(remoteSide)

	remote.dispatcher.Post(func() { remote.events.Incoming(remoteSide) })
	return local, nil
}

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	wasAdvertising := ep.ad != nil
	ep.ad = nil
	conns := make([]*memConn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.mu.Unlock()

	for _, c := range conns {
		c.teardown(ErrClosed)
	}

	ep.medium.mu.Lock()
	delete(ep.medium.endpoints, ep.self)
	others := make([]*memEndpoint, 0, len(ep.medium.endpoints))
	for _, other := range ep.medium.endpoints {
		others = append(others, other)
	}
	ep.medium.mu.Unlock()

	if wasAdvertising {
		self := ep.self
		for _, other := range others {
			other := other
			other.dispatcher.Post(func() { other.events.PeerLost(self) })
		}
	}
	ep.dispatcher.Stop()
	return nil
}

func (ep *memEndpoint) addConn(c *memConn) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.conns[c] = true
}

func (ep *memEndpoint) dropConn(c *memConn) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	delete(ep.conns, c)
}

// memConn is one side of a live connection.
type memConn struct {
	localEP   *memEndpoint
	remoteEP  *memEndpoint
	twin      *memConn
	initiator bool
	closed    atomic.Bool
}

var _ Conn = (*memConn)(nil)

// Peer implements Conn.
func (c *memConn) Peer() PeerID { return c.remoteEP.self }

// Initiator implements Conn.
func (c *memConn) Initiator() bool { return c.initiator }

// Send implements Conn.
func (c *memConn) Send(frame []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if !c.localEP.medium.reachable(c.localEP.self, c.remoteEP.self) {
		c.teardown(ErrPeerGone)
		return ErrPeerGone
	}
	payload := bytes.Clone(frame)
	remote, twin := c.remoteEP, c.twin
	remote.dispatcher.Post(func() {
		if !twin.closed.Load() {
			remote.events.Received(twin, payload)
		}
	})
	return nil
}

// Close implements Conn.
func (c *memConn) Close() error {
	c.teardown(ErrClosed)
	return nil
}

// teardown closes both sides exactly once and notifies both endpoints.
func (c *memConn) teardown(reason error) {
	if c.closed.Swap(true) {
		return
	}
	c.twin.closed.Store(true)
	c.localEP.dropConn(c)
	c.remoteEP.dropConn(c.twin)

	local, remote, twin := c.localEP, c.remoteEP, c.twin
	local.dispatcher.Post(func() { local.events.Disconnected(c, reason) })
	remote.dispatcher.Post(func() { remote.events.Disconnected(twin, reason) })
}
