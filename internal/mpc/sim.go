package mpc

import (
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"time"

	"sos/internal/clock"
)

// Latencies of the simulated medium. Discovery is not instant on
// real MPC: Bonjour/BLE beacons take on the order of a second to surface a
// peer, and connection setup has a round trip.
const (
	DefaultDiscoveryDelay = 800 * time.Millisecond
	DefaultConnectDelay   = 150 * time.Millisecond
	DefaultFrameOverhead  = 4 * time.Millisecond
)

// SimStats aggregates medium-level counters for overhead reporting.
type SimStats struct {
	FramesDelivered uint64
	BytesDelivered  uint64
	FramesDropped   uint64
	Connections     uint64
	ContactsUp      uint64
	ContactsDown    uint64
}

// SimMedium is a deterministic virtual-time medium driven by the
// discrete-event simulator. The simulator establishes and cuts links as
// node mobility brings radios in and out of range; the medium models
// discovery latency, connection setup, per-technology bitrates, and
// in-flight frame loss when a contact ends mid-transfer.
//
// All methods must be called from the simulation goroutine; callbacks run
// synchronously inside RunUntil.
type SimMedium struct {
	clk       *clock.Virtual
	endpoints map[PeerID]*simEndpoint
	links     map[PairKey]*simLink
	queue     eventHeap
	seq       uint64
	stats     SimStats

	// OnContact, when set, observes every link up/down transition.
	OnContact func(Contact)
}

var _ Medium = (*SimMedium)(nil)

// simLink is an active radio contact between two devices. discovered
// marks one whose discovery delay has passed: until then an advertisement
// waits for that delay's one announce.
type simLink struct {
	tech       Technology
	epoch      uint64
	discovered bool
	// busy serializes transfers per direction: the time at which the
	// direction's "radio" frees up.
	busy map[PeerID]time.Time
}

// NewSimMedium creates a simulated medium on the given virtual clock.
func NewSimMedium(clk *clock.Virtual) *SimMedium {
	return &SimMedium{
		clk:       clk,
		endpoints: make(map[PeerID]*simEndpoint),
		links:     make(map[PairKey]*simLink),
	}
}

// Stats returns the aggregate counters so far.
func (m *SimMedium) Stats() SimStats { return m.stats }

// Join implements Medium.
func (m *SimMedium) Join(peer PeerID, events Events) (Endpoint, error) {
	if peer == "" {
		return nil, fmt.Errorf("mpc: empty peer id")
	}
	if events == nil {
		return nil, fmt.Errorf("mpc: nil events for %s", peer)
	}
	if _, dup := m.endpoints[peer]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePeer, peer)
	}
	ep := &simEndpoint{medium: m, self: peer, events: events, conns: make(map[*simConn]bool)}
	m.endpoints[peer] = ep
	return ep, nil
}

// SetLink brings two devices into radio contact over the given
// technology. Discovery events fire after DefaultDiscoveryDelay, with the
// advertisements current then.
func (m *SimMedium) SetLink(a, b PeerID, tech Technology) {
	key := MakePair(a, b)
	if _, up := m.links[key]; up {
		return
	}
	m.links[key] = &simLink{tech: tech, busy: make(map[PeerID]time.Time)}
	m.stats.ContactsUp++
	now := m.clk.Now()
	if m.OnContact != nil {
		m.OnContact(Contact{A: key.Lo, B: key.Hi, Tech: tech, At: now, Up: true})
	}

	epA, epB := m.endpoints[a], m.endpoints[b]
	if epA == nil || epB == nil {
		return
	}
	epoch := m.links[key].epoch
	at := now.Add(DefaultDiscoveryDelay)
	m.post(at, func() {
		link, up := m.links[key]
		if !up || link.epoch != epoch {
			return
		}
		link.discovered = true
		m.announce(epA, epB)
		m.announce(epB, epA)
	})
}

// CutLink ends the radio contact between two devices: in-flight frames are
// lost, connections tear down, and PeerLost fires for advertised peers.
func (m *SimMedium) CutLink(a, b PeerID) {
	key := MakePair(a, b)
	link, up := m.links[key]
	if !up {
		return
	}
	link.epoch++
	delete(m.links, key)
	m.stats.ContactsDown++
	now := m.clk.Now()
	if m.OnContact != nil {
		m.OnContact(Contact{A: key.Lo, B: key.Hi, Tech: link.tech, At: now, Up: false})
	}

	epA, epB := m.endpoints[a], m.endpoints[b]
	if epA == nil || epB == nil {
		return
	}
	for _, conn := range epA.connsTo(b) {
		conn.teardown(ErrPeerGone)
	}
	m.post(now, func() {
		m.lost(epA, epB)
		m.lost(epB, epA)
	})
}

// announce queues PeerFound at `to` about `from` if `from` advertises.
func (m *SimMedium) announce(to, from *simEndpoint) {
	if from.ad == nil || to.closed || from.closed {
		return
	}
	to.events.PeerFound(from.self, bytes.Clone(from.ad))
}

// lost fires PeerLost at `to` about `from` if `from` advertises.
func (m *SimMedium) lost(to, from *simEndpoint) {
	if from.ad == nil || to.closed || from.closed {
		return
	}
	to.events.PeerLost(from.self)
}

// RunUntil processes every queued event with timestamp ≤ upto, advancing
// the virtual clock through each event time. It returns the number of
// events processed.
func (m *SimMedium) RunUntil(upto time.Time) int {
	n := 0
	for len(m.queue) > 0 && !m.queue[0].at.After(upto) {
		ev := heap.Pop(&m.queue).(simEvent)
		m.clk.Set(ev.at)
		ev.fn()
		n++
	}
	return n
}

// post queues fn to run at the given virtual time.
func (m *SimMedium) post(at time.Time, fn func()) {
	m.seq++
	heap.Push(&m.queue, simEvent{at: at, seq: m.seq, fn: fn})
}

// linkKeysOf returns the link keys touching peer in deterministic order,
// so event generation never depends on map iteration order.
func (m *SimMedium) linkKeysOf(peer PeerID) []PairKey {
	var keys []PairKey
	for key := range m.links {
		if key.Lo == peer || key.Hi == peer {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(a, b PairKey) int { return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi)) })
	return keys
}

// simEvent is one queued callback.
type simEvent struct {
	at  time.Time
	seq uint64 // insertion order breaks timestamp ties deterministically
	fn  func()
}

// eventHeap orders events by (time, insertion order).
type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// simEndpoint is a device attached to the simulated medium.
type simEndpoint struct {
	medium *SimMedium
	self   PeerID
	events Events
	ad     []byte
	conns  map[*simConn]bool
	closed bool
}

var _ Endpoint = (*simEndpoint)(nil)

// Self implements Endpoint.
func (ep *simEndpoint) Self() PeerID { return ep.self }

// SetAdvertisement implements Endpoint. Peers on discovered links
// rediscover this device after the discovery delay; a link still inside
// its own delay announces the advertisement current when it ends.
func (ep *simEndpoint) SetAdvertisement(ad []byte) {
	if ep.closed {
		return
	}
	wasAdvertising := ep.ad != nil
	ep.ad = bytes.Clone(ad)
	m := ep.medium
	at := m.clk.Now().Add(DefaultDiscoveryDelay)
	for _, key := range m.linkKeysOf(ep.self) {
		link := m.links[key]
		var other PeerID
		if ep.self == key.Lo {
			other = key.Hi
		} else {
			other = key.Lo
		}
		otherEP := m.endpoints[other]
		if otherEP == nil || !link.discovered {
			continue
		}
		epoch := link.epoch
		switch {
		case ad != nil:
			m.post(at, func() {
				if l, up := m.links[key]; up && l.epoch == epoch {
					m.announce(otherEP, ep)
				}
			})
		case wasAdvertising:
			m.post(m.clk.Now(), func() {
				if !otherEP.closed {
					otherEP.events.PeerLost(ep.self)
				}
			})
		}
	}
}

// Connect implements Endpoint. The connection exists immediately on the
// initiator side; the responder sees Incoming after the connect delay.
func (ep *simEndpoint) Connect(peer PeerID) (Conn, error) {
	if ep.closed {
		return nil, ErrClosed
	}
	if peer == ep.self {
		return nil, ErrSelfConnect
	}
	m := ep.medium
	remote, known := m.endpoints[peer]
	if !known || remote.closed {
		return nil, fmt.Errorf("%w: %s", ErrPeerUnknown, peer)
	}
	key := MakePair(ep.self, peer)
	link, up := m.links[key]
	if !up {
		return nil, fmt.Errorf("%w: %s", ErrPeerGone, peer)
	}

	readyAt := m.clk.Now().Add(DefaultConnectDelay)
	local := &simConn{medium: m, localEP: ep, remoteEP: remote, pair: key, epoch: link.epoch, initiator: true, readyAt: readyAt}
	remoteSide := &simConn{medium: m, localEP: remote, remoteEP: ep, pair: key, epoch: link.epoch, initiator: false, readyAt: readyAt}
	local.twin, remoteSide.twin = remoteSide, local
	ep.conns[local] = true
	remote.conns[remoteSide] = true
	m.stats.Connections++

	m.post(readyAt, func() {
		if remoteSide.closed || remote.closed {
			return
		}
		if l, stillUp := m.links[key]; !stillUp || l.epoch != remoteSide.epoch {
			return
		}
		remote.events.Incoming(remoteSide)
	})
	return local, nil
}

// Close implements Endpoint.
func (ep *simEndpoint) Close() error {
	if ep.closed {
		return nil
	}
	wasAdvertising := ep.ad != nil
	ep.ad = nil
	for conn := range ep.conns {
		conn.teardown(ErrClosed)
	}
	m := ep.medium
	if wasAdvertising {
		for _, key := range m.linkKeysOf(ep.self) {
			var other PeerID
			if ep.self == key.Lo {
				other = key.Hi
			} else {
				other = key.Lo
			}
			if otherEP := m.endpoints[other]; otherEP != nil && !otherEP.closed {
				peer := ep.self
				target := otherEP
				m.post(m.clk.Now(), func() {
					if !target.closed {
						target.events.PeerLost(peer)
					}
				})
			}
		}
	}
	ep.closed = true
	delete(m.endpoints, ep.self)
	return nil
}

// connsTo snapshots the endpoint's connections to a given peer.
func (ep *simEndpoint) connsTo(peer PeerID) []*simConn {
	var out []*simConn
	for conn := range ep.conns {
		if conn.remoteEP.self == peer {
			out = append(out, conn)
		}
	}
	return out
}

// simConn is one side of a simulated connection.
type simConn struct {
	medium    *SimMedium
	localEP   *simEndpoint
	remoteEP  *simEndpoint
	twin      *simConn
	pair      PairKey
	epoch     uint64
	initiator bool
	closed    bool
	// readyAt is when connection setup completes (the responder's Incoming
	// callback); no frame may be delivered before it.
	readyAt time.Time
}

var _ Conn = (*simConn)(nil)

// Peer implements Conn.
func (c *simConn) Peer() PeerID { return c.remoteEP.self }

// Initiator implements Conn.
func (c *simConn) Initiator() bool { return c.initiator }

// Send implements Conn. Transfer time is the frame size over the link
// technology's bitrate plus fixed per-frame overhead; transfers in one
// direction are serialized. A frame still in flight when the contact ends
// is silently lost — exactly the failure the message manager must recover
// from.
func (c *simConn) Send(frame []byte) error {
	if c.closed {
		return ErrClosed
	}
	m := c.medium
	link, up := m.links[c.pair]
	if !up || link.epoch != c.epoch {
		c.teardown(ErrPeerGone)
		return ErrPeerGone
	}

	now := m.clk.Now()
	start := now
	if c.readyAt.After(start) {
		start = c.readyAt
	}
	if busy := link.busy[c.localEP.self]; busy.After(start) {
		start = busy
	}
	duration := DefaultFrameOverhead + time.Duration(float64(len(frame))/link.tech.Bitrate()*float64(time.Second))
	deliverAt := start.Add(duration)
	link.busy[c.localEP.self] = deliverAt

	payload := bytes.Clone(frame)
	twin := c.twin
	epoch := c.epoch
	size := uint64(len(frame))
	m.post(deliverAt, func() {
		l, stillUp := m.links[c.pair]
		if !stillUp || l.epoch != epoch || twin.closed || twin.localEP.closed {
			m.stats.FramesDropped++
			return
		}
		m.stats.FramesDelivered++
		m.stats.BytesDelivered += size
		twin.localEP.events.Received(twin, payload)
	})
	return nil
}

// Close implements Conn.
func (c *simConn) Close() error {
	c.teardown(ErrClosed)
	return nil
}

// teardown closes both sides once and queues Disconnected for each.
func (c *simConn) teardown(reason error) {
	if c.closed {
		return
	}
	c.closed = true
	c.twin.closed = true
	delete(c.localEP.conns, c)
	delete(c.remoteEP.conns, c.twin)

	m := c.medium
	local, remote, twin := c.localEP, c.remoteEP, c.twin
	m.post(m.clk.Now(), func() {
		if !local.closed {
			local.events.Disconnected(c, reason)
		}
		if !remote.closed {
			remote.events.Disconnected(twin, reason)
		}
	})
}
