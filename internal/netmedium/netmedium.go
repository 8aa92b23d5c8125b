// Package netmedium implements mpc.Medium over real sockets, turning the
// SOS reproduction from a simulator into a deployable research platform:
// the unmodified stack (adhoc → wire → routing → store) runs across OS
// processes and machines, which is exactly the step the paper's in vivo
// evaluation takes beyond simulation.
//
// Discovery uses periodic UDP beacons carrying the plain-text
// advertisement — the same opaque bytes MemMedium hands to PeerFound —
// plus the sender's per-technology TCP listener ports. Beacons can go to
// a LAN broadcast address, a multicast group, or an explicit list of
// unicast targets (static peers; also how loopback tests wire two
// endpoints together). A peer is found when its advertising beacon
// arrives, refreshed when the payload changes, and lost when it says
// goodbye, stops advertising, or falls silent for the configured loss
// timeout.
//
// Sessions are TCP connections with the length-prefixed framing of
// wire.WriteFrame/ReadFrame. Each endpoint runs one listener per
// configured radio technology, so Bluetooth, peer-to-peer WiFi, and
// infrastructure WiFi remain distinct logical links exactly as Multipeer
// Connectivity multiplexes them; a dialer picks the fastest technology
// the peer advertises. Peer names on this layer are exactly as
// trustworthy as MPC display names — not at all — and the SOS ad hoc
// manager's mutual-certificate handshake on top is what authenticates
// the user behind a link. The medium runs no retry loop: Connect dials
// once, and the caller's retry clock (the message manager's resync
// heartbeat) dials again. The beacon tick also expires silent peers.
//
// netmedium.Medium passes the same conformance suite
// (sos/internal/mpc/mediumtest) as MemMedium and SimMedium.
package netmedium

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"sos/internal/mpc"
	"sos/internal/obs/span"
	"sos/internal/wire"
)

// Defaults for Config's tunables.
const (
	DefaultBeaconListen   = ":7474"
	DefaultBeaconInterval = 1 * time.Second

	dialTimeout = 5 * time.Second // bounds a session's TCP connect plus name exchange
)

// technologies are the logical links every device offers, in listener
// port order.
var technologies = [...]mpc.Technology{mpc.Bluetooth, mpc.PeerToPeerWiFi, mpc.InfrastructureWiFi}

// Config assembles a Medium.
type Config struct {
	// BeaconListen is the UDP address beacons are received on. A
	// multicast group address joins the group (multiple processes on one
	// host can share it); port 0 picks an ephemeral port, which loopback
	// tests use to run many endpoints in one process. Defaults to
	// DefaultBeaconListen.
	BeaconListen string
	// BeaconTargets are the destinations every beacon is sent to: a LAN
	// broadcast address ("255.255.255.255:7474"), a multicast group, or
	// explicit unicast peer addresses. Endpoints joined to the same
	// Medium instance additionally beacon to each other automatically.
	BeaconTargets []string
	// ListenIP is the IP the per-technology TCP listeners bind; empty
	// binds all interfaces.
	ListenIP string
	// BasePort, when nonzero, assigns fixed TCP ports BasePort,
	// BasePort+1, BasePort+2 to Bluetooth, peer-to-peer WiFi, and
	// infrastructure WiFi (for daemons behind known ports); zero picks
	// ephemeral ports. Fixed ports suit one endpoint per process.
	BasePort int
	// BeaconInterval is the gap between periodic beacons.
	BeaconInterval time.Duration
	// LossTimeout is how long a peer may stay silent before PeerLost
	// fires; one not above BeaconInterval becomes 3.5 × BeaconInterval.
	// Silence is checked at each beacon tick, so a silent peer is lost
	// within LossTimeout + BeaconInterval.
	LossTimeout time.Duration
	// Logf, when set, receives debug logging.
	Logf func(format string, args ...any)
	// Tracer, when set, records net-plane spans — session dials and
	// beacon sightings — into the node's flight recorder. Tracks are
	// named "net <self>→<peer>", so a Medium shared by several test
	// endpoints keeps each endpoint's traffic on its own timeline.
	Tracer *span.Tracer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.BeaconListen == "" {
		c.BeaconListen = DefaultBeaconListen
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = DefaultBeaconInterval
	}
	if c.LossTimeout <= c.BeaconInterval {
		c.LossTimeout = 7 * c.BeaconInterval / 2
	}
	return c
}

// Medium is the real-socket mpc.Medium. One instance usually hosts the
// single endpoint of a process, but tests join several endpoints to one
// instance: they then beacon to each other over loopback automatically,
// and SetReachable can stage radio range between them the way
// MemMedium.SetReachable does.
type Medium struct {
	cfg Config

	mu        sync.Mutex
	endpoints map[mpc.PeerID]*Endpoint
	blocked   map[mpc.PairKey]bool
	targets   []*net.UDPAddr

	stats mediumStats
}

var _ mpc.Medium = (*Medium)(nil)

// New creates a Medium, resolving the configured beacon targets.
func New(cfg Config) (*Medium, error) {
	cfg = cfg.withDefaults()
	m := &Medium{
		cfg:       cfg,
		endpoints: make(map[mpc.PeerID]*Endpoint),
		blocked:   make(map[mpc.PairKey]bool),
	}
	for _, t := range cfg.BeaconTargets {
		if err := m.AddBeaconTarget(t); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// AddBeaconTarget adds one more destination for every endpoint's beacons,
// e.g. a peer address learned after startup.
func (m *Medium) AddBeaconTarget(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("netmedium: beacon target %q: %w", addr, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.targets = append(m.targets, ua)
	return nil
}

// BeaconAddrs returns the UDP addresses the instance's endpoints listen
// on, for wiring explicit beacon targets between processes in tests and
// tools.
func (m *Medium) BeaconAddrs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, ep := range m.endpoints {
		out = append(out, ep.udp.LocalAddr().String())
	}
	return out
}

// Join implements mpc.Medium: it binds the endpoint's UDP beacon socket
// and per-technology TCP listeners and starts discovery.
func (m *Medium) Join(peer mpc.PeerID, events mpc.Events) (mpc.Endpoint, error) {
	if peer == "" || len(peer) > 255 {
		return nil, fmt.Errorf("netmedium: peer id must be 1–255 bytes, got %d", len(peer))
	}
	if events == nil {
		return nil, fmt.Errorf("netmedium: nil events for %s", peer)
	}
	m.mu.Lock()
	if _, dup := m.endpoints[peer]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", mpc.ErrDuplicatePeer, peer)
	}
	m.mu.Unlock()

	ep := &Endpoint{
		m:         m,
		self:      peer,
		events:    events,
		listeners: make(map[mpc.Technology]net.Listener),
		ports:     make(map[mpc.Technology]uint16),
		peers:     make(map[mpc.PeerID]*peerState),
		conns:     make(map[*netConn]struct{}),
		closing:   make(chan struct{}),
	}
	if err := binary.Read(rand.Reader, binary.BigEndian, &ep.epoch); err != nil {
		return nil, fmt.Errorf("netmedium: drawing endpoint epoch: %w", err)
	}
	if err := ep.bind(); err != nil {
		ep.releaseSockets()
		return nil, err
	}

	m.mu.Lock()
	if _, dup := m.endpoints[peer]; dup {
		m.mu.Unlock()
		ep.releaseSockets()
		return nil, fmt.Errorf("%w: %s", mpc.ErrDuplicatePeer, peer)
	}
	m.endpoints[peer] = ep
	m.mu.Unlock()

	ep.queue = mpc.NewSerialQueue()
	ep.start()
	return ep, nil
}

// SetReachable severs or restores the logical link between two endpoints
// joined to this instance, mirroring MemMedium.SetReachable: severing
// drops beacons between them, tears down their connections, and fires
// PeerLost for advertised peers; restoring lets the next beacons
// rediscover them.
func (m *Medium) SetReachable(a, b mpc.PeerID, up bool) {
	m.mu.Lock()
	key := mpc.MakePair(a, b)
	was := !m.blocked[key]
	if up {
		delete(m.blocked, key)
	} else {
		m.blocked[key] = true
	}
	epA, epB := m.endpoints[a], m.endpoints[b]
	m.mu.Unlock()

	if was == up {
		return
	}
	if !up {
		if epA != nil {
			epA.severPeer(b)
		}
		if epB != nil {
			epB.severPeer(a)
		}
	}
	// Restoring needs no push: the next periodic beacons pass the filter
	// and rediscovery follows within one interval.
}

// isBlocked reports whether the pair is severed on this instance.
func (m *Medium) isBlocked(a, b mpc.PeerID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blocked[mpc.MakePair(a, b)]
}

// beaconDestinations snapshots every address beacons should reach:
// configured targets plus the sibling endpoints of this instance.
func (m *Medium) beaconDestinations(self mpc.PeerID) []*net.UDPAddr {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*net.UDPAddr, 0, len(m.targets)+len(m.endpoints))
	out = append(out, m.targets...)
	for name, ep := range m.endpoints {
		if name == self {
			continue
		}
		if ua, ok := ep.udp.LocalAddr().(*net.UDPAddr); ok {
			out = append(out, ua)
		}
	}
	return out
}

// dropEndpoint removes a closed endpoint from the instance.
func (m *Medium) dropEndpoint(ep *Endpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.endpoints[ep.self] == ep {
		delete(m.endpoints, ep.self)
	}
}

func (m *Medium) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// peerState is what an endpoint knows about one discovered peer.
type peerState struct {
	ip         net.IP // from the beacon's UDP source address
	ports      map[mpc.Technology]uint16
	epoch      uint64
	ad         []byte
	advertised bool // a PeerFound is outstanding without a PeerLost
	lastSeen   time.Time
	dialFailed bool // this endpoint's last Connect to the peer failed
}

// Endpoint is one device's real-socket attachment.
type Endpoint struct {
	m      *Medium
	self   mpc.PeerID
	events mpc.Events
	queue  *mpc.SerialQueue
	epoch  uint64

	udp       *net.UDPConn
	listeners map[mpc.Technology]net.Listener
	ports     map[mpc.Technology]uint16

	mu     sync.Mutex
	ad     []byte
	peers  map[mpc.PeerID]*peerState
	conns  map[*netConn]struct{}
	closed bool

	closing chan struct{}
	wg      sync.WaitGroup
}

var _ mpc.Endpoint = (*Endpoint)(nil)

// bind opens the UDP beacon socket and the per-technology TCP listeners.
func (ep *Endpoint) bind() error {
	cfg := ep.m.cfg
	laddr, err := net.ResolveUDPAddr("udp", cfg.BeaconListen)
	if err != nil {
		return fmt.Errorf("netmedium: beacon listen address %q: %w", cfg.BeaconListen, err)
	}
	if laddr.IP != nil && laddr.IP.IsMulticast() {
		ep.udp, err = net.ListenMulticastUDP("udp", nil, laddr)
	} else {
		ep.udp, err = net.ListenUDP("udp", laddr)
	}
	if err != nil {
		return fmt.Errorf("netmedium: binding beacon socket: %w", err)
	}
	allowBroadcast(ep.udp)

	for i, tech := range technologies {
		port := 0
		if cfg.BasePort != 0 {
			port = cfg.BasePort + i
		}
		lis, err := net.Listen("tcp", net.JoinHostPort(cfg.ListenIP, fmt.Sprint(port)))
		if err != nil {
			return fmt.Errorf("netmedium: binding %s listener: %w", tech, err)
		}
		ep.listeners[tech] = lis
		ep.ports[tech] = uint16(lis.Addr().(*net.TCPAddr).Port)
	}
	return nil
}

// releaseSockets closes whatever bind managed to open.
func (ep *Endpoint) releaseSockets() {
	if ep.udp != nil {
		ep.udp.Close()
	}
	for _, lis := range ep.listeners {
		lis.Close()
	}
}

// allowBroadcast sets SO_BROADCAST so beacons may target the LAN
// broadcast address; failure only disables that one target type.
func allowBroadcast(conn *net.UDPConn) {
	raw, err := conn.SyscallConn()
	if err != nil {
		return
	}
	raw.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_BROADCAST, 1)
	})
}

// start launches the endpoint's service goroutines.
func (ep *Endpoint) start() {
	ep.wg.Add(2)
	go ep.beaconLoop()
	go ep.recvLoop()
	for tech, lis := range ep.listeners {
		ep.wg.Add(1)
		go ep.acceptLoop(tech, lis)
	}
}

// Self implements mpc.Endpoint.
func (ep *Endpoint) Self() mpc.PeerID { return ep.self }

// SetAdvertisement implements mpc.Endpoint: the payload rides every
// subsequent beacon, and one goes out immediately so peers in range see
// changes without waiting out the interval.
func (ep *Endpoint) SetAdvertisement(ad []byte) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.ad = bytes.Clone(ad)
	ep.mu.Unlock()
	ep.sendBeacon(false)
}

// Connect implements mpc.Endpoint: dial the fastest technology the peer
// advertises and exchange names, once. A failed TCP connect or name
// exchange toward a cached peer returns the plain transport error.
func (ep *Endpoint) Connect(peer mpc.PeerID) (mpc.Conn, error) {
	sp := ep.m.cfg.Tracer.Start(ep.netTrack(peer), "net.dial")
	conn, err := ep.dial(peer)
	if err != nil {
		sp.Attr("ok", 0)
		sp.End()
		ep.m.stats.dialFailures.Add(1)
		return nil, err
	}
	sp.Attr("ok", 1)
	sp.End()
	ep.m.stats.sessionsDialed.Add(1)
	return conn, nil
}

// netTrack interns the net-plane tracer track for traffic between this
// endpoint and peer.
func (ep *Endpoint) netTrack(peer mpc.PeerID) uint64 {
	if ep.m.cfg.Tracer == nil {
		return 0 // skip the label concatenation, not just the record
	}
	return ep.m.cfg.Tracer.Track("net " + string(ep.self) + "→" + string(peer))
}

// dial performs one session dial: TCP connect on the best advertised
// technology plus the name-exchange preamble.
func (ep *Endpoint) dial(peer mpc.PeerID) (_ mpc.Conn, err error) {
	if peer == ep.self {
		return nil, mpc.ErrSelfConnect
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, mpc.ErrClosed
	}
	ps, known := ep.peers[peer]
	if !known {
		ep.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", mpc.ErrPeerUnknown, peer)
	}
	ip, ports := ps.ip, ps.ports
	if ps.dialFailed {
		ep.m.stats.dialRetries.Add(1)
	}
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		ps.dialFailed = err != nil
		ep.mu.Unlock()
	}()
	if ep.m.isBlocked(ep.self, peer) {
		return nil, fmt.Errorf("%w: %s", mpc.ErrPeerGone, peer)
	}
	tech, port, err := pickTechnology(ports)
	if err != nil {
		return nil, err
	}

	sock, err := net.DialTimeout("tcp", net.JoinHostPort(ip.String(), fmt.Sprint(port)), dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netmedium: dialing %s: %w", peer, err)
	}
	sock.SetDeadline(time.Now().Add(dialTimeout))
	if err := writePreamble(sock, tech, ep.self); err != nil {
		sock.Close()
		return nil, fmt.Errorf("netmedium: greeting %s: %w", peer, err)
	}
	_, remote, err := readPreamble(sock)
	if err != nil {
		sock.Close()
		return nil, fmt.Errorf("netmedium: greeting %s: %w", peer, err)
	}
	if remote != peer {
		sock.Close()
		return nil, fmt.Errorf("netmedium: dialed %s, reached %s", peer, remote)
	}
	sock.SetDeadline(time.Time{})

	conn := newNetConn(ep, sock, peer, tech, true)
	if err := ep.adopt(conn, false); err != nil {
		sock.Close()
		return nil, err
	}
	conn.startPumps()
	return conn, nil
}

// pickTechnology chooses the highest-bitrate technology the peer offers.
func pickTechnology(ports map[mpc.Technology]uint16) (mpc.Technology, uint16, error) {
	best := mpc.Technology(0)
	for tech := range ports {
		if tech.Bitrate() > best.Bitrate() {
			best = tech
		}
	}
	if best == 0 {
		return 0, 0, errors.New("netmedium: peer advertises no session ports")
	}
	return best, ports[best], nil
}

// adopt registers a connection with the endpoint; with announce it also
// queues the Incoming callback. Reserving the WaitGroup slots for the
// connection's pumps here, under ep.mu, orders every Add before Close's
// Wait: a connection either registers before Close snapshots (and is
// torn down and waited for) or observes closed and never starts. Posting
// Incoming inside the same critical section guarantees it precedes any
// Disconnected: teardowns find the connection in ep.conns only after
// this section, so their posts always land later on the serial queue.
func (ep *Endpoint) adopt(c *netConn, announce bool) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return mpc.ErrClosed
	}
	ep.conns[c] = struct{}{}
	ep.wg.Add(2)
	if announce {
		ep.queue.Post(func() { ep.events.Incoming(c) })
	}
	return nil
}

// dropConn unregisters a connection.
func (ep *Endpoint) dropConn(c *netConn) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	delete(ep.conns, c)
}

// Close implements mpc.Endpoint: say goodbye, stop the sockets, tear down
// connections, and drain the callback queue.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.ad = nil
	conns := make([]*netConn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.mu.Unlock()

	ep.sendBeacon(true) // best-effort goodbye
	close(ep.closing)
	ep.udp.Close()
	for _, lis := range ep.listeners {
		lis.Close()
	}
	for _, c := range conns {
		c.teardown(mpc.ErrClosed)
	}
	ep.wg.Wait()
	ep.queue.Stop()
	ep.m.dropEndpoint(ep)
	return nil
}

// sendBeacon broadcasts the endpoint's current state to every target.
func (ep *Endpoint) sendBeacon(goodbye bool) {
	ep.mu.Lock()
	b := &beacon{
		name:        ep.self,
		epoch:       ep.epoch,
		goodbye:     goodbye,
		advertising: ep.ad != nil,
		ports:       ep.ports,
		ad:          ep.ad,
	}
	buf, err := b.encode()
	ep.mu.Unlock()
	if err != nil {
		ep.m.logf("netmedium: %s: beacon not sent: %v", ep.self, err)
		return
	}
	for _, dst := range ep.m.beaconDestinations(ep.self) {
		if _, err := ep.udp.WriteToUDP(buf, dst); err != nil {
			ep.m.logf("netmedium: %s: beacon to %s: %v", ep.self, dst, err)
			continue
		}
		ep.m.stats.beaconsSent.Add(1)
	}
}

// beaconLoop emits periodic beacons, and expires peers whose beacons
// stopped arriving, until the endpoint closes.
func (ep *Endpoint) beaconLoop() {
	defer ep.wg.Done()
	ticker := time.NewTicker(ep.m.cfg.BeaconInterval)
	defer ticker.Stop()
	ep.sendBeacon(false)
	for {
		select {
		case <-ticker.C:
			ep.sendBeacon(false)
			ep.reapSilentPeers()
		case <-ep.closing:
			return
		}
	}
}

// recvLoop parses incoming beacons until the UDP socket closes.
func (ep *Endpoint) recvLoop() {
	defer ep.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, src, err := ep.udp.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		b, err := parseBeacon(buf[:n])
		if err != nil {
			continue // stray traffic on the beacon port
		}
		ep.m.stats.beaconsReceived.Add(1)
		ep.handleBeacon(b, src)
	}
}

// handleBeacon folds one beacon into the peer table and fires discovery
// events.
func (ep *Endpoint) handleBeacon(b *beacon, src *net.UDPAddr) {
	if b.name == ep.self || b.epoch == ep.epoch {
		return // our own beacon, possibly echoed by broadcast
	}
	if ep.m.isBlocked(ep.self, b.name) {
		return
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ps := ep.peers[b.name]

	if b.goodbye {
		if ps != nil {
			if ps.advertised {
				ep.postLost(b.name)
			}
			delete(ep.peers, b.name)
		}
		return
	}
	if ps == nil {
		ps = &peerState{}
		ep.peers[b.name] = ps
	} else if ps.epoch != b.epoch && ps.advertised {
		// The peer restarted; its previous incarnation is gone.
		ep.postLost(b.name)
		ps.advertised = false
		ps.ad = nil
	}
	ps.epoch = b.epoch
	ps.ip = src.IP
	ps.ports = b.ports
	ps.lastSeen = time.Now()

	switch {
	case b.advertising && (!ps.advertised || !bytes.Equal(ps.ad, b.ad)):
		ps.advertised = true
		ps.ad = b.ad
		ep.m.cfg.Tracer.Event(ep.netTrack(b.name), "beacon.seen")
		ep.postFound(b.name, b.ad)
	case !b.advertising && ps.advertised:
		ps.advertised = false
		ps.ad = nil
		ep.postLost(b.name)
	}
}

// postFound queues PeerFound. Callers hold ep.mu.
func (ep *Endpoint) postFound(peer mpc.PeerID, ad []byte) {
	payload := bytes.Clone(ad)
	ep.queue.Post(func() { ep.events.PeerFound(peer, payload) })
}

// postLost queues PeerLost. Callers hold ep.mu.
func (ep *Endpoint) postLost(peer mpc.PeerID) {
	ep.queue.Post(func() { ep.events.PeerLost(peer) })
}

func (ep *Endpoint) reapSilentPeers() {
	cutoff := time.Now().Add(-ep.m.cfg.LossTimeout)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	for name, ps := range ep.peers {
		if ps.lastSeen.Before(cutoff) {
			if ps.advertised {
				ep.postLost(name)
			}
			delete(ep.peers, name)
		}
	}
}

// severPeer implements the local half of Medium.SetReachable(…, false):
// drop connections to the peer and lose it if it was advertising. The
// peer's address stays cached (until the loss timeout) so Connect reports
// ErrPeerGone, not ErrPeerUnknown, for a peer that just went out of
// range.
func (ep *Endpoint) severPeer(peer mpc.PeerID) {
	ep.mu.Lock()
	var doomed []*netConn
	for c := range ep.conns {
		if c.peer == peer {
			doomed = append(doomed, c)
		}
	}
	if ps := ep.peers[peer]; ps != nil && ps.advertised {
		ps.advertised, ps.ad = false, nil
		if !ep.closed {
			ep.postLost(peer)
		}
	}
	ep.mu.Unlock()
	for _, c := range doomed {
		c.teardown(mpc.ErrPeerGone)
	}
}

// acceptLoop admits inbound sessions on one technology's listener.
func (ep *Endpoint) acceptLoop(tech mpc.Technology, lis net.Listener) {
	defer ep.wg.Done()
	for {
		sock, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			ep.admit(tech, sock)
		}()
	}
}

// admit runs the name exchange on an inbound session and surfaces it as
// Incoming.
func (ep *Endpoint) admit(tech mpc.Technology, sock net.Conn) {
	sock.SetDeadline(time.Now().Add(dialTimeout))
	_, peer, err := readPreamble(sock)
	if err != nil {
		sock.Close()
		return
	}
	if peer == ep.self || ep.m.isBlocked(ep.self, peer) {
		sock.Close()
		return
	}
	if err := writePreamble(sock, tech, ep.self); err != nil {
		sock.Close()
		return
	}
	sock.SetDeadline(time.Time{})

	conn := newNetConn(ep, sock, peer, tech, false)
	if err := ep.adopt(conn, true); err != nil {
		sock.Close()
		return
	}
	ep.m.stats.sessionsAccepted.Add(1)
	conn.startPumps()
}

// Session preamble: each side names itself before opaque frames flow.
var preambleMagic = [4]byte{'S', 'O', 'S', 'C'}

// writePreamble sends this side's name and technology claim.
func writePreamble(sock net.Conn, tech mpc.Technology, self mpc.PeerID) error {
	buf := make([]byte, 0, 7+len(self))
	buf = append(buf, preambleMagic[:]...)
	buf = append(buf, beaconVersion, byte(tech), byte(len(self)))
	buf = append(buf, self...)
	return wire.WriteFrame(sock, buf)
}

// readPreamble reads and validates the peer's preamble.
func readPreamble(sock net.Conn) (mpc.Technology, mpc.PeerID, error) {
	buf, err := wire.ReadFrame(sock)
	if err != nil {
		return 0, "", err
	}
	if len(buf) < 7 || [4]byte(buf[:4]) != preambleMagic || buf[4] != beaconVersion {
		return 0, "", errors.New("netmedium: malformed session preamble")
	}
	tech := mpc.Technology(buf[5])
	nameLen := int(buf[6])
	if nameLen == 0 || len(buf) != 7+nameLen {
		return 0, "", errors.New("netmedium: malformed session preamble")
	}
	return tech, mpc.PeerID(buf[7:]), nil
}
