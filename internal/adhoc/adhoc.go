// Package adhoc implements the SOS ad hoc manager (paper §III-D): the
// layer that drives the Multipeer-Connectivity-style medium. It advertises
// the local summary, browses for peers, establishes device-to-device
// connections, runs the mutual-certificate handshake (paper Figs. 2b, 3a,
// 3b), encrypts every post-handshake frame with a per-connection session,
// and verifies the identity behind each link before the layers above ever
// see it.
//
// The handshake:
//
//	initiator → responder:  Hello{cert_I, nonce_I}                (plain)
//	responder → initiator:  HelloAck{cert_R, nonce_R, sig_R}      (plain)
//	initiator → responder:  HelloFin{sig_I}                       (sealed)
//
// where sig_X signs the transcript "sos/hs/v1" ‖ nonce_I ‖ nonce_R ‖
// SHA-256(cert_I) ‖ SHA-256(cert_R). Both sides then derive directional
// AES-256-GCM keys from an ECDH agreement between the certified identity
// keys, bound to the nonces. A peer that presents a certificate it does
// not own fails the transcript signature; a peer with an untrusted,
// expired, or revoked certificate fails verification outright.
package adhoc

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/obs/span"
	"sos/internal/pki"
	"sos/internal/secure"
	"sos/internal/wire"
)

// handshakeTag is the domain-separation prefix of the transcript.
const handshakeTag = "sos/hs/v1"

// Errors reported by the ad hoc manager.
var (
	ErrClosed        = errors.New("adhoc: manager closed")
	ErrBadHandshake  = errors.New("adhoc: handshake protocol violation")
	ErrBadTranscript = errors.New("adhoc: transcript signature invalid")
	ErrLinkExists    = errors.New("adhoc: link to peer already active")
	// ErrPeerMisbehaved marks authenticated protocol abuse: the peer's
	// sealed frame decrypted and authenticated under the session key but
	// its plaintext is not a wire frame. Radio damage cannot produce
	// this (a corrupted ciphertext fails AEAD authentication instead),
	// so the upper layer may score it against the peer. Surfaces as the
	// LinkDown reason.
	ErrPeerMisbehaved = errors.New("adhoc: authenticated peer sent undecodable plaintext")
)

// Handler is the callback surface the message manager registers.
// Callbacks for one manager are serialized; they must not block. Frames
// handed to FrameIn may alias decode scratch that is reused after the
// callback returns (a Batch's messages alias the decrypted frame buffer);
// handlers that retain message contents must copy them first
// (msg.Message.Retain).
type Handler interface {
	// Bind hands the handler its manager. New calls it before joining the
	// medium, so the first event — a beacon already on the air can arrive
	// before Join returns — finds a handler that can dial.
	Bind(m *Manager)
	// PeerDiscovered fires when a peer's plain-text discovery hint is seen
	// (new peer, or refreshed hint).
	PeerDiscovered(peer mpc.PeerID, ad *wire.Advertisement)
	// PeerGone fires when an advertised peer leaves range.
	PeerGone(peer mpc.PeerID)
	// LinkUp fires when a mutually-authenticated encrypted link is ready.
	LinkUp(link *Link)
	// FrameIn delivers a decrypted, decoded frame from an established link.
	FrameIn(link *Link, f wire.Frame)
	// LinkDown fires when an established link ends.
	LinkDown(link *Link, reason error)
}

// Config assembles a manager.
type Config struct {
	Medium   mpc.Medium
	PeerName mpc.PeerID
	Ident    *id.Identity
	CertDER  []byte        // own CA-issued certificate
	Verifier *pki.Verifier // trust anchor + CRL state
	Handler  Handler
	Clock    clock.Clock
	Rand     io.Reader // handshake nonce source; nil → crypto/rand
	// Tracer, when set, records a handshake span per connection into the
	// node's flight recorder, on the same "contact <peer>" track the
	// message layer uses, so the secure handshake heads each
	// contact-session span tree. Nil disables tracing.
	Tracer *span.Tracer
	// SessionConfig is the secure.SessionConfig of every established
	// link: rotation tuning, scoped stats, the tracer of the key
	// derivation span. The zero value selects secure-layer defaults; a nil
	// Clock in it is filled with the manager's own.
	SessionConfig secure.SessionConfig
}

// Stats counts security-relevant events for reporting.
type Stats struct {
	HandshakesOK       uint64
	HandshakeFailures  uint64
	CertRejections     uint64
	FramesSent         uint64
	FramesReceived     uint64
	DecryptionFailures uint64
}

// Manager is the ad hoc manager for one device.
type Manager struct {
	cfg Config
	// endpoint is set once Join returns, which closes joined; Connect,
	// the one endpoint user an early event can reach, waits on it.
	endpoint mpc.Endpoint
	joined   chan struct{}

	mu     sync.Mutex
	conns  map[mpc.Conn]*connState
	links  map[mpc.PeerID]*Link
	stats  Stats
	closed bool
}

// role distinguishes the two handshake sides.
type role int

const (
	roleInitiator role = iota + 1
	roleResponder
)

// stage tracks handshake progress on one connection.
type stage int

const (
	stageHelloSent  stage = iota + 1 // initiator: waiting for HelloAck
	stageAwaitHello                  // responder: waiting for Hello
	stageAwaitFin                    // responder: waiting for sealed HelloFin
	stageEstablished
)

// connState is the per-connection handshake state machine.
type connState struct {
	conn     mpc.Conn
	role     role
	stage    stage
	nonceI   [wire.NonceLen]byte
	nonceR   [wire.NonceLen]byte
	peerCert *pki.UserCert
	session  *secure.Session
	link     *Link
	// hs is the connection's handshake span, opened when the connection
	// appears and ended at establishment or failure. Written before the
	// state is published in conns; the manager's serialized callbacks
	// only read it afterwards.
	hs span.Span
	// failure records why the manager dropped the connection, so the
	// eventual Disconnected callback can report the protocol-level
	// reason (e.g. ErrPeerMisbehaved) instead of the transport's
	// generic close error. Guarded by the manager mutex.
	failure error
	// swept marks a handshake ExpireHandshakes has already seen; the
	// next call fails it. Guarded by the manager mutex.
	swept bool
}

// contactTrack interns the contact track shared with the message layer.
func (m *Manager) contactTrack(peer mpc.PeerID) uint64 {
	if m.cfg.Tracer == nil {
		return 0 // skip the label concatenation, not just the record
	}
	return m.cfg.Tracer.Track("contact " + string(peer))
}

// New binds the handler to a new manager, then attaches the manager to
// the medium and starts browsing.
func New(cfg Config) (*Manager, error) {
	if cfg.Medium == nil || cfg.Ident == nil || cfg.Handler == nil || cfg.Verifier == nil {
		return nil, errors.New("adhoc: config requires Medium, Ident, Verifier, and Handler")
	}
	if len(cfg.CertDER) == 0 {
		return nil, errors.New("adhoc: config requires the device certificate")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	if cfg.SessionConfig.Clock == nil {
		cfg.SessionConfig.Clock = cfg.Clock
	}
	m := &Manager{
		cfg:    cfg,
		conns:  make(map[mpc.Conn]*connState),
		links:  make(map[mpc.PeerID]*Link),
		joined: make(chan struct{}),
	}
	cfg.Handler.Bind(m)
	ep, err := cfg.Medium.Join(cfg.PeerName, (*events)(m))
	if err != nil {
		return nil, fmt.Errorf("adhoc: joining medium: %w", err)
	}
	m.endpoint = ep
	close(m.joined)
	return m, nil
}

// newSession derives the link session for an authenticated peer under
// the node's session configuration.
func (m *Manager) newSession(peerCert *pki.UserCert, context []byte) (*secure.Session, error) {
	return secure.NewSessionWithConfig(m.cfg.Ident.Key, peerCert.Key, context, m.cfg.SessionConfig)
}

// Self returns the local device name.
func (m *Manager) Self() mpc.PeerID { return m.cfg.PeerName }

// User returns the local user identity.
func (m *Manager) User() id.UserID { return m.cfg.Ident.User }

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Advertise publishes the hint as this device's plain-text discovery
// beacon (paper §V-A); the medium replays it to newly arrived peers.
func (m *Manager) Advertise(ad *wire.Advertisement) error {
	buf, err := wire.Encode(ad)
	if err != nil {
		return fmt.Errorf("adhoc: encoding advertisement: %w", err)
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	m.endpoint.SetAdvertisement(buf)
	return nil
}

// Connect begins a handshake with a discovered peer. The link surfaces via
// Handler.LinkUp when both sides have authenticated. Connecting while a
// link or handshake to the peer is active is a harmless no-op error.
func (m *Manager) Connect(peer mpc.PeerID) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if _, up := m.links[peer]; up {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrLinkExists, peer)
	}
	for _, st := range m.conns {
		if st.conn.Peer() == peer {
			m.mu.Unlock()
			return fmt.Errorf("%w: handshake with %s in progress", ErrLinkExists, peer)
		}
	}
	m.mu.Unlock()

	<-m.joined
	conn, err := m.endpoint.Connect(peer)
	if err != nil {
		return fmt.Errorf("adhoc: connecting to %s: %w", peer, err)
	}

	st := &connState{conn: conn, role: roleInitiator, stage: stageHelloSent}
	st.hs = m.cfg.Tracer.Start(m.contactTrack(peer), "handshake")
	if _, err := io.ReadFull(m.cfg.Rand, st.nonceI[:]); err != nil {
		conn.Close()
		return fmt.Errorf("adhoc: reading nonce: %w", err)
	}
	m.mu.Lock()
	m.conns[conn] = st
	m.mu.Unlock()

	hello := &wire.Hello{CertDER: m.cfg.CertDER, Nonce: st.nonceI}
	if err := m.sendPlain(conn, hello); err != nil {
		m.failConn(conn, err)
		return err
	}
	return nil
}

// Close detaches from the medium and tears down all links.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	links := make([]*Link, 0, len(m.links))
	for _, l := range m.links {
		links = append(links, l)
	}
	m.links = make(map[mpc.PeerID]*Link)
	m.conns = make(map[mpc.Conn]*connState)
	m.mu.Unlock()

	for _, l := range links {
		l.conn.Close()
		m.cfg.Handler.LinkDown(l, ErrClosed)
	}
	return m.endpoint.Close()
}

// ExpireHandshakes fails every connection that is still mid-handshake and
// was already mid-handshake at the previous call. A lossy radio can
// swallow a Hello, HelloAck or HelloFin, and the state machine has no
// other way to make progress: the wedged connection would otherwise live
// forever, and Connect would refuse every retry while it does. The caller
// sets the pace — the message manager calls this once per resync
// heartbeat tick, before its re-dials — so the guard needs no clock.
func (m *Manager) ExpireHandshakes() {
	var wedged []*connState
	m.mu.Lock()
	for conn, st := range m.conns {
		switch {
		case st.link != nil: // established; unlike stage, link is set under mu
		case !st.swept:
			st.swept = true
		default:
			delete(m.conns, conn)
			m.stats.HandshakeFailures++
			wedged = append(wedged, st)
		}
	}
	m.mu.Unlock()
	for _, st := range wedged {
		st.hs.Attr("ok", 0)
		st.hs.End()
		st.conn.Close()
	}
}

// sendPlain encodes and sends a handshake frame outside any session.
func (m *Manager) sendPlain(conn mpc.Conn, f wire.Frame) error {
	buf, err := wire.Encode(f)
	if err != nil {
		return fmt.Errorf("adhoc: encoding %s: %w", f.Type(), err)
	}
	if err := conn.Send(buf); err != nil {
		return fmt.Errorf("adhoc: sending %s: %w", f.Type(), err)
	}
	return nil
}

// failConn abandons a connection before establishment, counting it
// unless ExpireHandshakes already did.
func (m *Manager) failConn(conn mpc.Conn, _ error) {
	m.mu.Lock()
	st := m.conns[conn]
	if st != nil {
		delete(m.conns, conn)
		m.stats.HandshakeFailures++
	}
	m.mu.Unlock()
	if st != nil {
		st.hs.Attr("ok", 0)
		st.hs.End()
	}
	conn.Close()
}

// transcript computes the handshake transcript both sides sign.
func transcript(nonceI, nonceR [wire.NonceLen]byte, certI, certR []byte) []byte {
	hI := sha256.Sum256(certI)
	hR := sha256.Sum256(certR)
	out := make([]byte, 0, len(handshakeTag)+2*wire.NonceLen+2*sha256.Size)
	out = append(out, handshakeTag...)
	out = append(out, nonceI[:]...)
	out = append(out, nonceR[:]...)
	out = append(out, hI[:]...)
	out = append(out, hR[:]...)
	return out
}

// sessionContext binds the derived session keys to both nonces.
func sessionContext(nonceI, nonceR [wire.NonceLen]byte) []byte {
	out := make([]byte, 0, 2*wire.NonceLen)
	out = append(out, nonceI[:]...)
	out = append(out, nonceR[:]...)
	return out
}

// events adapts Manager to mpc.Events without exporting the methods on
// Manager itself.
type events Manager

var _ mpc.Events = (*events)(nil)

// PeerFound implements mpc.Events: decode and surface the discovery hint.
func (e *events) PeerFound(peer mpc.PeerID, ad []byte) {
	m := (*Manager)(e)
	f, err := wire.Decode(ad)
	if err != nil {
		return // malformed beacon: ignore
	}
	adv, ok := f.(*wire.Advertisement)
	if !ok {
		return
	}
	m.cfg.Handler.PeerDiscovered(peer, adv)
}

// PeerLost implements mpc.Events.
func (e *events) PeerLost(peer mpc.PeerID) {
	m := (*Manager)(e)
	m.cfg.Handler.PeerGone(peer)
}

// Incoming implements mpc.Events: a peer opened a connection; await Hello.
func (e *events) Incoming(conn mpc.Conn) {
	m := (*Manager)(e)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return
	}
	// Simultaneous-connect tie-break: if we already have an in-flight
	// outgoing handshake (or an established link) with this peer, the side
	// with the lexicographically smaller name keeps its outgoing attempt.
	if _, up := m.links[conn.Peer()]; up {
		m.mu.Unlock()
		conn.Close()
		return
	}
	for _, st := range m.conns {
		if st.conn.Peer() == conn.Peer() && st.role == roleInitiator && m.cfg.PeerName < conn.Peer() {
			m.mu.Unlock()
			conn.Close()
			return
		}
	}
	st := &connState{conn: conn, role: roleResponder, stage: stageAwaitHello}
	st.hs = m.cfg.Tracer.Start(m.contactTrack(conn.Peer()), "handshake")
	m.conns[conn] = st
	m.mu.Unlock()
}

// Received implements mpc.Events: route a frame through the handshake
// state machine or the established session.
func (e *events) Received(conn mpc.Conn, frame []byte) {
	m := (*Manager)(e)
	m.mu.Lock()
	st, ok := m.conns[conn]
	m.mu.Unlock()
	if !ok {
		return // unknown or already-failed connection
	}

	switch st.stage {
	case stageAwaitHello:
		m.onHello(st, frame)
	case stageHelloSent:
		m.onHelloAck(st, frame)
	case stageAwaitFin:
		m.onSealed(st, frame, true)
	case stageEstablished:
		m.onSealed(st, frame, false)
	}
}

// Disconnected implements mpc.Events.
func (e *events) Disconnected(conn mpc.Conn, reason error) {
	m := (*Manager)(e)
	m.mu.Lock()
	st, ok := m.conns[conn]
	if ok {
		delete(m.conns, conn)
		if st.stage != stageEstablished {
			m.stats.HandshakeFailures++
			st.hs.Attr("ok", 0)
			st.hs.End()
		}
	}
	var link *Link
	if ok && st.link != nil {
		if m.links[st.link.peer] == st.link {
			delete(m.links, st.link.peer)
		}
		link = st.link
	}
	if ok && st.failure != nil {
		// The manager dropped this connection itself; report why, not
		// the transport's generic close error.
		reason = st.failure
	}
	m.mu.Unlock()
	if link != nil {
		m.cfg.Handler.LinkDown(link, reason)
	}
}

// onHello handles the initiator's Hello at the responder.
func (m *Manager) onHello(st *connState, frame []byte) {
	f, err := wire.Decode(frame)
	if err != nil {
		m.failConn(st.conn, err)
		return
	}
	hello, ok := f.(*wire.Hello)
	if !ok {
		m.failConn(st.conn, fmt.Errorf("%w: got %s, want hello", ErrBadHandshake, f.Type()))
		return
	}
	peerCert, err := m.cfg.Verifier.Verify(hello.CertDER)
	if err != nil {
		m.rejectCert(st.conn, err)
		return
	}
	st.peerCert = peerCert
	st.nonceI = hello.Nonce
	if _, err := io.ReadFull(m.cfg.Rand, st.nonceR[:]); err != nil {
		m.failConn(st.conn, err)
		return
	}

	ts := transcript(st.nonceI, st.nonceR, hello.CertDER, m.cfg.CertDER)
	sig, err := m.cfg.Ident.Sign(ts)
	if err != nil {
		m.failConn(st.conn, err)
		return
	}
	sess, err := m.newSession(peerCert, sessionContext(st.nonceI, st.nonceR))
	if err != nil {
		m.failConn(st.conn, err)
		return
	}
	st.session = sess
	st.stage = stageAwaitFin

	ack := &wire.HelloAck{CertDER: m.cfg.CertDER, Nonce: st.nonceR, Sig: sig}
	if err := m.sendPlain(st.conn, ack); err != nil {
		m.failConn(st.conn, err)
	}
}

// onHelloAck handles the responder's HelloAck at the initiator.
func (m *Manager) onHelloAck(st *connState, frame []byte) {
	f, err := wire.Decode(frame)
	if err != nil {
		m.failConn(st.conn, err)
		return
	}
	ack, ok := f.(*wire.HelloAck)
	if !ok {
		m.failConn(st.conn, fmt.Errorf("%w: got %s, want hello-ack", ErrBadHandshake, f.Type()))
		return
	}
	peerCert, err := m.cfg.Verifier.Verify(ack.CertDER)
	if err != nil {
		m.rejectCert(st.conn, err)
		return
	}
	st.peerCert = peerCert
	st.nonceR = ack.Nonce

	ts := transcript(st.nonceI, st.nonceR, m.cfg.CertDER, ack.CertDER)
	if !id.Verify(peerCert.Key, ts, ack.Sig) {
		m.failConn(st.conn, ErrBadTranscript)
		return
	}
	sess, err := m.newSession(peerCert, sessionContext(st.nonceI, st.nonceR))
	if err != nil {
		m.failConn(st.conn, err)
		return
	}
	st.session = sess

	sig, err := m.cfg.Ident.Sign(ts)
	if err != nil {
		m.failConn(st.conn, err)
		return
	}
	link := m.establish(st)
	if link == nil {
		return
	}
	if err := link.SendFrame(&wire.HelloFin{Sig: sig}); err != nil {
		// Its LinkUp never fired, so drop the link here, not via Disconnected.
		m.mu.Lock()
		if m.conns[st.conn] == st {
			delete(m.conns, st.conn)
			delete(m.links, link.peer)
			m.stats.HandshakeFailures++
		}
		m.mu.Unlock()
		st.conn.Close()
		return
	}
	m.cfg.Handler.LinkUp(link)
}

// onSealed handles session frames: the responder's pending HelloFin, or
// post-handshake traffic. OpenShared reuses the session's decrypt scratch
// across frames; this is safe because onSealed runs on the endpoint's
// serial callback queue and the decoded frame does not outlive FrameIn
// (see the Handler doc).
func (m *Manager) onSealed(st *connState, frame []byte, expectFin bool) {
	plain, err := st.session.OpenShared(frame, nil)
	if err != nil {
		m.mu.Lock()
		m.stats.DecryptionFailures++
		m.mu.Unlock()
		// A stale sequence on an established link is a duplicated or
		// late frame from a chaotic radio (the session tolerates forward
		// gaps, so loss alone never lands here), and a frame from an
		// epoch retired past its overlap window is the same straggler one
		// key rotation later: discard the frame, keep the link.
		// Authentication failures still tear down — a key mismatch
		// cannot heal.
		if !expectFin && (errors.Is(err, secure.ErrReplay) || errors.Is(err, secure.ErrEpochExpired)) {
			return
		}
		m.dropConn(st, err)
		return
	}
	f, err := wire.Decode(plain)
	if err != nil {
		// The ciphertext authenticated, so the peer really sent this
		// undecodable plaintext: protocol abuse, not radio damage.
		m.dropConn(st, fmt.Errorf("%w: %v", ErrPeerMisbehaved, err))
		return
	}

	if expectFin {
		fin, ok := f.(*wire.HelloFin)
		if !ok {
			m.dropConn(st, fmt.Errorf("%w: got %s, want hello-fin", ErrBadHandshake, f.Type()))
			return
		}
		ts := transcript(st.nonceI, st.nonceR, st.peerCert.DER, m.cfg.CertDER)
		if !id.Verify(st.peerCert.Key, ts, fin.Sig) {
			m.dropConn(st, ErrBadTranscript)
			return
		}
		if link := m.establish(st); link != nil {
			m.cfg.Handler.LinkUp(link)
		}
		return
	}

	m.mu.Lock()
	m.stats.FramesReceived++
	link := st.link
	m.mu.Unlock()
	if link == nil {
		return
	}
	if _, bye := f.(*wire.Bye); bye {
		st.conn.Close() // Disconnected will fire LinkDown
		return
	}
	m.cfg.Handler.FrameIn(link, f)
}

// establish promotes a completed handshake to an active link.
func (m *Manager) establish(st *connState) *Link {
	link := &Link{
		mgr:  m,
		conn: st.conn,
		peer: st.conn.Peer(),
		cert: st.peerCert,
		sess: st.session,
	}
	m.mu.Lock()
	if m.conns[st.conn] != st {
		// ExpireHandshakes (or Close) dropped it mid-callback: as a link
		// it would outlive the Disconnected that already missed it.
		m.mu.Unlock()
		return nil
	}
	if existing, up := m.links[link.peer]; up && existing != nil {
		// A link to this peer won a race; drop the duplicate.
		delete(m.conns, st.conn)
		m.mu.Unlock()
		st.hs.Attr("ok", 0)
		st.hs.End()
		st.conn.Close()
		return nil
	}
	st.stage = stageEstablished
	st.link = link
	m.links[link.peer] = link
	m.stats.HandshakesOK++
	m.mu.Unlock()
	st.hs.Attr("ok", 1)
	st.hs.End()
	return link
}

// rejectCert records a certificate rejection and drops the connection.
func (m *Manager) rejectCert(conn mpc.Conn, _ error) {
	m.mu.Lock()
	m.stats.CertRejections++
	m.mu.Unlock()
	m.failConn(conn, nil)
}

// dropConn closes an established (or finishing) connection, recording
// the reason for the Disconnected callback to surface.
func (m *Manager) dropConn(st *connState, reason error) {
	m.mu.Lock()
	if st.failure == nil {
		st.failure = reason
	}
	m.mu.Unlock()
	st.conn.Close() // Disconnected callback does the bookkeeping
}

// Link is an established, mutually-authenticated, encrypted connection to
// one peer device and the verified user behind it.
type Link struct {
	mgr  *Manager
	conn mpc.Conn
	peer mpc.PeerID
	cert *pki.UserCert

	sendMu sync.Mutex
	sess   *secure.Session
	// encBuf and outBuf are the link's encode and seal scratch, guarded
	// by sendMu; media clone on Send, so both are reusable immediately.
	encBuf []byte
	outBuf []byte
}

// Peer returns the remote device name.
func (l *Link) Peer() mpc.PeerID { return l.peer }

// User returns the verified remote user.
func (l *Link) User() id.UserID { return l.cert.User }

// Cert returns the remote user's verified certificate.
func (l *Link) Cert() *pki.UserCert { return l.cert }

// SendFrame encodes f, seals it in the link session, and sends it. Both
// the encode and the seal run in per-link scratch buffers, so steady-state
// sends do not allocate.
func (l *Link) SendFrame(f wire.Frame) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	enc, err := wire.AppendEncode(l.encBuf[:0], f)
	if err != nil {
		return fmt.Errorf("adhoc: encoding %s: %w", f.Type(), err)
	}
	l.encBuf = enc
	return l.sendLocked(enc)
}

// SendEncoded seals and sends an already-encoded frame. The message
// manager uses it to encode a frame once and fan the same bytes out to
// several links (each link still seals with its own session). enc is only
// read.
func (l *Link) SendEncoded(enc []byte) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	return l.sendLocked(enc)
}

// sendLocked seals enc into the link's output scratch and hands it to the
// medium (which clones). Callers hold sendMu.
func (l *Link) sendLocked(enc []byte) error {
	sealed, err := l.sess.AppendSeal(l.outBuf[:0], enc, nil)
	if err != nil {
		return fmt.Errorf("adhoc: sealing frame: %w", err)
	}
	l.outBuf = sealed
	if err := l.conn.Send(sealed); err != nil {
		return fmt.Errorf("adhoc: sending frame: %w", err)
	}
	l.mgr.mu.Lock()
	l.mgr.stats.FramesSent++
	l.mgr.mu.Unlock()
	return nil
}

// Close tears the link down; both sides observe LinkDown.
func (l *Link) Close() error {
	_ = l.SendFrame(&wire.Bye{}) // best effort
	return l.conn.Close()
}
