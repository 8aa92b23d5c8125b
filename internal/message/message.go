// Package message implements the SOS message manager (paper §III-C): the
// layer between the routing manager and the ad hoc manager. It notifies
// the active routing protocol whenever a peer is discovered or lost,
// reacts to connection-state changes — including knowing which messages
// were not transferred when a connection breaks — and translates between
// the routing layer's view (summaries, wants, messages) and the ad hoc
// layer's frames.
//
// Before a link exists there is only the plain-text discovery beacon, a
// wire.Advertisement. It is a hint, bounded at MaxBeaconSummary entries
// whatever the store holds (the whole summary when it fits, else the most
// recently changed authors), and it decides one thing: whether an
// unlinked peer is worth dialling. Linked peers ignore it, and so does a
// session: a hint sent inside one reaches no view. So it is refreshed only
// while it is heard — while the node has no link, or some peer in range
// has none — and catches up as soon as it is heard again.
//
// Exchange protocol on an established link:
//
//  1. Both sides send an authenticated wire.Summary (summary + scheme
//     gossip). In-session summaries supersede the plain-text beacon,
//     which an attacker could forge.
//  2. Each side asks the active scheme which advertised messages to pull
//     and sends a Request. One plan per link is in flight: the authors of
//     deltas that land meanwhile are planned together when the next Batch
//     arrives, before that Batch is verified, so a busy contact moves
//     batches and a serial one keeps its three hops. A Request totals at
//     most wire.MaxBatchMessages sequences, so a longer plan leaves as
//     several Requests.
//  3. Each Request is answered by one Batch, an empty one when nothing is
//     served. A message carries the originator's certificate, so the
//     receiver verifies the certificate chain and the author signature
//     before storing (paper Fig. 3b), unless the link's handshake or its
//     author's run in the Batch carried it already (onRequest).
//     A batch's signatures are checked in parallel, and its messages are
//     stored in batch order, each with its full certificate.
//
// There is no fourth step: storing a message moves the receiver's summary,
// and the delta summary that follows carries the new high-water mark
// back to the sender. What is asked and not yet received is the request
// ledger's (requests.go).
//
// # Delta synchronization
//
// Summary exchange dominates contact airtime once buffers grow (every
// author ever seen is one dictionary entry), so the manager keeps
// per-peer sync state and sends deltas: after the initial full summary on
// a link, every store change is pushed in-session as a delta Summary
// carrying only the authors whose entry moved since the generation last
// sent to that peer (store.Engine.Changes). The state survives LinkDown —
// a reconnect within the same gathering greets with a delta instead of
// re-sending the whole dictionary — and is dropped on PeerGone, so a peer
// that left radio range (and may return restarted, with a reset
// generation) is re-synced from a full summary. A sender whose bounded
// change log no longer covers a peer's base falls back to a full summary
// on its own.
//
// Full summaries larger than SummaryChunkEntries leave as a sequence of
// bounded Summary chunks, all sent inline, back to back. This relies on
// one medium property (mpc.Conn): Send never blocks and keeps a session's
// frames in FIFO order. So the stream costs its callback only the
// encoding, no other frame on the link comes between its chunks, and a
// Batch answering the peer's first Request follows the stream. The
// receiver plans requests after every chunk from that chunk's entries,
// instead of waiting for the whole dictionary, and keeps what a
// continuation chunk raises aside until its view is next read, so the
// chunks ahead of that Batch cost it little more than their plan.
//
// The receiver has one apply rule: a full summary's chunk 0 replaces the
// cached view — the reset a restarted peer needs — and every other
// summary merges raise-only (mergeAd), so duplicated,
// reordered and lost frames never lower an entry or penalise the peer.
// A frame that builds on a generation the view has not reached exposes
// a gap: the view is kept and one SummaryPull per link, re-armed by the
// resync heartbeat, asks for a full summary.
//
// # The resync heartbeat
//
// The manager holds no timer: its driver calls Tick (core once per
// ResyncInterval, a test by hand, a simulator replay never), and Tick
// lists the five duties. A wanted beacon or a retryable link drop arms a
// peer for re-dial; the first tick that finds it linked disarms it.
package message

import (
	"bytes"
	"cmp"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/obs/span"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/secure"
	"sos/internal/store"
	"sos/internal/wire"
)

// Errors reported by the message manager.
var (
	ErrNotBound = errors.New("message: manager not bound to an ad hoc manager")
)

// MaxBeaconSummary bounds the summary dictionary a discovery beacon
// carries. The beacon is a hint that decides whether an unlinked peer is
// worth dialling — the paper's advertisement rides MPC discoveryInfo,
// which holds hundreds of bytes — so a store with more authors than this
// advertises only its most recently changed ones, and peers learn the
// rest through the authenticated in-session exchange after connecting.
// It is the codec's own bound on the hint.
const MaxBeaconSummary = wire.MaxHintEntries

// maxPeerSync bounds the per-peer table. Entries without an active link
// are evicted first; a peer evicted this way is simply re-synced from a
// full summary at the next encounter.
const maxPeerSync = 512

// SummaryChunkEntries is the slice size of a chunked full-summary stream.
// Stores whose dictionary exceeds this many entries send full summaries
// as a sequence of bounded Summary chunks, back to back, instead of one
// monolithic frame: a fresh peer plans and starts pulling after the first
// chunk, not after the whole dictionary. 4096 18-byte entries ≈ 72 KiB
// per frame.
const SummaryChunkEntries = 4096

// Config assembles a message manager.
type Config struct {
	Store    store.Engine
	Routing  *routing.Manager
	Verifier *pki.Verifier
	Clock    clock.Clock

	// OnReceive fires for every newly stored message (never duplicates);
	// the message is the stored one, read-only.
	OnReceive func(m *msg.Message, from id.UserID)
	// OnPeerUp / OnPeerDown observe authenticated encounters.
	OnPeerUp   func(user id.UserID)
	OnPeerDown func(user id.UserID)

	// AutoConnect, when true, connects to any discovered peer whose
	// advertisement offers messages the active scheme wants, and lets
	// Tick re-dial it. New leaves it as given: core sets it, and tests
	// leave it off to script their dials.
	AutoConnect bool

	// Tracer, when set, records the contact-session lifecycle into the
	// node's flight recorder: a "contact" envelope per link, spans for
	// every in-session advertisement (full, delta, and each chunk of a
	// streamed summary) carrying entry/byte counts, and peer-discovery
	// instants. Recording is allocation-free, so the tracer can stay
	// enabled under the contact benchmark gates. Nil disables tracing.
	Tracer *span.Tracer

	// PrekeySource, when set, supplies this node's current prekey bundle
	// (internal/secure); the manager publishes it inside each
	// authenticated session at LinkUp so peers can seal forward-secret
	// envelopes to us later without a live handshake.
	PrekeySource func() (*wire.PrekeyBundle, error)
	// OnPrekeyBundle, when set, receives each peer's prekey bundle after
	// the manager has checked it: the bundle's user must match the
	// link's authenticated identity and its signed-prekey signature must
	// verify against the link's certified key. A bundle failing either
	// check is scored as misbehavior instead.
	OnPrekeyBundle func(peer id.UserID, b *wire.PrekeyBundle)
}

// Stats counts message-manager events.
type Stats struct {
	MessagesReceived  uint64
	MessagesServed    uint64
	Duplicates        uint64
	VerifyFailures    uint64
	BatchesSent       uint64
	BatchesReceived   uint64
	RequestsSent      uint64
	RequestsReceived  uint64
	TransfersAborted  uint64 // refs asked by Requests of ours that died with their link
	RequestsUnserved  uint64 // requests answered with an empty Batch
	ConnectsAttempted uint64

	// Sync-plane counters: full vs delta in-session advertisements sent,
	// SummaryPull frames sent (we hit a generation gap) and served (a
	// peer hit one against us).
	AdsFullSent        uint64
	AdsDeltaSent       uint64
	SummaryPullsSent   uint64
	SummaryPullsServed uint64
	// SummaryChunksSent counts the frames of chunked full-summary
	// streams (a single-frame full advertisement counts zero).
	SummaryChunksSent uint64
	// PlanEntriesScanned counts summary entries planning's floor pass
	// reads: flat per contact as stores scale, as planning is incremental.
	PlanEntriesScanned uint64
	// SummaryBytesSent and PayloadBytesSent split outbound in-session
	// wire bytes into the sync plane (advertisements, summary pulls) and
	// the data plane (requests, batches), so summary overhead is
	// measurable on its own.
	SummaryBytesSent uint64
	PayloadBytesSent uint64

	// Robustness counters: misbehavior signals scored against peers,
	// quarantine episodes entered, connects/links refused while a peer
	// was quarantined, and heartbeat re-dials of armed, unlinked peers.
	MisbehaviorEvents  uint64
	Quarantines        uint64
	QuarantineRefusals uint64
	Reconnects         uint64
	// InflightExpired counts requested messages released for re-planning
	// because their Request or its Batch was lost on a lossy radio: found
	// by the resync heartbeat, or by a Batch answering a later Request.
	InflightExpired uint64

	// Prekey-exchange counters: bundles published at LinkUp, verified
	// peer bundles accepted, and bundles rejected (identity mismatch or
	// bad signature — also scored as misbehavior).
	PrekeyBundlesSent     uint64
	PrekeyBundlesReceived uint64
	PrekeyRejects         uint64
}

// peerSync is everything the manager knows about one peer device in range
// or linked: the active link (nil while disconnected), the outbound sync
// cursor (the generation of our summary the peer has last been sent), and
// the inbound view (the peer's summary as accumulated from full and delta
// summaries, plus the peer generation it reflects). Generation 0 means
// "none" on both cursors, as BaseGen == 0 marks a full on the wire.
type peerSync struct {
	link *adhoc.Link

	sentGen uint64

	recvGen uint64
	summary map[id.UserID]uint64
	// unread holds, per continuation chunk of the peer's full summary,
	// a copy of the entries that raise summary, unreadLen in all. A chunk
	// is planned from its own entries, so the fold waits for the view's
	// next reader (viewLocked), or until wire.MaxSummaryEntries wait.
	unread    [][]wire.Entry
	unreadLen int
	// pullPending holds back further SummaryPulls once a gap has sent one,
	// until a full summary arrives, the next heartbeat tick (the pull or
	// its answer may be lost) or a new link.
	pullPending bool
	// ledger is the request ledger's half on the link.
	ledger linkLedger

	// track is the peer's "contact <peer>" tracer track, interned at
	// LinkUp (0 while tracing is disabled).
	track uint64

	// dial arms the heartbeat to re-dial this peer while it is unlinked
	// (see redialAfter); the first tick that finds the peer linked
	// disarms it. dialing marks a dial still under way, so one that
	// blocks is not started again by the next tick.
	dial, dialing bool
	gone          bool // a linked peer whose beacon left: the slot goes with the link
}

// Manager is the message manager for one node.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	adhocMgr *adhoc.Manager
	// reqMu serializes sendPlans, so each link's Requests join its ledger
	// in wire order.
	reqMu sync.Mutex
	peers map[mpc.PeerID]*peerSync
	// presenceLost marks a slot evicted while its peer may be in range.
	presenceLost bool
	ledger       ledger
	// quar is the per-peer misbehavior scoreboard (see misbehavior.go).
	quar  scoreboard
	stats Stats

	// advMu serializes the advertisement plane — beacon refresh plus the
	// per-link summary pushes — so per-peer delta bases advance in the
	// same order the frames are put on each link.
	advMu sync.Mutex
	// adValid/adGen remember the generation of the last Advertise and
	// adScheme/adData the last scheme gossip, so Advertise is a no-op while
	// neither moved. hintBehind marks a hint refresh skipped because no
	// device in range could act on it. Guarded by advMu.
	adValid    bool
	adGen      uint64
	adScheme   string
	adData     []byte
	hintBehind bool
	// sum is sendSummary's delta frame, its Entries the sort scratch (advMu).
	sum wire.Summary

	// closed makes Tick a no-op (mu).
	closed bool
	// verdicts is verify's result scratch; callbacks are serialized.
	verdicts []*pki.UserCert
	// ahead, one and planView are plan scratch, reused (mu).
	ahead    []wire.Entry
	one      [1]wire.Entry
	planView map[id.UserID]uint64
}

var _ adhoc.Handler = (*Manager)(nil)

// New builds a message manager. It is passed to adhoc.New as the
// Handler, which binds it to the ad hoc manager before any traffic flows.
func New(cfg Config) (*Manager, error) {
	if cfg.Store == nil || cfg.Routing == nil || cfg.Verifier == nil {
		return nil, errors.New("message: config requires Store, Routing, and Verifier")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	return &Manager{
		cfg:      cfg,
		peers:    make(map[mpc.PeerID]*peerSync),
		ledger:   make(ledger),
		planView: make(map[id.UserID]uint64),
	}, nil
}

// Bind implements adhoc.Handler: it attaches the ad hoc manager, which
// needs this Manager as its Handler before this Manager can connect and
// advertise through it (two-phase construction).
func (m *Manager) Bind(a *adhoc.Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adhocMgr = a
}

// Close ends every retry: a later Tick, one racing Close included, does
// nothing.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
}

// Tick is one beat of the resync heartbeat. A lossy radio can swallow any
// single frame of a contact — a handshake frame, an advertisement, a
// Request, a Batch — and, with links surviving loss, nothing else would
// ever retry: discovery beacons are unchanged, so no event re-fires.
// Each tick has five duties, in order: expire the Requests already out at
// the previous tick, re-arm SummaryPulls, re-plan and re-advertise on
// every live link, fail handshakes wedged since the previous tick (so a
// lost Hello, HelloAck or HelloFin heals within two ticks), and re-dial
// armed, unlinked, unquarantined peers in peer-id order. A dial may
// block, so a driver runs each Tick on a goroutine of its own. Before
// Bind and after Close, Tick does nothing.
func (m *Manager) Tick() {
	m.mu.Lock()
	if m.closed || m.adhocMgr == nil {
		m.mu.Unlock()
		return
	}
	now := m.cfg.Clock.Now()
	var dials []mpc.PeerID
	for peer, ps := range m.peers {
		m.stats.InflightExpired += m.ledger.expire(peer, &ps.ledger)
		ps.pullPending = false
		switch {
		case ps.link != nil || m.quar.quarantined(peer, now):
			ps.dial = false
		case ps.dial && m.cfg.AutoConnect:
			dials = append(dials, peer)
		}
	}
	slices.Sort(dials)
	sends := m.planLocked(m.linkedViewsLocked())
	a := m.adhocMgr
	m.mu.Unlock()

	data := m.cfg.Routing.Current().SchemeData()
	m.advMu.Lock()
	m.pushSummaries(m.cfg.Store.Generation(), data, true)
	m.advMu.Unlock()
	m.sendPlans(sends)
	a.ExpireHandshakes()
	for _, peer := range dials {
		m.connect(peer, true)
	}
}

// connect dials an armed peer unless it is linked or a dial to it is
// still under way: a socket medium can block one for its whole dial
// timeout, and a dial must not start twice. retry marks a heartbeat
// re-dial.
func (m *Manager) connect(peer mpc.PeerID, retry bool) {
	m.mu.Lock()
	ps := m.peers[peer]
	a := m.adhocMgr
	if ps == nil || !ps.dial || ps.dialing || ps.link != nil || a == nil {
		m.mu.Unlock()
		return
	}
	ps.dialing = true
	m.stats.ConnectsAttempted++
	if retry {
		m.stats.Reconnects++
	}
	m.mu.Unlock()
	err := a.Connect(peer)
	m.mu.Lock()
	ps.dialing = false
	if err != nil {
		ps.dial = redialAfter(err, ps.dial)
	}
	m.mu.Unlock()
}

// redialAfter is the dial flag after a link or a dial ended with reason.
// A deliberate end — the manager closing, the peer out of range — disarms
// it; the peer hanging up or abusing the session leaves it as it was, so a
// link the far end kills at once is still retried when the beacon armed it
// (quarantine, checked at every tick, is what stops an abuser); anything
// else (a radio fault, a handshake in flight) arms it.
func redialAfter(reason error, dial bool) bool {
	switch {
	case errors.Is(reason, adhoc.ErrClosed), errors.Is(reason, mpc.ErrPeerGone),
		errors.Is(reason, mpc.ErrPeerUnknown):
		return false
	case errors.Is(reason, mpc.ErrClosed), errors.Is(reason, adhoc.ErrPeerMisbehaved):
		return dial
	}
	return true
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ActiveLinks returns the users currently linked.
func (m *Manager) ActiveLinks() []id.UserID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]id.UserID, 0, len(m.peers))
	for _, ps := range m.peers {
		if ps.link != nil {
			out = append(out, ps.link.User())
		}
	}
	return out
}

// SyncState reports the size of the contact-sync plane: how many peers
// hold a slot (every peer in range or linked), how many of those are
// currently linked, and the total number of inbound summary entries held
// across all peers — the memory the delta-sync protocol trades for
// avoiding full summary exchanges.
func (m *Manager) SyncState() (peers, links, summaryEntries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	peers = len(m.peers)
	for _, ps := range m.peers {
		if ps.link != nil {
			links++
		}
		summaryEntries += len(ps.viewLocked())
	}
	return peers, links, summaryEntries
}

// Advertise republishes the discovery hint when the summary generation
// moved and a device in range can act on it (refreshHint), and pushes
// per-peer delta summaries on every active link — on all of them when the
// scheme gossip changed, which only sessions carry. Core calls it at
// startup and after every change to the store. Expired relay cargo is
// swept first (the store's TTL policy), and nothing is sent while the
// generation and the scheme gossip are unchanged.
func (m *Manager) Advertise() error {
	m.mu.Lock()
	a := m.adhocMgr
	m.mu.Unlock()
	if a == nil {
		return ErrNotBound
	}
	m.cfg.Store.SweepExpired()
	scheme := m.cfg.Routing.Current()
	name := scheme.Name()
	data := scheme.SchemeData()

	m.advMu.Lock()
	defer m.advMu.Unlock()
	gen := m.cfg.Store.Generation()
	schemeChanged := !m.adValid || m.adScheme != name || !bytes.Equal(m.adData, data)
	if m.adValid && m.adGen == gen && !schemeChanged {
		return nil
	}
	m.hintBehind = m.hintBehind || !m.adValid || m.adGen != gen
	if err := m.refreshHint(gen); err != nil {
		return err
	}
	m.adValid, m.adGen, m.adScheme = true, gen, name
	m.adData = append(m.adData[:0], data...)
	m.pushSummaries(gen, data, schemeChanged)
	return nil
}

// refreshHint publishes the discovery hint at gen if it is behind and
// heard: while the node has no link, or some peer in range (a quarantined
// one included) has none. Otherwise nothing is built and the published
// hint stays behind. The test reads the peer table, which holds a slot
// for every peer in range or linked, and fails open: once a slot was
// evicted while its peer may be in range, the hint counts as heard until
// the table empties. Callers hold advMu.
func (m *Manager) refreshHint(gen uint64) error {
	if !m.hintBehind {
		return nil
	}
	m.mu.Lock()
	a, heard := m.adhocMgr, m.presenceLost || len(m.peers) == 0
	for _, ps := range m.peers {
		heard = heard || ps.link == nil
	}
	m.mu.Unlock()
	if a == nil || !heard {
		return nil
	}
	hint := &wire.Advertisement{Peer: string(a.Self()), Gen: gen, Summary: m.beaconSummary()}
	if err := a.Advertise(hint); err != nil {
		return err
	}
	m.hintBehind = false
	return nil
}

// catchUpHint publishes the current hint if a refresh was skipped and it
// is heard now: a peer came or went, or a link dropped.
func (m *Manager) catchUpHint() {
	m.advMu.Lock()
	defer m.advMu.Unlock()
	_ = m.refreshHint(m.cfg.Store.Generation()) // fails only once closed
}

// beaconSummary builds the dictionary the beacon carries: the full
// summary when it fits, otherwise only the authors changed in the last
// MaxBeaconSummary generations (nothing when the change log cannot say).
// A refresh therefore costs the same whatever the store holds. The hint
// only decides whether an unlinked peer dials; the in-session summary
// after connecting is authoritative.
func (m *Manager) beaconSummary() map[id.UserID]uint64 {
	if m.cfg.Store.SummarySize() <= MaxBeaconSummary {
		return m.cfg.Store.Summary()
	}
	// Every author's first entry was a generation, so the subtraction
	// cannot wrap here.
	hint, _ := m.cfg.Store.Changes(m.cfg.Store.Generation() - MaxBeaconSummary)
	for author := range hint {
		// A Put racing between the two reads adds an entry.
		if len(hint) <= MaxBeaconSummary {
			break
		}
		delete(hint, author)
	}
	return hint
}

// pushSummaries sends one in-session summary per active link that is
// behind gen (every active link when force is set: a scheme-gossip
// change or the resync heartbeat), grouped by delta base so every
// distinct frame is encoded exactly once. Callers hold advMu.
func (m *Manager) pushSummaries(gen uint64, data []byte, force bool) {
	var buf [8]summaryDue
	m.mu.Lock()
	dues := m.summaryDuesLocked(buf[:0], gen, force)
	m.mu.Unlock()
	var group [8]*adhoc.Link
	for i := 0; i < len(dues); {
		links, base := group[:0], dues[i].base
		for ; i < len(dues) && dues[i].base == base; i++ {
			links = append(links, dues[i].link)
		}
		m.sendSummary(links, base, gen, data)
	}
}

// summaryDue is one link a summary push goes to, and the delta base
// (0 = none) its peer was last sent.
type summaryDue struct {
	base uint64
	link *adhoc.Link
}

// summaryDuesLocked appends to dues every active link behind gen (every
// active link when force is set) and advances its cursor to gen. The
// order is deterministic: ascending base, so links sharing one are
// adjacent, then peer id. Callers hold m.mu.
func (m *Manager) summaryDuesLocked(dues []summaryDue, gen uint64, force bool) []summaryDue {
	for _, ps := range m.peers {
		if ps.link == nil || (ps.sentGen == gen && !force) {
			continue // no link, or the peer is current
		}
		dues = append(dues, summaryDue{ps.sentGen, ps.link})
		ps.sentGen = gen
	}
	slices.SortFunc(dues, func(a, b summaryDue) int {
		return cmp.Or(cmp.Compare(a.base, b.base), cmp.Compare(a.link.Peer(), b.link.Peer()))
	})
	return dues
}

// sendAdTo sends one in-session summary on a single link — the LinkUp
// greeting or the answer to a SummaryPull: a delta from the peer's
// last-synced generation when allowed and possible, else the full summary.
func (m *Manager) sendAdTo(link *adhoc.Link, forceFull bool) {
	data := m.cfg.Routing.Current().SchemeData()

	m.advMu.Lock()
	defer m.advMu.Unlock()
	gen := m.cfg.Store.Generation()

	m.mu.Lock()
	ps := m.peers[link.Peer()]
	if ps == nil || ps.link != link {
		m.mu.Unlock()
		return // link raced away
	}
	base := ps.sentGen
	if forceFull {
		base = 0
	}
	ps.sentGen = gen
	m.mu.Unlock()
	m.sendSummary([]*adhoc.Link{link}, base, gen, data)
}

// sendSummary is the one send path of the summary plane: it puts our
// summary at gen on links that all hold the same delta base (0 = none):
// the delta since base when the change log reaches it, encoded once for
// all (each link seals it), else a full summary per link. Callers hold
// advMu, so bases advance in frame order and m.sum is theirs.
//
// gen was read before Store.Changes(base) runs, so a racing Put can land
// in a delta labelled with the generation before it. That is safe: the
// receiver merges raise-only, and the next delta, based at gen, re-tells
// the same entry as a harmless overlap.
func (m *Manager) sendSummary(links []*adhoc.Link, base, gen uint64, data []byte) {
	delta, ok := map[id.UserID]uint64(nil), false
	if base != 0 && base <= gen { // a base past gen is from a store this engine no longer is
		delta, ok = m.cfg.Store.Changes(base)
	}
	if !ok {
		for _, link := range links {
			m.streamFullTo(link, gen, data)
		}
		return
	}
	entries := wire.AppendEntries(m.sum.Entries[:0], delta)
	wire.SortEntries(entries)
	m.sum = wire.Summary{Gen: gen, BaseGen: base, Entries: entries, SchemeData: data}
	buf := wire.GetBuffer()
	defer buf.Free()
	enc, err := wire.AppendEncode(buf.B[:0], &m.sum)
	if err != nil {
		return // oversized scheme data; nothing sane to send
	}
	buf.B = enc
	sent := uint64(0)
	for _, link := range links {
		sp := m.cfg.Tracer.Start(m.trackOf(link), "advertise.delta")
		sp.Attr("entries", uint64(len(entries)))
		sp.Attr("bytes", uint64(len(enc)))
		sp.Attr("gen", gen)
		if link.SendEncoded(enc) == nil { // link failures surface via LinkDown
			sent++
		}
		sp.End()
	}
	m.mu.Lock()
	m.stats.AdsDeltaSent += sent
	m.stats.SummaryBytesSent += uint64(len(enc)) * sent
	m.mu.Unlock()
}

// sendCounted sends one frame on the link and counts it: Requests and
// Batches bill their wire bytes to the payload plane, every other frame to
// the summary plane. Link failures surface via LinkDown.
func (m *Manager) sendCounted(link *adhoc.Link, f wire.Frame) error {
	n, err := link.Send(f)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	plane := &m.stats.SummaryBytesSent
	switch fr := f.(type) {
	case *wire.Request:
		m.stats.RequestsSent++
		plane = &m.stats.PayloadBytesSent
	case *wire.Batch:
		m.stats.MessagesServed += uint64(len(fr.Msgs))
		if len(fr.Msgs) == 0 {
			m.stats.RequestsUnserved++
		} else {
			m.stats.BatchesSent++
		}
		plane = &m.stats.PayloadBytesSent
	case *wire.Summary: // a full summary's chunk; deltas leave through sendSummary
		if fr.Chunk == 0 {
			m.stats.AdsFullSent++
		}
		if fr.Chunk > 0 || fr.More {
			m.stats.SummaryChunksSent++
		}
	case *wire.PrekeyBundle:
		m.stats.PrekeyBundlesSent++
	}
	*plane += uint64(n)
	return nil
}

// PeerDiscovered implements adhoc.Handler. Every discovered peer gets a
// slot. A beacon from an unlinked peer first brings our own hint up to
// date, as that peer hears it, then triggers a connection when the scheme
// wants something it offers. For linked peers the beacon is ignored: the
// authenticated in-session delta plane already pushes every summary
// change. The hint goes through the floor pass as a plan does, and the
// scheme only answers yes or no, so each entry is clamped to MaxSeq+1:
// MaxSeq never lowers and counts evicted refs, so Missing is non-empty
// exactly when it was unclamped, and a forged entry costs one sequence.
func (m *Manager) PeerDiscovered(peer mpc.PeerID, ad *wire.Advertisement) {
	m.mu.Lock()
	ps := m.slotLocked(peer)
	ps.gone = false
	linked := ps.link != nil
	quarantined := m.quar.quarantined(peer, m.cfg.Clock.Now())
	if quarantined {
		m.stats.QuarantineRefusals++
	}
	a := m.adhocMgr
	m.mu.Unlock()
	if linked {
		return
	}
	m.catchUpHint()
	if quarantined {
		return
	}
	m.mu.Lock()
	m.ahead = wire.AppendEntries(m.ahead[:0], ad.Summary)
	for _, e := range m.cfg.Store.Ahead(m.ahead[:0], m.ahead) {
		m.planView[e.Author] = min(e.Seq, m.cfg.Store.MaxSeq(e.Author)+1)
	}
	wanted := len(m.cfg.Routing.Current().Wants(m.planView)) > 0
	clear(m.planView)
	m.mu.Unlock()
	if !wanted || !m.cfg.AutoConnect || a == nil {
		return
	}
	m.mu.Lock()
	// On a lossy radio any handshake frame can vanish and the attempt
	// time out without a LinkDown: the heartbeat re-dials until one of
	// its ticks finds the link up.
	m.slotLocked(peer).dial = true
	m.mu.Unlock()
	m.cfg.Tracer.Event(m.contactTrack(peer), "peer.discovered")
	m.connect(peer, false)
}

// PeerGone implements adhoc.Handler: the peer left radio range or
// withdrew its beacon. Its per-peer sync state is cleared so a returning
// peer — possibly restarted, with a reset store generation — is re-synced
// from a full summary instead of a stale delta base.
func (m *Manager) PeerGone(peer mpc.PeerID) {
	m.mu.Lock()
	if ps := m.peers[peer]; ps != nil && ps.link == nil {
		delete(m.peers, peer)
		m.presenceLost = m.presenceLost && len(m.peers) > 0
	} else if ps != nil { // the session outlives the beacon: the next push is a full summary
		ps.sentGen, ps.recvGen, ps.summary, ps.unread, ps.unreadLen, ps.gone = 0, 0, nil, nil, 0, true
	}
	m.mu.Unlock()
	m.catchUpHint()
}

// contactTrack interns the "contact <peer>" tracer track — the same
// label the adhoc layer uses for its handshake span, so the whole
// contact session renders as one timeline.
func (m *Manager) contactTrack(peer mpc.PeerID) uint64 {
	if m.cfg.Tracer == nil {
		return 0 // skip the label concatenation, not just the record
	}
	return m.cfg.Tracer.Track("contact " + string(peer))
}

// trackOf returns the interned contact track of a link's peer (0 when
// the peer raced away or tracing is off).
func (m *Manager) trackOf(link *adhoc.Link) uint64 {
	if m.cfg.Tracer == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps := m.peers[link.Peer()]; ps != nil {
		return ps.track
	}
	return 0
}

// LinkUp implements adhoc.Handler: greet the authenticated peer with our
// summary and scheme gossip — a delta against the last generation synced
// to this peer when that state survived (churn reconnect), else the full
// summary.
func (m *Manager) LinkUp(link *adhoc.Link) {
	track := m.contactTrack(link.Peer())
	m.mu.Lock()
	if m.quar.quarantined(link.Peer(), m.cfg.Clock.Now()) {
		// The peer dialed us (or a connect raced the quarantine): refuse
		// the session before the scheme or consumer ever sees it.
		// It never becomes ps.link, so its LinkDown unwinds nothing.
		m.stats.QuarantineRefusals++
		m.mu.Unlock()
		_ = link.Close()
		return
	}
	ps := m.slotLocked(link.Peer())
	// adhoc takes a link out before its LinkDown, so the next one can come
	// up first; that LinkDown then finds nothing, and this one unwinds it.
	sends := m.abortLocked(link.Peer(), ps)
	ps.link, ps.track, ps.pullPending = link, track, false
	m.mu.Unlock()
	// The contact envelope: every sync span until LinkDown nests inside.
	m.cfg.Tracer.Begin(track, "contact")

	scheme := m.cfg.Routing.Current()
	scheme.OnPeerConnected(link.User())
	if m.cfg.OnPeerUp != nil {
		m.cfg.OnPeerUp(link.User())
	}

	m.sendAdTo(link, false)
	m.sendPrekeyTo(link)
	m.sendPlans(sends)
}

// sendPrekeyTo publishes the node's current prekey bundle on one link.
func (m *Manager) sendPrekeyTo(link *adhoc.Link) {
	if m.cfg.PrekeySource == nil {
		return
	}
	bundle, err := m.cfg.PrekeySource()
	if err != nil || bundle == nil {
		return // a node that cannot mint prekeys still syncs messages
	}
	_ = m.sendCounted(link, bundle)
}

// onPrekeyBundle vets a peer's published bundle against the link's
// authenticated identity before handing it to the consumer: the bundle
// must be the peer's own, and its signed prekey must carry a valid
// signature from the certified key the handshake verified. Anything else
// is authenticated garbage and scores like it.
func (m *Manager) onPrekeyBundle(link *adhoc.Link, b *wire.PrekeyBundle) {
	if b.User != link.User() || !secure.VerifyBundle(link.Cert().Key, b) {
		m.mu.Lock()
		m.stats.PrekeyRejects++
		m.penalizeLocked(link.Peer(), pointsGarbage, m.cfg.Clock.Now())
		m.mu.Unlock()
		return
	}
	m.mu.Lock()
	m.stats.PrekeyBundlesReceived++
	m.mu.Unlock()
	if m.cfg.OnPrekeyBundle != nil {
		m.cfg.OnPrekeyBundle(link.User(), b)
	}
}

// summaryChunker cuts the store's summary into sorted chunks of at most
// SummaryChunkEntries through one carry buffer: whole when it fits one,
// else drained stripe by stripe, the carry topped up to a chunk, sorted
// and cut. The carry stays within a chunk plus a stripe, and the stream
// is a function of the store.
type summaryChunker struct {
	store  store.Engine
	stripe int
	buf    []wire.Entry
	sent   int // the head of buf the last chunk returned
}

func newSummaryChunker(st store.Engine) *summaryChunker {
	size := st.SummarySize() // the carry: a chunk plus two average stripes, allocated once
	c := &summaryChunker{store: st, buf: make([]wire.Entry, 0, min(size, SummaryChunkEntries+2*(size/st.SummaryStripes()+1)))}
	if size <= SummaryChunkEntries {
		// Summary, unlike a stripe snapshot, arms no copy-on-write.
		c.buf, c.stripe = wire.AppendEntries(c.buf, st.Summary()), st.SummaryStripes()
	}
	return c
}

// next returns the next chunk, in ascending author order, and whether
// more follow. The chunk aliases the carry, so callers encode it before
// the next call.
func (c *summaryChunker) next() ([]wire.Entry, bool) {
	c.buf = c.buf[:copy(c.buf, c.buf[c.sent:])]
	for len(c.buf) < SummaryChunkEntries && c.stripe < c.store.SummaryStripes() {
		c.buf = wire.AppendEntries(c.buf, c.store.SummaryStripe(c.stripe))
		c.stripe++
	}
	wire.SortEntries(c.buf)
	c.sent = min(len(c.buf), SummaryChunkEntries)
	return c.buf[:c.sent], len(c.buf) > c.sent || c.stripe < c.store.SummaryStripes()
}

// streamFullTo sends a full summary to one link: one frame when it fits,
// else SummaryChunkEntries-entry chunks, every one inline. Callers hold
// advMu, so no delta for this link can come between the chunks or ahead
// of them. The medium's Send never blocks and keeps a session's frames
// in order (mpc.Conn), so the stream costs this callback only the
// encoding, and a Batch answering the peer's early Request leaves after
// it, as it would on any radio. The receiver plans after every chunk.
func (m *Manager) streamFullTo(link *adhoc.Link, gen uint64, data []byte) {
	track := m.trackOf(link)
	ch := newSummaryChunker(m.cfg.Store)
	name := "advertise.full"
	for chunk, more := uint32(0), true; more; chunk++ {
		var entries []wire.Entry
		entries, more = ch.next()
		sp := m.cfg.Tracer.Start(track, name)
		sp.Attr("chunk", uint64(chunk))
		sp.Attr("entries", uint64(len(entries)))
		err := m.sendCounted(link, &wire.Summary{Gen: gen, Chunk: chunk, More: more, Entries: entries, SchemeData: data})
		sp.End()
		if err != nil {
			return
		}
		name, data = "sync.chunk", nil // the scheme gossip rides chunk 0
	}
}

// viewLocked folds the peer's unread chunks into its view and returns
// the view. Callers hold m.mu.
func (ps *peerSync) viewLocked() map[id.UserID]uint64 {
	for _, entries := range ps.unread {
		foldEntries(ps.summary, entries)
	}
	ps.unread, ps.unreadLen = nil, 0
	return ps.summary
}

// abortLocked unlinks the peer's slot and ends its link's ledger, whose
// aborted transfers are planned again on the links that remain, so they
// resume within the same gathering. Callers hold m.mu.
func (m *Manager) abortLocked(peer mpc.PeerID, ps *peerSync) []outgoingPlan {
	aborted := m.ledger.end(peer, &ps.ledger)
	m.stats.TransfersAborted += aborted
	ps.link = nil
	if aborted == 0 {
		return nil
	}
	return m.planLocked(m.linkedViewsLocked())
}

// slotLocked returns the peer's slot, creating it inside the bound: a
// full table first drops entries without an active link, losing the
// presence they recorded. Callers hold m.mu.
func (m *Manager) slotLocked(peer mpc.PeerID) *peerSync {
	if ps := m.peers[peer]; ps != nil {
		return ps
	}
	for p, ps := range m.peers {
		if len(m.peers) < maxPeerSync {
			break
		}
		if ps.link == nil {
			delete(m.peers, p)
			m.presenceLost = true
		}
	}
	ps := &peerSync{}
	m.peers[peer] = ps
	return ps
}

// FrameIn implements adhoc.Handler: the in-session protocol. A discovery
// hint has no place in a session and falls through unread.
func (m *Manager) FrameIn(link *adhoc.Link, f wire.Frame) {
	switch fr := f.(type) {
	case *wire.Summary:
		m.onSummary(link, fr)
	case *wire.SummaryPull:
		m.onSummaryPull(link)
	case *wire.Request:
		m.onRequest(link, fr)
	case *wire.Batch:
		m.onBatch(link, fr)
	case *wire.PrekeyBundle:
		m.onPrekeyBundle(link, fr)
	}
}

// LinkDown implements adhoc.Handler: tell the scheme, count unfinished
// transfers, and drop per-link state. The store still holds everything,
// so an aborted transfer is simply retried at the next encounter — this
// is the "message manager knows what messages were not transferred"
// behaviour from paper §III-C. The sync cursors survive: if the peer
// relinks before PeerGone fires, the greeting is a delta, not a full
// re-summary. A peer whose beacon already left takes its slot along, and
// the hint, heard again, catches up.
func (m *Manager) LinkDown(link *adhoc.Link, reason error) {
	m.mu.Lock()
	ps := m.peers[link.Peer()]
	if ps == nil || ps.link != link {
		// Refused at LinkUp: the scheme and consumer never saw this
		// session, so there is nothing to notify or unwind.
		m.mu.Unlock()
		return
	}
	if errors.Is(reason, adhoc.ErrPeerMisbehaved) {
		// Authenticated garbage ended this session: the strongest
		// misbehavior signal there is.
		m.penalizeLocked(link.Peer(), pointsGarbage, m.cfg.Clock.Now())
	}
	sends := m.abortLocked(link.Peer(), ps)
	ps.dial = redialAfter(reason, ps.dial)
	if ps.gone {
		delete(m.peers, link.Peer())
	}
	m.cfg.Tracer.EndSlice(ps.track, "contact")
	m.mu.Unlock()

	if m.cfg.OnPeerDown != nil {
		m.cfg.OnPeerDown(link.User())
	}
	m.sendPlans(sends)
	m.catchUpHint() // the peer, if still in range, hears the hint now
}

// penalizeLocked scores misbehavior points against a peer and reports
// whether the peer just tripped into quarantine. Callers hold m.mu; on
// a trip they should drop the peer's link after unlocking.
func (m *Manager) penalizeLocked(peer mpc.PeerID, pts float64, now time.Time) bool {
	m.stats.MisbehaviorEvents++
	tripped, _ := m.quar.observe(peer, pts, now)
	if tripped {
		m.stats.Quarantines++
	}
	return tripped
}

// onSummary handles the peer's authenticated in-session summary: a full
// summary's chunk 0 starts the cached view, the peer's one map, over, and
// every frame merges into it (mergeAd), a continuation chunk once the
// view is next read (viewLocked). Planning covers only the entries the
// frame carried, so a delta costs O(changed authors), not O(summary),
// and a chunk ahead of the peer's first Batch costs a lookup per entry,
// not a map that grows.
func (m *Manager) onSummary(link *adhoc.Link, sum *wire.Summary) {
	scheme := m.cfg.Routing.Current()
	if len(sum.SchemeData) > 0 {
		scheme.OnPeerData(link.User(), sum.SchemeData)
	}
	m.mu.Lock()
	ps := m.peers[link.Peer()]
	if ps == nil || ps.link != link {
		m.mu.Unlock()
		return
	}
	if !sum.IsDelta() && sum.Chunk == 0 {
		// Full summary, or the first chunk of one: the only summary
		// frame that costs O(dictionary), so the only one charged to the
		// flood bucket (floodLocked).
		if !m.floodLocked(link) {
			return
		}
		ps.summary, ps.unread, ps.unreadLen, ps.recvGen, ps.pullPending = nil, nil, 0, sum.Gen, false
	}
	if ps.summary == nil {
		ps.summary = make(map[id.UserID]uint64, len(sum.Entries))
	}
	var gap bool
	if n := ps.unreadLen + len(sum.Entries); sum.Chunk > 0 && n <= wire.MaxSummaryEntries {
		if raises := raisesOf(ps.summary, sum.Entries); raises != nil {
			ps.unread, ps.unreadLen = append(ps.unread, raises), ps.unreadLen+len(raises)
		}
		ps.recvGen, gap = mergeGen(ps.recvGen, sum)
	} else {
		ps.recvGen, gap = mergeAd(ps.viewLocked(), ps.recvGen, sum)
	}
	pull := gap && !ps.pullPending
	if pull {
		ps.pullPending = true
		m.stats.SummaryPullsSent++
	}
	var sends []outgoingPlan
	if !sum.IsDelta() || !ps.ledger.hold(sum.Entries) { // a held delta is planned when the peer's Batch lands
		sends = m.planLocked([]peerView{{ps: ps, entries: sum.Entries}})
	}
	m.mu.Unlock()
	if pull {
		_ = m.sendCounted(link, &wire.SummaryPull{})
	}
	m.sendPlans(sends)
}

// onSummaryPull re-sends a full summary to a peer that found a gap in
// what it has heard from us. A pull of a few bytes costs us a stream of
// the whole dictionary, so serving one spends the peer's flood token, as
// receiving its full summary does.
func (m *Manager) onSummaryPull(link *adhoc.Link) {
	m.mu.Lock()
	if !m.floodLocked(link) {
		return
	}
	m.stats.SummaryPullsServed++
	m.mu.Unlock()
	m.sendAdTo(link, true)
}

// floodLocked charges one O(dictionary) frame, a full summary received
// or a pull served, to the peer's token bucket. A dry bucket scores the
// peer, unlocks m.mu and reports false: the caller drops the frame, and a
// tripped quarantine drops the link. Callers hold m.mu.
func (m *Manager) floodLocked(link *adhoc.Link) bool {
	now := m.cfg.Clock.Now()
	if m.quar.allowAd(link.Peer(), now) {
		return true
	}
	tripped := m.penalizeLocked(link.Peer(), pointsFlood, now)
	m.mu.Unlock()
	if tripped {
		_ = link.Close()
	}
	return false
}

// outgoingPlan is one planned Request and its link.
type outgoingPlan struct {
	link  *adhoc.Link
	wants []wire.Want
}

// peerView is one linked peer and what to plan against it: summary
// entries, or, for a re-plan, its complete cached view.
type peerView struct {
	ps      *peerSync
	entries []wire.Entry
	view    map[id.UserID]uint64
}

// linkedViewsLocked returns every linked peer's complete cached view in
// peer-id order, for a re-plan across all links (heartbeat, LinkDown).
// Callers hold m.mu.
func (m *Manager) linkedViewsLocked() []peerView {
	views := make([]peerView, 0, len(m.peers))
	for _, ps := range m.peers {
		if view := ps.viewLocked(); ps.link != nil && len(view) > 0 {
			views = append(views, peerView{ps: ps, view: view})
		}
	}
	slices.SortFunc(views, func(a, b peerView) int { return cmp.Compare(a.ps.link.Peer(), b.ps.link.Peer()) })
	return views
}

// planLocked builds request plans: for every message the active scheme
// wants from a viewed summary, pick one link to pull it from — preferring
// the verified author (the freshest source) when the author is linked —
// and never request a message already in flight on another link. This
// keeps gatherings of many mutually-connected peers from transferring the
// same message k times, or of a peer that declined it. The scheme sees
// only the entries that pass the store's floor (Store.Ahead). Views are
// planned, and plans leave, in peer-id order (wants in author byte
// order). Nothing is allocated until a want survives the in-flight
// filter. Callers hold m.mu.
func (m *Manager) planLocked(views []peerView) []outgoingPlan {
	scheme := m.cfg.Routing.Current()
	var byUser map[id.UserID]*peerSync
	var runs []planRun
	for _, v := range views {
		if len(v.entries)+len(v.view) == 0 {
			continue
		}
		m.stats.PlanEntriesScanned += uint64(len(v.entries) + len(v.view))
		m.ahead = m.cfg.Store.Ahead(m.ahead[:0], v.entries)
		for author, seq := range v.view { // one entry at a time: a re-plan copies no view
			m.one[0] = wire.Entry{Author: author, Seq: seq}
			m.ahead = m.cfg.Store.Ahead(m.ahead, m.one[:])
		}
		for _, e := range m.ahead {
			m.planView[e.Author] = e.Seq
		}
		wants := scheme.Wants(m.planView)
		clear(m.planView)
		for _, want := range wants {
			// Kept sequences are compacted in place; a run is a slice of them.
			kept, run, start := want.Seqs[:0], -1, 0
			for _, seq := range want.Seqs {
				ref := msg.Ref{Author: want.Author, Seq: seq}
				if m.ledger.inFlight(ref) {
					continue
				}
				// Source preference: pull an author's own messages from
				// the author when they are linked, hold them and have not
				// declined them. With one slot, the only linked peer is
				// the viewed one.
				if byUser == nil && len(m.peers) > 1 {
					byUser = make(map[id.UserID]*peerSync, len(m.peers))
					for _, ps := range m.peers {
						if ps.link != nil {
							byUser[ps.link.User()] = ps
						}
					}
				}
				target := v.ps
				if src, linked := byUser[want.Author]; linked && src.viewLocked()[want.Author] >= seq && seq > src.ledger.declinedTo(want.Author) {
					target = src
				}
				if seq <= target.ledger.declinedTo(want.Author) {
					continue
				}
				if run < 0 || runs[run].target != target {
					run, start = len(runs), len(kept)
					runs = append(runs, planRun{target: target})
				}
				kept = append(kept, seq)
				runs[run].want = wire.Want{Author: want.Author, Seqs: kept[start:len(kept):len(kept)]}
				m.ledger.plan(ref, target.link.Peer())
			}
		}
	}
	if len(runs) == 0 {
		return nil
	}
	// Snapshot the plans for sending outside the lock: group by peer, then
	// by author, joining an author's runs in planning order, and cut each
	// peer's wants into Requests.
	slices.SortStableFunc(runs, func(a, b planRun) int {
		return cmp.Or(cmp.Compare(a.target.link.Peer(), b.target.link.Peer()), bytes.Compare(a.want.Author[:], b.want.Author[:]))
	})
	wants := make([]wire.Want, 0, len(runs))
	var sends []outgoingPlan
	for i := 0; i < len(runs); {
		target, first := runs[i].target, len(wants)
		for ; i < len(runs) && runs[i].target == target; i++ {
			if last := len(wants) - 1; last >= first && wants[last].Author == runs[i].want.Author {
				wants[last].Seqs = append(wants[last].Seqs, runs[i].want.Seqs...)
			} else {
				wants = append(wants, runs[i].want)
			}
		}
		for rest := wants[first:len(wants):len(wants)]; len(rest) > 0; {
			var req []wire.Want
			req, rest = cutRequest(rest)
			sends = append(sends, outgoingPlan{link: target.link, wants: req})
		}
	}
	return sends
}

// planRun is sequences of one author a plan asks of target.
type planRun struct {
	target *peerSync
	want   wire.Want
}

// onRequest answers the peer's pull request with exactly one Batch: each
// held message asked for goes in if the scheme's Serve accepts it, and a
// request that serves nothing gets an empty Batch. Expired cargo is swept
// first, so a TTL-bounded forwarder never serves a foreign message past
// its lifetime — the serve-time guarantee the old relay-TTL filter gave,
// now enforced by actual eviction. A copy goes without a certificate the
// receiver has: our handshake's, or, as a Want names one author, that of
// the same author's message before it but for ours (onBatch).
func (m *Manager) onRequest(link *adhoc.Link, req *wire.Request) {
	m.mu.Lock()
	m.stats.RequestsReceived++
	m.mu.Unlock()

	total := 0
	for _, w := range req.Wants {
		total += len(w.Seqs)
	}
	if total > wire.MaxBatchMessages {
		// No honest requester puts this many sequences in one frame
		// (cutRequest cuts under the same limit), and one Batch
		// could not answer it; score it and refuse to serve (serving would
		// burn store reads and airtime on the attacker's behalf).
		m.mu.Lock()
		tripped := m.penalizeLocked(link.Peer(), pointsOversized, m.cfg.Clock.Now())
		m.mu.Unlock()
		if tripped {
			_ = link.Close()
		}
		return
	}

	m.cfg.Store.SweepExpired()
	var outgoing []*msg.Message
	for _, w := range req.Wants {
		outgoing = append(outgoing, m.cfg.Store.Select(w.Author, w.Seqs)...)
	}
	// Stored messages are read-only: the scheme decides each one on a
	// struct copy and stamps this transfer's routing metadata there.
	scheme := m.cfg.Routing.Current()
	copies := make([]msg.Message, len(outgoing))
	var prev *msg.Message // the last message served, as held
	n := 0
	for _, mm := range outgoing {
		copies[n] = *mm
		if scheme.Serve(link.User(), &copies[n]) {
			if bytes.Equal(mm.CertDER, link.OwnCertDER()) || prev != nil && prev.Author == mm.Author &&
				bytes.Equal(prev.CertDER, mm.CertDER) && mm.Author != m.cfg.Store.Owner() {
				copies[n].CertDER = nil // the receiver has it (onBatch, verify)
			}
			prev = mm
			outgoing[n] = &copies[n]
			n++
		}
	}
	_ = m.sendCounted(link, &wire.Batch{Msgs: outgoing[:n]})
}

// onBatch takes the answer to a Request of ours on the link off its
// ledger, so it first plans the authors due meanwhile and sends that
// Request, then verifies and stores the delivered messages: the next round
// trip overlaps the checks. The answered Request is then settled. Nothing
// goes back to the sender: a new message moves the summary, and the delta
// Advertise pushes carries the new high-water mark to every linked peer.
// An empty batch counts as no batch.
func (m *Manager) onBatch(link *adhoc.Link, batch *wire.Batch) {
	peer := link.Peer()
	var sends []outgoingPlan
	var answered []wire.Want
	lost := uint64(0)
	m.mu.Lock()
	if len(batch.Msgs) > 0 {
		m.stats.BatchesReceived++
	}
	ps := m.peers[peer]
	if ps != nil && ps.link == link {
		var due []wire.Entry
		answered, due, lost = m.ledger.answer(peer, &ps.ledger, batch, ps.viewLocked)
		m.stats.InflightExpired += lost
		sends = m.planLocked([]peerView{{ps: ps, entries: due}})
	}
	m.mu.Unlock()
	m.sendPlans(sends)

	// A blank certificate after its author's message is that one's but for
	// the link's user's (onRequest), filled before any message is checked.
	for i := 1; i < len(batch.Msgs); i++ {
		if mm, prev := batch.Msgs[i], batch.Msgs[i-1]; len(mm.CertDER) == 0 && mm.Author == prev.Author && mm.Author != link.User() {
			mm.CertDER = prev.CertDER
		}
	}

	scheme := m.cfg.Routing.Current()
	newMessages := false
	// The first message is checked and stored alone, as a one-at-a-time
	// receiver would, so a batch does not delay a contact's first
	// delivery; the rest is checked as one chunk.
	for lo, hi := 0, min(1, len(batch.Msgs)); lo < hi; lo, hi = hi, len(batch.Msgs) {
		msgs := batch.Msgs[lo:hi]
		for i, cert := range m.verify(link.Cert().DER, msgs) {
			mm, ref := msgs[i], msgs[i].Ref()
			if cert == nil {
				// A bad copy settles nothing: anyone can put one of any ref
				// in a batch, and a request of this peer's that it answers
				// ends with the answer.
				m.mu.Lock()
				m.stats.VerifyFailures++
				m.mu.Unlock()
				continue
			}
			// The node's one copy: batch messages alias the received frame
			// (see adhoc.Handler), and the certificate bytes are the
			// verifier's, shared by every held message of this author.
			incoming := mm.Retain(cert.DER)
			incoming.Hops++ // one more device-to-device transfer
			added, err := m.cfg.Store.Put(incoming)
			if err != nil {
				continue
			}
			m.mu.Lock()
			m.ledger.received(ref)
			if added {
				m.stats.MessagesReceived++
			} else {
				m.stats.Duplicates++
			}
			m.mu.Unlock()
			if !added {
				continue
			}
			newMessages = true
			scheme.OnReceived(incoming, link.User())
			if m.cfg.OnReceive != nil {
				m.cfg.OnReceive(incoming, link.User())
			}
		}
	}

	// Lost answers are asked again at once, and so is what an empty answer
	// declined (evicted since the summary, or refused): a second holder in
	// the gathering is asked. A partial answer shows a hole under the
	// peer's high-water mark, which holders that copied from the same
	// sources share: it waits for the next plan.
	m.mu.Lock()
	var l *linkLedger // nil once the link ended meanwhile: release, decline nothing
	if ps != nil && ps.link == link {
		l = &ps.ledger
	}
	declined := m.ledger.release(peer, l, ps.viewLocked, answered)
	sends = nil
	if lost > 0 || declined > 0 && len(batch.Msgs) == 0 {
		sends = m.planLocked(m.linkedViewsLocked())
	}
	m.mu.Unlock()
	m.sendPlans(sends)
	if newMessages {
		// The summary changed; refresh the beacon and push deltas so both
		// browsing and linked peers see the new high-water marks (this is
		// how multi-hop forwarding propagates within a gathering).
		_ = m.Advertise()
	}
}

// sendPlans sends each planned Request, recording it in its link's ledger
// just before, in the order they leave.
func (m *Manager) sendPlans(sends []outgoingPlan) {
	m.reqMu.Lock()
	defer m.reqMu.Unlock()
	for _, s := range sends {
		m.mu.Lock()
		var l *linkLedger // nil once the link went down: released unsent
		if ps := m.peers[s.link.Peer()]; ps != nil && ps.link == s.link {
			l = &ps.ledger
		}
		sent := m.ledger.send(s.link.Peer(), l, s.wants)
		m.mu.Unlock()
		if sent {
			_ = m.sendCounted(s.link, &wire.Request{Wants: s.wants})
		}
	}
}

// verify enforces the paper's security checks on a batch of relayed
// messages: each attached certificate must chain to the pinned CA root
// and name the author, and each author's signature must cover the
// payload. A message onBatch left without one was served by its author, whose
// certificate the link's handshake carried (linkCert), so it is checked
// against that: a message of anyone else's fails as a wrong certificate
// does. It returns each message's certificate, nil where a check failed.
// Certificates are checked serially, in batch order, so the verifier's
// memory checks each one once (concurrent misses would not); signatures,
// most of the cost, on up to GOMAXPROCS goroutines, joined before the
// caller stores anything (see adhoc.Handler). A batch of one starts no
// goroutine and allocates nothing.
func (m *Manager) verify(linkCert []byte, msgs []*msg.Message) []*pki.UserCert {
	certs := slices.Grow(m.verdicts[:0], len(msgs))[:len(msgs)]
	m.verdicts = certs
	for i, mm := range msgs {
		certs[i] = nil
		der := mm.CertDER
		if len(der) == 0 {
			der = linkCert
		}
		if mm.Validate() == nil {
			certs[i], _ = m.cfg.Verifier.VerifyFor(der, mm.Author)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(msgs))
	if workers <= 1 {
		checkSignatures(msgs, certs, new(atomic.Int64))
		return certs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); checkSignatures(msgs, certs, &next) }()
	}
	checkSignatures(msgs, certs, &next)
	wg.Wait()
	return certs
}

// checkSignatures takes messages through next until none is left, so a
// worker that starts late takes fewer, and clears the certificate of each
// one whose author signature fails.
func checkSignatures(msgs []*msg.Message, certs []*pki.UserCert, next *atomic.Int64) {
	for i := next.Add(1) - 1; i < int64(len(msgs)); i = next.Add(1) - 1 {
		if certs[i] != nil && msgs[i].VerifyWithKey(certs[i].Key) != nil {
			certs[i] = nil
		}
	}
}
