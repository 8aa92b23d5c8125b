// Delta-synchronization conformance tests: the per-peer sync plane the
// message manager runs on top of store.Engine.Changes. These are
// end-to-end tests over live media — the full middleware for steady-state
// delta sync and churn, and an adhoc-level harness for the
// generation-gap → SummaryPull → full-summary fallback and the redial
// ladder, which a graceful stack only hits through restarts and chaos.
package message_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
	"sos/internal/wire"
)

// waitFor polls cond every 2 ms, for at least 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for range 5000 {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDeltaAdvertisementSize pins the acceptance bound of the sync
// plane: at a 10k-author store with 5 changed authors, the delta
// advertisement must encode to less than 5% of the full summary.
func TestDeltaAdvertisementSize(t *testing.T) {
	st := store.New(id.NewUserID("owner"))
	authors := make([]id.UserID, 10_000)
	for i := range authors {
		authors[i] = id.NewUserID(fmt.Sprintf("author-%05d", i))
		if _, err := st.Put(&msg.Message{
			Author: authors[i], Seq: 1, Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	base := st.Generation()
	for _, a := range authors[:5] {
		if _, err := st.Put(&msg.Message{
			Author: a, Seq: 2, Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	gen := st.Generation()

	full, err := wire.Encode(&wire.Summary{Gen: gen, Entries: st.Summary()})
	if err != nil {
		t.Fatalf("encoding full summary: %v", err)
	}
	changes, ok := st.Changes(base)
	if !ok {
		t.Fatal("Changes(base) unanswerable")
	}
	if len(changes) != 5 {
		t.Fatalf("Changes(base) = %d authors, want 5", len(changes))
	}
	delta, err := wire.Encode(&wire.Summary{Gen: gen, BaseGen: base, Entries: changes})
	if err != nil {
		t.Fatalf("encoding delta: %v", err)
	}
	if ratio := float64(len(delta)) / float64(len(full)); ratio >= 0.05 {
		t.Errorf("delta advertisement is %d bytes vs %d full (%.1f%%), want < 5%%",
			len(delta), len(full), 100*ratio)
	}
}

// liveNode is one full middleware on a shared MemMedium.
type liveNode struct {
	mw    *core.Middleware
	creds *cloud.Credentials

	mu       sync.Mutex
	received []*msg.Message
	downs    int
}

// liveNode observes its own middleware, counting contacts that end.
func (n *liveNode) MessageCreated(*msg.Message)                   {}
func (n *liveNode) MessageReceived(*msg.Message, id.UserID, bool) {}
func (n *liveNode) MessageEvicted(store.Eviction)                 {}
func (n *liveNode) ContactUp(id.UserID)                           {}

func (n *liveNode) ContactDown(id.UserID) {
	n.mu.Lock()
	n.downs++
	n.mu.Unlock()
}

func (n *liveNode) gotSeq(author id.UserID, seq uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.received {
		if m.Author == author && m.Seq == seq {
			return true
		}
	}
	return false
}

func newLiveWorld(t *testing.T) (*mpc.MemMedium, *cloud.Service) {
	t.Helper()
	ca, err := pki.NewCA("sync-test-root")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return mpc.NewMemMedium(), cloud.New(ca)
}

func newLiveNode(t *testing.T, medium mpc.Medium, svc *cloud.Service, handle string) *liveNode {
	t.Helper()
	creds, err := cloud.Bootstrap(svc, handle, rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	return startLiveNode(t, medium, creds, nil)
}

// startLiveNode starts a live node of creds over st (a fresh store when
// nil).
func startLiveNode(t *testing.T, medium mpc.Medium, creds *cloud.Credentials, st store.Engine) *liveNode {
	t.Helper()
	n := &liveNode{creds: creds}
	mw, err := core.New(core.Config{
		Creds:    creds,
		Medium:   medium,
		PeerName: mpc.PeerID(creds.Handle + "-phone"),
		Store:    st,
		OnReceive: func(m *msg.Message, from id.UserID) {
			n.mu.Lock()
			n.received = append(n.received, m)
			n.mu.Unlock()
		},
		Observer: n,
	})
	if err != nil {
		t.Fatalf("core.New(%s): %v", creds.Handle, err)
	}
	n.mw = mw
	t.Cleanup(func() { mw.Close() })
	return n
}

// TestDeltaSyncSteadyState checks that after the initial full summary
// exchange on a link, subsequent store changes are pushed as delta
// advertisements and still deliver.
func TestDeltaSyncSteadyState(t *testing.T) {
	medium, svc := newLiveWorld(t)
	alice := newLiveNode(t, medium, svc, "alice")
	bob := newLiveNode(t, medium, svc, "bob")

	p1, err := alice.mw.Post([]byte("first"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	waitFor(t, "first delivery", func() bool { return bob.gotSeq(p1.Author, p1.Seq) })
	if got := alice.mw.Stats().Message.AdsFullSent; got == 0 {
		t.Error("no full advertisement sent during initial sync")
	}

	for i := 0; i < 3; i++ {
		p, err := alice.mw.Post([]byte("update"))
		if err != nil {
			t.Fatalf("Post: %v", err)
		}
		waitFor(t, "delta delivery", func() bool { return bob.gotSeq(p.Author, p.Seq) })
	}
	st := alice.mw.Stats().Message
	if st.AdsDeltaSent == 0 {
		t.Errorf("steady-state posts sent no delta advertisements (stats %+v)", st)
	}
	if st.SummaryPullsServed != 0 {
		t.Errorf("steady-state sync needed %d full resyncs", st.SummaryPullsServed)
	}
}

// TestFastContactStaysOnDeltaChain pins the flood-guard exemption for
// clean-chaining deltas: an honest fast contact legitimately produces
// delta advertisements faster than the ad bucket refills (one per post),
// and the receiver must keep applying them rather than silently dropping
// frames — a drop desynchronizes the delta chain and forces the
// full-summary recovery the delta plane exists to avoid. The posts here
// outnumber the bucket's burst capacity, so the run fails if chained
// deltas are ever charged.
func TestFastContactStaysOnDeltaChain(t *testing.T) {
	medium, svc := newLiveWorld(t)
	alice := newLiveNode(t, medium, svc, "alice")
	bob := newLiveNode(t, medium, svc, "bob")

	p1, err := alice.mw.Post([]byte("prime"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	waitFor(t, "priming delivery", func() bool { return bob.gotSeq(p1.Author, p1.Seq) })

	base := alice.mw.Stats().Message
	// Post back-to-back as fast as the sync round trip allows: each post
	// is one delta advertisement, far beyond any sane refill rate.
	const posts = 150
	for i := 0; i < posts; i++ {
		p, err := alice.mw.Post([]byte("burst"))
		if err != nil {
			t.Fatalf("Post: %v", err)
		}
		waitFor(t, "burst delivery", func() bool { return bob.gotSeq(p.Author, p.Seq) })
	}

	ast, bst := alice.mw.Stats().Message, bob.mw.Stats().Message
	if got := ast.AdsDeltaSent - base.AdsDeltaSent; got < posts {
		t.Errorf("fast contact sent %d delta advertisements, want >= %d", got, posts)
	}
	if got := ast.AdsFullSent - base.AdsFullSent; got != 0 {
		t.Errorf("fast contact fell back to %d full summaries, want 0", got)
	}
	if bst.SummaryPullsSent != 0 {
		t.Errorf("receiver hit %d generation gaps during an honest fast contact", bst.SummaryPullsSent)
	}
	if bst.MisbehaviorEvents != 0 {
		t.Errorf("honest fast contact scored %d misbehavior events", bst.MisbehaviorEvents)
	}
}

// TestChurnReconnectResync drives a radio-loss churn cycle: PeerGone
// clears the per-peer sync state on both sides, so the post-churn
// reconnect greets with a full summary (not a stale delta base) and
// delivery resumes.
func TestChurnReconnectResync(t *testing.T) {
	medium, svc := newLiveWorld(t)
	alice := newLiveNode(t, medium, svc, "alice")
	bob := newLiveNode(t, medium, svc, "bob")

	p1, err := alice.mw.Post([]byte("before churn"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	waitFor(t, "pre-churn delivery", func() bool { return bob.gotSeq(p1.Author, p1.Seq) })
	fullBefore := alice.mw.Stats().Message.AdsFullSent

	medium.SetReachable(alice.mw.Peer(), bob.mw.Peer(), false)
	waitFor(t, "link down", func() bool {
		bob.mu.Lock()
		defer bob.mu.Unlock()
		return bob.downs > 0
	})
	medium.SetReachable(alice.mw.Peer(), bob.mw.Peer(), true)

	p2, err := alice.mw.Post([]byte("after churn"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	waitFor(t, "post-churn delivery", func() bool { return bob.gotSeq(p2.Author, p2.Seq) })
	if got := alice.mw.Stats().Message.AdsFullSent; got <= fullBefore {
		t.Errorf("post-churn reconnect reused a stale delta base: full ads %d → %d", fullBefore, got)
	}
}

// frameCapture is a thread-safe adhoc.Handler that records what arrives,
// playing the role of a scripted peer device.
type frameCapture struct {
	mu     sync.Mutex
	links  []*adhoc.Link
	frames []wire.Frame
}

func (c *frameCapture) Bind(*adhoc.Manager)                            {}
func (c *frameCapture) PeerDiscovered(mpc.PeerID, *wire.Advertisement) {}
func (c *frameCapture) PeerGone(mpc.PeerID)                            {}
func (c *frameCapture) LinkUp(link *adhoc.Link) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links = append(c.links, link)
}
func (c *frameCapture) FrameIn(_ *adhoc.Link, f wire.Frame) {
	// Retain the frame as-is: Summary and SummaryPull frames do not alias
	// decode scratch (only Batch messages do).
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, f)
}
func (c *frameCapture) LinkDown(*adhoc.Link, error) {}

func (c *frameCapture) linkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.links)
}

func (c *frameCapture) link(i int) *adhoc.Link {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.links[i]
}

func (c *frameCapture) ads() []*wire.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*wire.Summary
	for _, f := range c.frames {
		if ad, ok := f.(*wire.Summary); ok {
			out = append(out, ad)
		}
	}
	return out
}

func (c *frameCapture) pulls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, f := range c.frames {
		if _, ok := f.(*wire.SummaryPull); ok {
			n++
		}
	}
	return n
}

// syncHarness wires one real message.Manager (alice) against a scripted
// peer (bob) over a live medium.
type syncHarness struct {
	mem      *mpc.MemMedium
	svc      *cloud.Service
	mgr      *message.Manager
	st       *store.Store
	aliceAd  *adhoc.Manager
	bobAd    *adhoc.Manager
	bob      *frameCapture
	bobCreds *cloud.Credentials
}

func newSyncHarness(t *testing.T) *syncHarness {
	t.Helper()
	return newSyncHarnessWith(t, message.Config{}, nil)
}

// newSyncHarnessWith builds the harness with alice's manager options
// taken from cfg (Store, Routing and Verifier are filled in) and both
// devices joining through radio's wrapping of the shared medium, if given.
func newSyncHarnessWith(t *testing.T, cfg message.Config, radio func(mpc.Medium) mpc.Medium) *syncHarness {
	t.Helper()
	mem, svc := newLiveWorld(t)
	var medium mpc.Medium = mem
	if radio != nil {
		medium = radio(mem)
	}
	aliceCreds, err := cloud.Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := store.New(aliceCreds.Ident.User)
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("routing.NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(aliceCreds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	cfg.Store, cfg.Routing, cfg.Verifier = st, rm, verifier
	mgr, err := message.New(cfg)
	if err != nil {
		t.Fatalf("message.New: %v", err)
	}
	t.Cleanup(mgr.Close)
	aliceAd, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "alice-phone", Ident: aliceCreds.Ident,
		CertDER: aliceCreds.Cert.DER, Verifier: verifier, Handler: mgr,
	})
	if err != nil {
		t.Fatalf("adhoc.New(alice): %v", err)
	}
	t.Cleanup(func() { aliceAd.Close() })

	h := &syncHarness{mem: mem, svc: svc, mgr: mgr, st: st, aliceAd: aliceAd}
	h.bobAd, h.bob, h.bobCreds = h.scriptedPeer(t, medium, "bob")
	return h
}

// scriptedPeer joins one more scripted device (a frameCapture behind a
// real ad hoc manager) to the harness's world.
func (h *syncHarness) scriptedPeer(t *testing.T, medium mpc.Medium, handle string) (*adhoc.Manager, *frameCapture, *cloud.Credentials) {
	t.Helper()
	creds, err := cloud.Bootstrap(h.svc, handle, rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	peer := &frameCapture{}
	ad, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: mpc.PeerID(handle + "-phone"), Ident: creds.Ident,
		CertDER: creds.Cert.DER, Verifier: verifier, Handler: peer,
	})
	if err != nil {
		t.Fatalf("adhoc.New(%s): %v", handle, err)
	}
	t.Cleanup(func() { ad.Close() })
	return ad, peer, creds
}

// requested reports whether alice has sent bob a Request naming author.
func (c *frameCapture) requested(author id.UserID) bool {
	return c.requestedSeqs(author) > 0
}

// requestedSeqs counts the sequence numbers of author across every
// Request received so far (a re-requested number counts again).
func (c *frameCapture) requestedSeqs(author id.UserID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, f := range c.frames {
		if req, ok := f.(*wire.Request); ok {
			for _, w := range req.Wants {
				if w.Author == author {
					n += len(w.Seqs)
				}
			}
		}
	}
	return n
}

// TestGenerationGapTriggersSummaryPull scripts a peer whose delta builds
// on a generation the manager never saw. The receiver must keep its
// cached view, merge and plan against the delta's entries, score nothing
// and answer with one SummaryPull — one per heartbeat interval however
// many gap deltas follow, the next only after a Tick — and a subsequent
// full summary must heal the view.
func TestGenerationGapTriggersSummaryPull(t *testing.T) {
	h := newSyncHarness(t)
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	waitFor(t, "link up at bob", func() bool { return h.bob.linkCount() > 0 })
	link := h.bob.link(0)

	// A first full summary gives alice a cached view of bob.
	cached := id.NewUserID("cached-author")
	if err := link.SendFrame(&wire.Summary{
		Gen: 5, Entries: map[id.UserID]uint64{cached: 3},
	}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "request against the cached view", func() bool { return h.bob.requested(cached) })

	// A delta against a base alice's manager never recorded.
	gapAd := &wire.Summary{
		Gen: 1000, BaseGen: 999,
		Entries: map[id.UserID]uint64{h.bobCreds.Ident.User: 41},
	}
	if err := link.SendFrame(gapAd); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "summary pull at bob", func() bool { return h.bob.pulls() > 0 })
	// The view survived the gap and the delta's entries joined it: both
	// are held, and the new one is planned against.
	waitFor(t, "request against the merged entry", func() bool { return h.bob.requested(h.bobCreds.Ident.User) })
	if _, _, entries := h.mgr.SyncState(); entries != 2 {
		t.Errorf("view holds %d entries after the gap delta, want 2 (cached + merged)", entries)
	}

	// A hostile stream of gap deltas inside one heartbeat interval costs
	// no further pull, no score and not the link.
	last := id.NewUserID("last-of-the-burst")
	for i := uint64(0); i < 200; i++ {
		ad := &wire.Summary{
			Gen: 2000 + i, BaseGen: 1999 + i,
			Entries: map[id.UserID]uint64{h.bobCreds.Ident.User: 41},
		}
		if i == 199 {
			ad.Entries[last] = 1
		}
		if err := link.SendFrame(ad); err != nil {
			t.Fatalf("SendFrame: %v", err)
		}
	}
	waitFor(t, "end of the burst", func() bool { return h.bob.requested(last) })
	st := h.mgr.Stats()
	if st.SummaryPullsSent != 1 || h.bob.pulls() != 1 {
		t.Errorf("SummaryPullsSent = %d (bob saw %d), want 1 for 201 gap deltas in one interval", st.SummaryPullsSent, h.bob.pulls())
	}
	if st.MisbehaviorEvents != 0 || st.Quarantines != 0 {
		t.Errorf("gap deltas scored: %d misbehavior events, %d quarantines", st.MisbehaviorEvents, st.Quarantines)
	}
	if st.AdsFullSent != 1 {
		t.Errorf("AdsFullSent = %d, want only the greeting: gap deltas must not be answered with fulls", st.AdsFullSent)
	}
	if len(h.mgr.ActiveLinks()) != 1 {
		t.Error("the link did not survive the gap-delta burst")
	}

	// A tick re-arms the pull: the next gap delta asks once more.
	h.mgr.Tick()
	if err := link.SendFrame(&wire.Summary{
		Gen: 2300, BaseGen: 2299, Entries: map[id.UserID]uint64{h.bobCreds.Ident.User: 41},
	}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "the pull after the tick", func() bool { return h.bob.pulls() == 2 })

	// Healing: a full summary replaces the view and planning resumes
	// (alice requests the advertised message).
	healed := id.NewUserID("healed-author")
	fullAd := &wire.Summary{
		Gen:     3000,
		Entries: map[id.UserID]uint64{healed: 1},
	}
	if err := link.SendFrame(fullAd); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "request from alice", func() bool { return h.bob.requested(healed) })
	if _, _, entries := h.mgr.SyncState(); entries != 1 {
		t.Errorf("view holds %d entries after the healing full, want 1", entries)
	}
}

// refusingMedium is the harness's scripted radio: it hangs up on the
// first refuse inbound connections before the handshake can start, loses
// the first swallow frames delivered, and fails the first failDials dials
// with a transport error, as a refused TCP connect would. Alice only
// dials and bob only answers, so the refusals and lost frames are bob's
// and the failed dials alice's.
type refusingMedium struct {
	mpc.Medium
	refuse    atomic.Int32
	swallow   atomic.Int32
	failDials atomic.Int32
}

func (m *refusingMedium) Join(peer mpc.PeerID, events mpc.Events) (mpc.Endpoint, error) {
	ep, err := m.Medium.Join(peer, &refusingEvents{Events: events, m: m, refused: make(map[mpc.Conn]bool)})
	if err != nil {
		return nil, err
	}
	return &refusingEndpoint{Endpoint: ep, m: m}, nil
}

// refusingEndpoint fails the medium's scripted dials.
type refusingEndpoint struct {
	mpc.Endpoint
	m *refusingMedium
}

func (ep *refusingEndpoint) Connect(peer mpc.PeerID) (mpc.Conn, error) {
	if ep.m.failDials.Add(-1) >= 0 {
		return nil, errors.New("connection refused")
	}
	return ep.Endpoint.Connect(peer)
}

// refusingEvents hides refused connections from the wrapped callback
// surface. The medium invokes callbacks sequentially, so the map needs
// no lock.
type refusingEvents struct {
	mpc.Events
	m       *refusingMedium
	refused map[mpc.Conn]bool
}

func (e *refusingEvents) Incoming(conn mpc.Conn) {
	if e.m.refuse.Add(-1) >= 0 {
		e.refused[conn] = true
		conn.Close()
		return
	}
	e.Events.Incoming(conn)
}

func (e *refusingEvents) Received(conn mpc.Conn, frame []byte) {
	if !e.refused[conn] && e.m.swallow.Add(-1) < 0 {
		e.Events.Received(conn, frame)
	}
}

func (e *refusingEvents) Disconnected(conn mpc.Conn, reason error) {
	if e.refused[conn] {
		delete(e.refused, conn)
		return
	}
	e.Events.Disconnected(conn, reason)
}

// refusingHarness builds a harness on a refusingMedium whose scripted
// bob refuses his first refusals inbound handshakes and loses the first
// swallows frames he receives, whose alice fails her first dialFailures
// dials, and where bob beacons, unchanged, something alice wants, so she
// dials him once on discovery.
func refusingHarness(t *testing.T, refusals, swallows, dialFailures int32) (*syncHarness, *refusingMedium) {
	var radio *refusingMedium
	h := newSyncHarnessWith(t, message.Config{AutoConnect: true}, func(m mpc.Medium) mpc.Medium {
		radio = &refusingMedium{Medium: m}
		radio.refuse.Store(refusals)
		radio.swallow.Store(swallows)
		radio.failDials.Store(dialFailures)
		return radio
	})
	if err := h.bobAd.Advertise(&wire.Advertisement{
		Peer: "bob-phone", Gen: 1, Summary: map[id.UserID]uint64{h.bobCreds.Ident.User: 1},
	}); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	return h, radio
}

// dialSettled waits until alice has counted failures failed handshakes
// and has no dial under way, so the next Tick's re-dial is the only one.
func dialSettled(t *testing.T, h *syncHarness, failures uint64) {
	t.Helper()
	waitFor(t, "the failed handshakes", func() bool {
		return h.aliceAd.Stats().HandshakeFailures == failures && !h.mgr.Dialing("bob-phone")
	})
}

// TestHeartbeatOffArmsNoTimer: the manager holds no timer, so with no
// driver calling Tick, the simulator's setting, nothing retries. Bob
// refuses the one handshake his beacon caused: alice has dialled once and
// re-dialled never, and the first Tick is what dials him again.
func TestHeartbeatOffArmsNoTimer(t *testing.T) {
	h, _ := refusingHarness(t, 1, 0, 0)
	dialSettled(t, h, 1)
	if st := h.mgr.Stats(); st.ConnectsAttempted != 1 || st.Reconnects != 0 {
		t.Errorf("after one refused handshake: ConnectsAttempted = %d, Reconnects = %d; want 1 and 0", st.ConnectsAttempted, st.Reconnects)
	}
	h.mgr.Tick()
	waitFor(t, "the link after one tick", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
	if st := h.mgr.Stats(); st.Reconnects != 1 {
		t.Errorf("Reconnects = %d after one tick, want 1", st.Reconnects)
	}
}

// TestRedialLadderOutlastsFailedHandshakes scripts a peer in range whose
// first eight handshakes fail and whose beacon never changes, so nothing
// but the resync heartbeat can dial again. Its re-dials must outlast the
// failures and bring the contact up: one re-dial per tick.
func TestRedialLadderOutlastsFailedHandshakes(t *testing.T) {
	const failures = 8
	h, radio := refusingHarness(t, failures, 0, 0)
	for i := uint64(1); i <= failures; i++ {
		dialSettled(t, h, i)
		h.mgr.Tick()
	}
	waitFor(t, "the link after the ladder", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
	if left := radio.refuse.Load(); left != -1 {
		t.Errorf("refusals left at %d, want -1: eight refused handshakes and the one that linked", left)
	}
	if st := h.mgr.Stats(); st.Reconnects != failures {
		t.Errorf("Reconnects = %d, want %d ladder attempts", st.Reconnects, failures)
	}
}

// TestHeartbeatExpiresWedgedHandshake: bob's radio loses alice's first
// Hello, so her dial sits mid-handshake and the first tick's re-dial is
// refused as in progress. The second tick fails the wedged handshake just
// before it re-dials, and that dial links.
func TestHeartbeatExpiresWedgedHandshake(t *testing.T) {
	h, radio := refusingHarness(t, 0, 1, 0)
	waitFor(t, "the lost Hello", func() bool { return radio.swallow.Load() == 0 && !h.mgr.Dialing("bob-phone") })
	h.mgr.Tick()
	if st := h.aliceAd.Stats(); st.HandshakeFailures != 0 {
		t.Fatalf("the first tick failed %d handshakes, want 0: the dial was not yet wedged at an earlier tick", st.HandshakeFailures)
	}
	h.mgr.Tick()
	waitFor(t, "the link after two ticks", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
	if st := h.aliceAd.Stats(); st.HandshakeFailures != 1 {
		t.Errorf("alice's HandshakeFailures = %d, want 1: the wedged dial", st.HandshakeFailures)
	}
	if st := h.mgr.Stats(); st.Reconnects != 2 {
		t.Errorf("Reconnects = %d, want 2: one refused as in progress, one that linked", st.Reconnects)
	}
}

// TestHeartbeatRedialsRefusedDials: alice's first three dials fail at
// the socket, as toward a peer whose listener is not up yet. A transport
// error keeps the peer armed, so each tick re-dials, and the third links.
func TestHeartbeatRedialsRefusedDials(t *testing.T) {
	const failures = 3
	h, radio := refusingHarness(t, 0, 0, failures)
	waitFor(t, "the refused dial on discovery", func() bool { return radio.failDials.Load() == failures-1 && !h.mgr.Dialing("bob-phone") })
	for i := 0; i < failures; i++ {
		h.mgr.Tick()
	}
	waitFor(t, "the link after the refused dials", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
	if left := radio.failDials.Load(); left != -1 {
		t.Errorf("failDials left at %d, want -1: three refused dials and the one that linked", left)
	}
	if st := h.mgr.Stats(); st.Reconnects != failures {
		t.Errorf("Reconnects = %d, want %d heartbeat re-dials", st.Reconnects, failures)
	}
}

// TestSummaryPullServesFull scripts a peer asking for a full resync: the
// manager must answer with a full (non-delta) advertisement even though
// it believes the peer is current.
func TestSummaryPullServesFull(t *testing.T) {
	h := newSyncHarness(t)
	if _, err := h.st.Put(&msg.Message{
		Author: id.NewUserID("somebody"), Seq: 7, Kind: msg.KindPost, Created: time.Unix(0, 0),
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	waitFor(t, "link up at bob", func() bool { return h.bob.linkCount() > 0 })
	waitFor(t, "greeting ad", func() bool { return len(h.bob.ads()) > 0 })
	link := h.bob.link(0)

	if err := link.SendFrame(&wire.SummaryPull{}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "full resync ad", func() bool {
		ads := h.bob.ads()
		last := ads[len(ads)-1]
		return len(ads) >= 2 && !last.IsDelta() && last.Entries[id.NewUserID("somebody")] == 7
	})
	if st := h.mgr.Stats(); st.SummaryPullsServed != 1 {
		t.Errorf("SummaryPullsServed = %d, want 1", st.SummaryPullsServed)
	}
}

// TestLinkDropReconnectUsesDelta drops just the link (no radio loss, so
// no PeerGone): the manager keeps its per-peer sync cursor and greets the
// reconnecting peer with a delta advertisement carrying only what changed
// while the link was down.
func TestLinkDropReconnectUsesDelta(t *testing.T) {
	h := newSyncHarness(t)
	// A non-zero starting generation: generation 0 cannot serve as a
	// delta base (BaseGen 0 marks a full summary), so an empty store's
	// first greeting would pin the next one to full as well.
	if _, err := h.st.Put(&msg.Message{
		Author: id.NewUserID("pre-existing"), Seq: 1, Kind: msg.KindPost, Created: time.Unix(0, 0),
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	waitFor(t, "first greeting", func() bool { return len(h.bob.ads()) > 0 })
	first := h.bob.ads()[0]
	if first.IsDelta() {
		t.Fatalf("first greeting was a delta: %+v", first)
	}

	h.bob.link(0).Close()
	waitFor(t, "alice sees the drop", func() bool { return len(h.mgr.ActiveLinks()) == 0 })

	// The store moves while the link is down.
	changed := id.NewUserID("while-down")
	if _, err := h.st.Put(&msg.Message{
		Author: changed, Seq: 3, Kind: msg.KindPost, Created: time.Unix(0, 0),
	}); err != nil {
		t.Fatal(err)
	}

	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	waitFor(t, "second greeting", func() bool { return len(h.bob.ads()) >= 2 })
	second := h.bob.ads()[1]
	if !second.IsDelta() {
		t.Errorf("reconnect greeting was not a delta: %+v", second)
	}
	if second.Entries[changed] != 3 || len(second.Entries) != 1 {
		t.Errorf("reconnect delta = %v, want {%s: 3}", second.Entries, changed)
	}
	if st := h.mgr.Stats(); st.AdsDeltaSent == 0 {
		t.Errorf("stats recorded no delta ads: %+v", st)
	}
}

// requests returns every Request received so far.
func (c *frameCapture) requests() []*wire.Request {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*wire.Request
	for _, f := range c.frames {
		if req, ok := f.(*wire.Request); ok {
			out = append(out, req)
		}
	}
	return out
}

// TestRequestsStayUnderTheLimitTheirServerEnforces: a server refuses and
// scores a Request totalling more than wire.MaxSeqsPerRequest sequence
// numbers, so a planner far behind one busy author must split its
// want-list under that same limit — one author's list across frames.
func TestRequestsStayUnderTheLimitTheirServerEnforces(t *testing.T) {
	h := newSyncHarness(t)
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	waitFor(t, "link up at bob", func() bool { return h.bob.linkCount() > 0 })
	// Two authors, so a frame boundary falls inside a list and between two.
	behind := map[id.UserID]uint64{id.NewUserID("busy-author"): 20000, id.NewUserID("busier-author"): 9000}
	if err := h.bob.link(0).SendFrame(&wire.Summary{Gen: 1, Entries: behind}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "requests for the whole backlog", func() bool {
		for author, upto := range behind {
			if h.bob.requestedSeqs(author) < int(upto) {
				return false
			}
		}
		return true
	})

	asked := make(map[msg.Ref]int)
	for i, req := range h.bob.requests() {
		total := 0
		for _, w := range req.Wants {
			total += len(w.Seqs)
			for _, seq := range w.Seqs {
				asked[msg.Ref{Author: w.Author, Seq: seq}]++
			}
		}
		if total > wire.MaxSeqsPerRequest {
			t.Errorf("request %d totals %d sequences, over the %d a server accepts", i, total, wire.MaxSeqsPerRequest)
		}
	}
	if len(asked) != 29000 {
		t.Errorf("requests cover %d distinct messages, want 29000", len(asked))
	}
	for author, upto := range behind {
		for seq := uint64(1); seq <= upto; seq++ {
			if n := asked[msg.Ref{Author: author, Seq: seq}]; n != 1 {
				t.Fatalf("%s/%d requested %d times, want once", author, seq, n)
			}
		}
	}
}

// TestRequestAtTheLimitIsServed pins the server's side of the same
// constant: exactly wire.MaxSeqsPerRequest sequences is an honest frame,
// served and not scored; one more is refused and scored.
func TestRequestAtTheLimitIsServed(t *testing.T) {
	h := newSyncHarness(t)
	held := id.NewUserID("held-author")
	if _, err := h.st.Put(historyPost(held, 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	waitFor(t, "link up at bob", func() bool { return h.bob.linkCount() > 0 })

	seqs := make([]uint64, wire.MaxSeqsPerRequest+1)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	atLimit := &wire.Request{Wants: []wire.Want{{Author: held, Seqs: seqs[:wire.MaxSeqsPerRequest]}}}
	if err := h.bob.link(0).SendFrame(atLimit); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "the batch answering a request at the limit", func() bool { return h.mgr.Stats().MessagesServed == 1 })
	if st := h.mgr.Stats(); st.MisbehaviorEvents != 0 {
		t.Errorf("a request of exactly the limit scored %d misbehavior events", st.MisbehaviorEvents)
	}

	if err := h.bob.link(0).SendFrame(&wire.Request{Wants: []wire.Want{{Author: held, Seqs: seqs}}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "the over-limit request to be scored", func() bool { return h.mgr.Stats().MisbehaviorEvents == 1 })
	if st := h.mgr.Stats(); st.MessagesServed != 1 {
		t.Errorf("an over-limit request was served: %d messages, want still 1", st.MessagesServed)
	}
}

// TestSharedMessagesAreNeverWritten runs three spray-and-wait nodes on one
// MemMedium. Each serves, from its link goroutines, the same stored
// messages a reader goroutine per node keeps re-reading, routing metadata
// included. Under -race the stack writing to a shared message — a
// transfer's spray budget set on the stored copy, not the outgoing one —
// is a reported race; without -race the final check still catches it.
func TestSharedMessagesAreNeverWritten(t *testing.T) {
	medium, svc := newLiveWorld(t)
	var nodes []*liveNode
	for _, handle := range []string{"alice", "bob", "carol"} {
		n := newLiveNode(t, medium, svc, handle)
		if err := n.mw.SetScheme(routing.SchemeSprayAndWait); err != nil {
			t.Fatalf("SetScheme: %v", err)
		}
		nodes = append(nodes, n)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	var read atomic.Uint64
	for _, n := range nodes {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
				var sum uint64
				for _, m := range n.mw.Store().All() {
					sum += uint64(m.Budget) + uint64(m.Hops) + uint64(len(m.Payload))
				}
				read.Add(sum)
			}
		}()
	}

	const posts = 5
	for i := 0; i < posts; i++ {
		for _, n := range nodes {
			if _, err := n.mw.Post([]byte(fmt.Sprintf("post %d", i))); err != nil {
				t.Fatalf("Post: %v", err)
			}
		}
	}
	for _, n := range nodes {
		waitFor(t, "every post everywhere", func() bool { return n.mw.Store().Len() == posts*len(nodes) })
	}
	close(done)
	readers.Wait()

	for _, n := range nodes {
		for _, m := range n.mw.Store().MessagesFrom(n.mw.User(), 0) {
			if m.Budget != 0 || m.Hops != 0 {
				t.Errorf("%s's stored %s was rewritten by a transfer: budget %d, hops %d", n.creds.Handle, m.Ref(), m.Budget, m.Hops)
			}
		}
	}
	if read.Load() == 0 {
		t.Error("the readers never saw a message")
	}
}
