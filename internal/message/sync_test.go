// Delta-synchronization conformance tests: the per-peer sync plane the
// message manager runs on top of store.Engine.Changes. These are
// end-to-end tests over the simulated medium in virtual time — the full
// middleware for steady-state delta sync and churn, and an adhoc-level
// harness for the generation-gap → SummaryPull → full-summary fallback
// and the redial ladder, which a graceful stack only hits through
// restarts and chaos.
package message_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
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

// sendFrame encodes f and sends it over link, as a peer's message manager
// would.
func sendFrame(link *adhoc.Link, f wire.Frame) error {
	_, err := link.Send(f)
	return err
}

// entriesOf is dict as a Summary carries it.
func entriesOf(dict map[id.UserID]uint64) []wire.Entry {
	entries := wire.AppendEntries(nil, dict)
	wire.SortEntries(entries)
	return entries
}

// viewOf is the dictionary a Summary's entries spell.
func viewOf(entries []wire.Entry) map[id.UserID]uint64 {
	view := make(map[id.UserID]uint64, len(entries))
	for _, e := range entries {
		view[e.Author] = e.Seq
	}
	return view
}

// world is where this package's contact tests stage devices. On the
// simulated medium (newWorld) time is virtual, every device that enters
// is in Bluetooth range of every other, and nothing moves between a
// test's steps: expect runs what is queued until the contact is quiet,
// then reads the state it leaves. On MemMedium (newRaceWorld), kept for
// the tests that exist to race, callbacks run on the medium's goroutines
// in wall time, and a test waits for them with await.
type world struct {
	clk    clock.Clock
	sim    *mpc.SimMedium // nil on MemMedium
	medium mpc.Medium
	ca     *pki.CA
	svc    *cloud.Service
	peers  []mpc.PeerID
}

// epoch is the virtual instant every simulated world starts at.
var epoch = time.Date(2017, 4, 3, 9, 0, 0, 0, time.UTC)

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	ca, err := pki.NewCA("sync-test-root", pki.WithClock(clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	sim := mpc.NewSimMedium(clk)
	return &world{clk: clk, sim: sim, medium: sim, ca: ca, svc: cloud.New(ca, cloud.WithClock(clk.Now))}
}

func newRaceWorld(t *testing.T) *world {
	t.Helper()
	ca, err := pki.NewCA("sync-test-root")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return &world{clk: clock.System(), medium: mpc.NewMemMedium(), ca: ca, svc: cloud.New(ca)}
}

// enter brings peer, joined, into radio range of every device that
// entered before it (MemMedium: all are in range from the start).
func (w *world) enter(peer mpc.PeerID) {
	if w.sim == nil {
		return
	}
	for _, p := range w.peers {
		w.sim.SetLink(p, peer, mpc.Bluetooth)
	}
	w.peers = append(w.peers, peer)
}

// run fires every queued event and every event those queue, up to an
// hour of virtual time: the contact runs until it is quiet.
func (w *world) run() {
	w.sim.RunUntil(w.clk.Now().Add(time.Hour))
}

// expect runs the world until it is quiet and fails the test unless cond
// then holds.
func (w *world) expect(t *testing.T, what string, cond func() bool) {
	t.Helper()
	w.run()
	if !cond() {
		t.Fatalf("quiet without %s", what)
	}
}

// await blocks until cond holds, testing it again at every signal on
// changed, a callback's, and fails the test after 10 s of wall time.
func await(t *testing.T, what string, changed <-chan struct{}, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// signal wakes an await on changed without ever blocking the callback.
func signal(changed chan struct{}) {
	select {
	case changed <- struct{}{}:
	default:
	}
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

	full, err := wire.Encode(&wire.Summary{Gen: gen, Entries: entriesOf(st.Summary())})
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
	delta, err := wire.Encode(&wire.Summary{Gen: gen, BaseGen: base, Entries: entriesOf(changes)})
	if err != nil {
		t.Fatalf("encoding delta: %v", err)
	}
	if ratio := float64(len(delta)) / float64(len(full)); ratio >= 0.05 {
		t.Errorf("delta advertisement is %d bytes vs %d full (%.1f%%), want < 5%%",
			len(delta), len(full), 100*ratio)
	}
}

// liveNode is one full middleware in a world.
type liveNode struct {
	mw      *core.Middleware
	creds   *cloud.Credentials
	changed chan struct{} // signalled at every delivery

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

// bootstrap signs handle up with the world's cloud.
func (w *world) bootstrap(t *testing.T, handle string) *cloud.Credentials {
	t.Helper()
	creds, err := cloud.Bootstrap(w.svc, handle, rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	return creds
}

func (w *world) liveNode(t *testing.T, handle string) *liveNode {
	t.Helper()
	return w.startLiveNode(t, w.medium, w.bootstrap(t, handle), nil)
}

// startLiveNode starts a node of creds over st (a fresh store when nil)
// joining through medium, the world's or a wrapper of it, and enters it.
// On the simulated medium it runs on the world's clock with no heartbeat.
func (w *world) startLiveNode(t *testing.T, medium mpc.Medium, creds *cloud.Credentials, st store.Engine) *liveNode {
	t.Helper()
	n := &liveNode{creds: creds, changed: make(chan struct{}, 1)}
	cfg := core.Config{
		Creds:    creds,
		Medium:   medium,
		PeerName: mpc.PeerID(creds.Handle + "-phone"),
		Store:    st,
		Clock:    w.clk,
		OnReceive: func(m *msg.Message, from id.UserID) {
			n.mu.Lock()
			n.received = append(n.received, m)
			n.mu.Unlock()
			signal(n.changed)
		},
		Observer: n,
	}
	if w.sim != nil {
		cfg.ResyncInterval = -1
	}
	mw, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New(%s): %v", creds.Handle, err)
	}
	n.mw = mw
	t.Cleanup(func() { mw.Close() })
	w.enter(mw.Peer())
	return n
}

// TestDeltaSyncSteadyState checks that after the initial full summary
// exchange on a link, subsequent store changes are pushed as delta
// advertisements and still deliver.
func TestDeltaSyncSteadyState(t *testing.T) {
	w := newWorld(t)
	alice := w.liveNode(t, "alice")
	bob := w.liveNode(t, "bob")

	p1, err := alice.mw.Post([]byte("first"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.expect(t, "first delivery", func() bool { return bob.gotSeq(p1.Author, p1.Seq) })
	if got := alice.mw.Stats().Message.AdsFullSent; got == 0 {
		t.Error("no full advertisement sent during initial sync")
	}

	for i := 0; i < 3; i++ {
		p, err := alice.mw.Post([]byte("update"))
		if err != nil {
			t.Fatalf("Post: %v", err)
		}
		w.expect(t, "delta delivery", func() bool { return bob.gotSeq(p.Author, p.Seq) })
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
	w := newWorld(t)
	alice := w.liveNode(t, "alice")
	bob := w.liveNode(t, "bob")

	p1, err := alice.mw.Post([]byte("prime"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.expect(t, "priming delivery", func() bool { return bob.gotSeq(p1.Author, p1.Seq) })

	base := alice.mw.Stats().Message
	// Post back-to-back as fast as the sync round trip allows: each post
	// is one delta advertisement, far beyond any sane refill rate.
	const posts = 150
	for i := 0; i < posts; i++ {
		p, err := alice.mw.Post([]byte("burst"))
		if err != nil {
			t.Fatalf("Post: %v", err)
		}
		w.expect(t, "burst delivery", func() bool { return bob.gotSeq(p.Author, p.Seq) })
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
	w := newWorld(t)
	alice := w.liveNode(t, "alice")
	bob := w.liveNode(t, "bob")

	p1, err := alice.mw.Post([]byte("before churn"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.expect(t, "pre-churn delivery", func() bool { return bob.gotSeq(p1.Author, p1.Seq) })
	fullBefore := alice.mw.Stats().Message.AdsFullSent

	w.sim.CutLink(alice.mw.Peer(), bob.mw.Peer())
	w.expect(t, "link down", func() bool {
		bob.mu.Lock()
		defer bob.mu.Unlock()
		return bob.downs > 0
	})
	w.sim.SetLink(alice.mw.Peer(), bob.mw.Peer(), mpc.Bluetooth)

	p2, err := alice.mw.Post([]byte("after churn"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.expect(t, "post-churn delivery", func() bool { return bob.gotSeq(p2.Author, p2.Seq) })
	if got := alice.mw.Stats().Message.AdsFullSent; got <= fullBefore {
		t.Errorf("post-churn reconnect reused a stale delta base: full ads %d → %d", fullBefore, got)
	}
}

// frameCapture is a thread-safe adhoc.Handler that records what arrives,
// playing the role of a scripted peer device. It holds no messages, so it
// answers every Request with an empty Batch, as an honest server that
// serves nothing does.
type frameCapture struct {
	mu      sync.Mutex
	links   []*adhoc.Link
	frames  []wire.Frame
	hold    bool          // answer no Request: the test sends the Batch
	changed chan struct{} // signalled at every LinkUp and frame
}

func newFrameCapture() *frameCapture { return &frameCapture{changed: make(chan struct{}, 1)} }

func (c *frameCapture) Bind(*adhoc.Manager)                            {}
func (c *frameCapture) PeerDiscovered(mpc.PeerID, *wire.Advertisement) {}
func (c *frameCapture) PeerGone(mpc.PeerID)                            {}
func (c *frameCapture) LinkUp(link *adhoc.Link) {
	c.mu.Lock()
	c.links = append(c.links, link)
	c.mu.Unlock()
	signal(c.changed)
}
func (c *frameCapture) FrameIn(link *adhoc.Link, f wire.Frame) {
	// A Summary's entries are pooled and reused once FrameIn returns, and
	// a Batch's messages alias the frame (see adhoc.Handler), so the
	// capture records copies; the other frames it reads alias nothing.
	switch fr := f.(type) {
	case *wire.Summary:
		cp := *fr
		cp.Entries = slices.Clone(fr.Entries)
		f = &cp
	case *wire.Batch: // its messages alias the frame
		cp := &wire.Batch{}
		for _, m := range fr.Msgs {
			cp.Msgs = append(cp.Msgs, m.Clone())
		}
		f = cp
	}
	c.mu.Lock()
	c.frames = append(c.frames, f)
	hold := c.hold
	c.mu.Unlock()
	if _, ok := f.(*wire.Request); ok && !hold {
		_ = sendFrame(link, &wire.Batch{})
	}
	signal(c.changed)
}
func (c *frameCapture) LinkDown(*adhoc.Link, error) {}

// holdAnswers stops the automatic empty Batch: the test answers.
func (c *frameCapture) holdAnswers() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hold = true
}

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
// peer (bob) in a simulated world.
type syncHarness struct {
	*world
	mgr      *message.Manager
	st       *store.Store
	rm       *routing.Manager
	aliceAd  *adhoc.Manager
	alice    *cloud.Credentials
	bobAd    *adhoc.Manager
	bob      *frameCapture
	bobCreds *cloud.Credentials
}

func newSyncHarness(t *testing.T) *syncHarness {
	t.Helper()
	return newSyncHarnessWith(t, message.Config{}, nil)
}

// newSyncHarnessWith builds the harness with alice's manager options
// taken from cfg (Store, Routing, Verifier and Clock are filled in) and
// both devices joining through radio's wrapping of the world's medium,
// if given.
func newSyncHarnessWith(t *testing.T, cfg message.Config, radio func(mpc.Medium) mpc.Medium) *syncHarness {
	t.Helper()
	h := &syncHarness{world: newWorld(t)}
	medium := h.medium
	if radio != nil {
		medium = radio(medium)
	}
	alice := h.realPeer(t, medium, "alice", cfg)
	h.mgr, h.st, h.rm, h.aliceAd, h.alice = alice.mgr, alice.st, alice.rm, alice.ad, alice.creds
	h.bob = newFrameCapture()
	h.bobAd, h.bobCreds = h.scriptedPeer(t, medium, "bob", h.bob)
	return h
}

// realDevice is a device running a real message manager.
type realDevice struct {
	mgr   *message.Manager
	st    *store.Store
	rm    *routing.Manager
	ad    *adhoc.Manager
	creds *cloud.Credentials
}

// realPeer enters one more device running a real message manager, with
// its options taken from cfg (Store, Routing, Verifier and Clock are
// filled in), joining through medium.
func (w *world) realPeer(t *testing.T, medium mpc.Medium, handle string, cfg message.Config) realDevice {
	t.Helper()
	creds := w.bootstrap(t, handle)
	st := store.New(creds.Ident.User)
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("routing.NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	cfg.Store, cfg.Routing, cfg.Verifier, cfg.Clock = st, rm, verifier, w.clk
	mgr, err := message.New(cfg)
	if err != nil {
		t.Fatalf("message.New: %v", err)
	}
	t.Cleanup(mgr.Close)
	return realDevice{mgr: mgr, st: st, rm: rm, ad: w.device(t, medium, creds, verifier, mgr), creds: creds}
}

// scriptedPeer enters one more device whose ad hoc manager hands its
// traffic to the scripted handler h, joining through medium.
func (w *world) scriptedPeer(t *testing.T, medium mpc.Medium, handle string, h adhoc.Handler) (*adhoc.Manager, *cloud.Credentials) {
	t.Helper()
	creds := w.bootstrap(t, handle)
	verifier, err := pki.NewVerifier(creds.RootDER, w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	return w.device(t, medium, creds, verifier, h), creds
}

// capturePeer enters one more scripted device that records its traffic.
func (w *world) capturePeer(t *testing.T, handle string) (*adhoc.Manager, *frameCapture) {
	t.Helper()
	c := newFrameCapture()
	ad, _ := w.scriptedPeer(t, w.medium, handle, c)
	return ad, c
}

// device starts the ad hoc manager of creds on "<handle>-phone" and
// enters it.
func (w *world) device(t *testing.T, medium mpc.Medium, creds *cloud.Credentials, verifier *pki.Verifier, h adhoc.Handler) *adhoc.Manager {
	t.Helper()
	ad, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: mpc.PeerID(creds.Handle + "-phone"), Ident: creds.Ident,
		CertDER: creds.Cert.DER, Verifier: verifier, Handler: h, Clock: w.clk,
	})
	if err != nil {
		t.Fatalf("adhoc.New(%s): %v", creds.Handle, err)
	}
	t.Cleanup(func() { ad.Close() })
	w.enter(ad.Self())
	return ad
}

// connect has ad dial alice and runs the contact until it is quiet,
// and returns the far end of the new link at peer.
func (h *syncHarness) connect(t *testing.T, ad *adhoc.Manager, peer *frameCapture) *adhoc.Link {
	t.Helper()
	n := peer.linkCount()
	if err := ad.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.expect(t, "link up at the scripted peer", func() bool { return peer.linkCount() > n })
	return peer.link(n)
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
	link := h.connect(t, h.bobAd, h.bob)

	// A first full summary gives alice a cached view of bob.
	cached := id.NewUserID("cached-author")
	if err := sendFrame(link, &wire.Summary{
		Gen: 5, Entries: entriesOf(map[id.UserID]uint64{cached: 3}),
	}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "request against the cached view", func() bool { return h.bob.requested(cached) })

	// A delta against a base alice's manager never recorded.
	gapAd := &wire.Summary{
		Gen: 1000, BaseGen: 999,
		Entries: entriesOf(map[id.UserID]uint64{h.bobCreds.Ident.User: 41}),
	}
	if err := sendFrame(link, gapAd); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "summary pull at bob", func() bool { return h.bob.pulls() > 0 })
	// The view survived the gap and the delta's entries joined it: both
	// are held, and the new one is planned against.
	h.expect(t, "request against the merged entry", func() bool { return h.bob.requested(h.bobCreds.Ident.User) })
	if _, _, entries := h.mgr.SyncState(); entries != 2 {
		t.Errorf("view holds %d entries after the gap delta, want 2 (cached + merged)", entries)
	}

	// A hostile stream of gap deltas inside one heartbeat interval costs
	// no further pull, no score and not the link.
	last := id.NewUserID("last-of-the-burst")
	for i := uint64(0); i < 200; i++ {
		ad := &wire.Summary{
			Gen: 2000 + i, BaseGen: 1999 + i,
			Entries: entriesOf(map[id.UserID]uint64{h.bobCreds.Ident.User: 41}),
		}
		if i == 199 {
			ad.Entries = entriesOf(map[id.UserID]uint64{h.bobCreds.Ident.User: 41, last: 1})
		}
		if err := sendFrame(link, ad); err != nil {
			t.Fatalf("SendFrame: %v", err)
		}
	}
	h.expect(t, "end of the burst", func() bool { return h.bob.requested(last) })
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
	if err := sendFrame(link, &wire.Summary{
		Gen: 2300, BaseGen: 2299, Entries: entriesOf(map[id.UserID]uint64{h.bobCreds.Ident.User: 41}),
	}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the pull after the tick", func() bool { return h.bob.pulls() == 2 })

	// Healing: a full summary replaces the view and planning resumes
	// (alice requests the advertised message).
	healed := id.NewUserID("healed-author")
	fullAd := &wire.Summary{
		Gen:     3000,
		Entries: entriesOf(map[id.UserID]uint64{healed: 1}),
	}
	if err := sendFrame(link, fullAd); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "request from alice", func() bool { return h.bob.requested(healed) })
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
	h.expect(t, "the failed handshakes", func() bool {
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
	h.expect(t, "the link after one tick", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
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
	h.expect(t, "the link after the ladder", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
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
	h.expect(t, "the lost Hello", func() bool { return radio.swallow.Load() == 0 && !h.mgr.Dialing("bob-phone") })
	h.mgr.Tick()
	if st := h.aliceAd.Stats(); st.HandshakeFailures != 0 {
		t.Fatalf("the first tick failed %d handshakes, want 0: the dial was not yet wedged at an earlier tick", st.HandshakeFailures)
	}
	h.mgr.Tick()
	h.expect(t, "the link after two ticks", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
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
	h.expect(t, "the refused dial on discovery", func() bool { return radio.failDials.Load() == failures-1 && !h.mgr.Dialing("bob-phone") })
	for i := 0; i < failures; i++ {
		h.mgr.Tick()
	}
	h.expect(t, "the link after the refused dials", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
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
	h.connect(t, h.bobAd, h.bob)
	h.expect(t, "greeting ad", func() bool { return len(h.bob.ads()) > 0 })
	link := h.bob.link(0)

	if err := sendFrame(link, &wire.SummaryPull{}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "full resync ad", func() bool {
		ads := h.bob.ads()
		last := ads[len(ads)-1]
		return len(ads) >= 2 && !last.IsDelta() && viewOf(last.Entries)[id.NewUserID("somebody")] == 7
	})
	if st := h.mgr.Stats(); st.SummaryPullsServed != 1 {
		t.Errorf("SummaryPullsServed = %d, want 1", st.SummaryPullsServed)
	}
}

// TestSummaryPullFloodIsBounded: each pull of a few bytes costs alice a
// stream of her whole dictionary, so a peer that pulls again and again
// draws no more full summaries than the flood bucket holds and refills
// meanwhile, and the pulls past it quarantine the peer and drop the link.
func TestSummaryPullFloodIsBounded(t *testing.T) {
	h := newSyncHarness(t)
	link := h.connect(t, h.bobAd, h.bob)
	start := h.clk.Now()
	const pulls = 4 * message.AdBurst
	for i := 0; i < pulls; i++ {
		if err := sendFrame(link, &wire.SummaryPull{}); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	h.expect(t, "the link dropped", func() bool { return len(h.mgr.ActiveLinks()) == 0 })
	st := h.mgr.Stats()
	bucket := message.AdBurst + int(h.clk.Now().Sub(start).Seconds()*message.AdRefillPerSec)
	if served := int(st.SummaryPullsServed); served < message.AdBurst || served > bucket {
		t.Errorf("SummaryPullsServed = %d of %d pulls, want %d to %d (the burst plus the refill)", served, pulls, message.AdBurst, bucket)
	}
	if st.AdsFullSent != 1+st.SummaryPullsServed { // the greeting, then one per pull served
		t.Errorf("AdsFullSent = %d for %d pulls served", st.AdsFullSent, st.SummaryPullsServed)
	}
	if st.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", st.Quarantines)
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
	h.expect(t, "first greeting", func() bool { return len(h.bob.ads()) > 0 })
	first := h.bob.ads()[0]
	if first.IsDelta() {
		t.Fatalf("first greeting was a delta: %+v", first)
	}

	h.bob.link(0).Close()
	h.expect(t, "alice sees the drop", func() bool { return len(h.mgr.ActiveLinks()) == 0 })

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
	h.expect(t, "second greeting", func() bool { return len(h.bob.ads()) >= 2 })
	second := h.bob.ads()[1]
	if !second.IsDelta() {
		t.Errorf("reconnect greeting was not a delta: %+v", second)
	}
	if viewOf(second.Entries)[changed] != 3 || len(second.Entries) != 1 {
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
// scores a Request totalling more than wire.MaxBatchMessages sequence
// numbers, so a planner far behind one busy author must split its
// want-list under that same limit — one author's list across frames.
func TestRequestsStayUnderTheLimitTheirServerEnforces(t *testing.T) {
	h := newSyncHarness(t)
	h.connect(t, h.bobAd, h.bob)
	// Two authors, so a frame boundary falls inside a list and between two.
	behind := map[id.UserID]uint64{id.NewUserID("busy-author"): 20000, id.NewUserID("busier-author"): 9000}
	if err := sendFrame(h.bob.link(0), &wire.Summary{Gen: 1, Entries: entriesOf(behind)}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "requests for the whole backlog", func() bool {
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
		if total > wire.MaxBatchMessages {
			t.Errorf("request %d totals %d sequences, over the %d a server accepts", i, total, wire.MaxBatchMessages)
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
// constant: exactly wire.MaxBatchMessages sequences is an honest frame,
// served and not scored; one more is refused and scored.
func TestRequestAtTheLimitIsServed(t *testing.T) {
	h := newSyncHarness(t)
	held := id.NewUserID("held-author")
	if _, err := h.st.Put(historyPost(held, 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	h.connect(t, h.bobAd, h.bob)

	seqs := make([]uint64, wire.MaxBatchMessages+1)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	atLimit := &wire.Request{Wants: []wire.Want{{Author: held, Seqs: seqs[:wire.MaxBatchMessages]}}}
	if err := sendFrame(h.bob.link(0), atLimit); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the batch answering a request at the limit", func() bool { return h.mgr.Stats().MessagesServed == 1 })
	if st := h.mgr.Stats(); st.MisbehaviorEvents != 0 {
		t.Errorf("a request of exactly the limit scored %d misbehavior events", st.MisbehaviorEvents)
	}

	if err := sendFrame(h.bob.link(0), &wire.Request{Wants: []wire.Want{{Author: held, Seqs: seqs}}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the over-limit request to be scored", func() bool { return h.mgr.Stats().MisbehaviorEvents == 1 })
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
	w := newRaceWorld(t)
	var nodes []*liveNode
	for _, handle := range []string{"alice", "bob", "carol"} {
		n := w.liveNode(t, handle)
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
				st := n.mw.Store()
				for _, author := range st.Authors() {
					for _, m := range st.MessagesFrom(author, 0) {
						sum += uint64(m.Budget) + uint64(m.Hops) + uint64(len(m.Payload))
					}
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
		await(t, "every post everywhere", n.changed, func() bool { return n.mw.Store().Len() == posts*len(nodes) })
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
