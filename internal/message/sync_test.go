// Delta-synchronization conformance tests: the per-peer sync plane the
// message manager runs on top of store.Engine.Changes. These are
// end-to-end tests over live media — the full middleware for steady-state
// delta sync and churn, and an adhoc-level harness for the
// generation-gap → SummaryPull → full-summary fallback that a graceful
// stack can only hit through peer restarts.
package message_test

import (
	"crypto/rand"
	"fmt"
	"sync"
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

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
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

	full, err := wire.Encode(&wire.Advertisement{Peer: "p", Gen: gen, Summary: st.Summary()})
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
	delta, err := wire.Encode(&wire.Advertisement{Peer: "p", Gen: gen, BaseGen: base, Summary: changes})
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

func newLiveNode(t *testing.T, medium *mpc.MemMedium, svc *cloud.Service, handle string) *liveNode {
	t.Helper()
	creds, err := cloud.Bootstrap(svc, handle, rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	n := &liveNode{creds: creds}
	mw, err := core.New(core.Config{
		Creds:    creds,
		Medium:   medium,
		PeerName: mpc.PeerID(handle + "-phone"),
		OnReceive: func(m *msg.Message, from id.UserID) {
			n.mu.Lock()
			n.received = append(n.received, m)
			n.mu.Unlock()
		},
		OnPeerDown: func(id.UserID) {
			n.mu.Lock()
			n.downs++
			n.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("core.New(%s): %v", handle, err)
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
	// Clone advertisements: their maps are safe, but keep it simple and
	// retain the frame as-is; SummaryPull and Advertisement frames do not
	// alias decode scratch (only Batch messages do).
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

func (c *frameCapture) ads() []*wire.Advertisement {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*wire.Advertisement
	for _, f := range c.frames {
		if ad, ok := f.(*wire.Advertisement); ok {
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
	mgr      *message.Manager
	st       *store.Store
	aliceAd  *adhoc.Manager
	bobAd    *adhoc.Manager
	bob      *frameCapture
	bobCreds *cloud.Credentials
}

func newSyncHarness(t *testing.T) *syncHarness {
	t.Helper()
	medium, svc := newLiveWorld(t)
	aliceCreds, err := cloud.Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	bobCreds, err := cloud.Bootstrap(svc, "bob", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	st := store.New(aliceCreds.Ident.User)
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("routing.NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(aliceCreds.RootDER, nil)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mgr, err := message.New(message.Config{Store: st, Routing: rm, Verifier: verifier})
	if err != nil {
		t.Fatalf("message.New: %v", err)
	}
	aliceAd, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "alice-phone", Ident: aliceCreds.Ident,
		CertDER: aliceCreds.Cert.DER, Verifier: verifier, Handler: mgr,
	})
	if err != nil {
		t.Fatalf("adhoc.New(alice): %v", err)
	}
	t.Cleanup(func() { aliceAd.Close() })

	bobVerifier, err := pki.NewVerifier(bobCreds.RootDER, nil)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	bob := &frameCapture{}
	bobAd, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "bob-phone", Ident: bobCreds.Ident,
		CertDER: bobCreds.Cert.DER, Verifier: bobVerifier, Handler: bob,
	})
	if err != nil {
		t.Fatalf("adhoc.New(bob): %v", err)
	}
	t.Cleanup(func() { bobAd.Close() })

	return &syncHarness{mgr: mgr, st: st, aliceAd: aliceAd, bobAd: bobAd, bob: bob, bobCreds: bobCreds}
}

// TestGenerationGapTriggersSummaryPull scripts a peer that claims a delta
// base the manager has never seen — the receiver must answer SummaryPull,
// and a subsequent full summary must heal the view.
func TestGenerationGapTriggersSummaryPull(t *testing.T) {
	h := newSyncHarness(t)
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	waitFor(t, "link up at bob", func() bool { return h.bob.linkCount() > 0 })
	link := h.bob.link(0)

	// A delta against a base alice's manager never recorded.
	gapAd := &wire.Advertisement{
		Peer: "bob-phone", Gen: 1000, BaseGen: 999,
		Summary: map[id.UserID]uint64{h.bobCreds.Ident.User: 41},
	}
	if err := link.SendFrame(gapAd); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "summary pull at bob", func() bool { return h.bob.pulls() > 0 })
	if st := h.mgr.Stats(); st.SummaryPullsSent != 1 {
		t.Errorf("SummaryPullsSent = %d, want 1", st.SummaryPullsSent)
	}

	// Healing: a full summary is applied and planning resumes (alice
	// requests the advertised message).
	fullAd := &wire.Advertisement{
		Peer: "bob-phone", Gen: 1000,
		Summary: map[id.UserID]uint64{h.bobCreds.Ident.User: 1},
	}
	if err := link.SendFrame(fullAd); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	waitFor(t, "request from alice", func() bool {
		h.bob.mu.Lock()
		defer h.bob.mu.Unlock()
		for _, f := range h.bob.frames {
			if _, ok := f.(*wire.Request); ok {
				return true
			}
		}
		return false
	})
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
		return len(ads) >= 2 && !last.IsDelta() && last.Summary[id.NewUserID("somebody")] == 7
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
	if second.Summary[changed] != 3 || len(second.Summary) != 1 {
		t.Errorf("reconnect delta = %v, want {%s: 3}", second.Summary, changed)
	}
	if st := h.mgr.Stats(); st.AdsDeltaSent == 0 {
		t.Errorf("stats recorded no delta ads: %+v", st)
	}
}
