// Chunked full-sync tests: a store too large for one summary frame
// streams as bounded chunks that interleave with data-plane Batch frames,
// and the striped summary index sustains concurrent sync on several
// links. These ride the same live-medium harness pieces as sync_test.go.
package message_test

import (
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
	"sos/internal/wire"
)

// throttledMedium wraps a Medium so every outbound frame of a wrapped
// endpoint takes a fixed transmit time, simulating a bandwidth-bound
// radio. MemMedium sends are instant, which would let a chunked summary
// stream finish before the peer's first Request even arrives; with the
// throttle, frame order on the link reflects genuine interleaving at the
// sender.
type throttledMedium struct {
	inner mpc.Medium
	delay time.Duration
}

func (m *throttledMedium) Join(peer mpc.PeerID, events mpc.Events) (mpc.Endpoint, error) {
	te := &throttledEvents{inner: events, delay: m.delay, conns: make(map[mpc.Conn]*throttledConn)}
	ep, err := m.inner.Join(peer, te)
	if err != nil {
		return nil, err
	}
	return &throttledEndpoint{inner: ep, events: te}, nil
}

type throttledEndpoint struct {
	inner  mpc.Endpoint
	events *throttledEvents
}

func (ep *throttledEndpoint) Self() mpc.PeerID           { return ep.inner.Self() }
func (ep *throttledEndpoint) SetAdvertisement(ad []byte) { ep.inner.SetAdvertisement(ad) }
func (ep *throttledEndpoint) Close() error               { return ep.inner.Close() }
func (ep *throttledEndpoint) Connect(peer mpc.PeerID) (mpc.Conn, error) {
	c, err := ep.inner.Connect(peer)
	if err != nil {
		return nil, err
	}
	return ep.events.wrap(c), nil
}

// throttledEvents preserves Conn identity: the adhoc manager keys its
// connection table by the Conn value, so Incoming, Received, and
// Disconnected must all surface the same wrapper for one inner Conn.
type throttledEvents struct {
	inner mpc.Events
	delay time.Duration

	mu    sync.Mutex
	conns map[mpc.Conn]*throttledConn
}

func (e *throttledEvents) wrap(c mpc.Conn) *throttledConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tc, ok := e.conns[c]; ok {
		return tc
	}
	tc := &throttledConn{inner: c, delay: e.delay}
	e.conns[c] = tc
	return tc
}

func (e *throttledEvents) PeerFound(peer mpc.PeerID, ad []byte) { e.inner.PeerFound(peer, ad) }
func (e *throttledEvents) PeerLost(peer mpc.PeerID)             { e.inner.PeerLost(peer) }
func (e *throttledEvents) Incoming(conn mpc.Conn)               { e.inner.Incoming(e.wrap(conn)) }
func (e *throttledEvents) Received(conn mpc.Conn, frame []byte) {
	e.inner.Received(e.wrap(conn), frame)
}
func (e *throttledEvents) Disconnected(conn mpc.Conn, reason error) {
	tc := e.wrap(conn)
	e.mu.Lock()
	delete(e.conns, conn)
	e.mu.Unlock()
	e.inner.Disconnected(tc, reason)
}

type throttledConn struct {
	inner mpc.Conn
	delay time.Duration
}

func (c *throttledConn) Peer() mpc.PeerID { return c.inner.Peer() }
func (c *throttledConn) Initiator() bool  { return c.inner.Initiator() }
func (c *throttledConn) Close() error     { return c.inner.Close() }
func (c *throttledConn) Send(frame []byte) error {
	time.Sleep(c.delay)
	return c.inner.Send(frame)
}

// requestingCapture is a scripted peer that, on the first chunk of a
// full-summary stream, immediately requests a few advertised messages —
// the behaviour a real manager shows, minus verification.
type requestingCapture struct {
	frameCapture
	once sync.Once
}

func (c *requestingCapture) FrameIn(link *adhoc.Link, f wire.Frame) {
	if ad, ok := f.(*wire.Summary); ok && !ad.IsDelta() && ad.Chunk == 0 {
		c.once.Do(func() {
			var wants []wire.Want
			for _, e := range ad.Entries {
				wants = append(wants, wire.Want{Author: e.Author, Seqs: []uint64{e.Seq}})
				if len(wants) >= 4 {
					break
				}
			}
			_ = sendFrame(link, &wire.Request{Wants: wants})
		})
	}
	c.frameCapture.FrameIn(link, f)
}

// scriptedPeer builds an adhoc manager for a scripted handler.
func scriptedPeer(t *testing.T, medium mpc.Medium, svc *cloud.Service, handle, device string, h adhoc.Handler) *adhoc.Manager {
	t.Helper()
	creds, err := cloud.Bootstrap(svc, handle, rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	ad, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: mpc.PeerID(device), Ident: creds.Ident,
		CertDER: creds.Cert.DER, Verifier: verifier, Handler: h,
	})
	if err != nil {
		t.Fatalf("adhoc.New(%s): %v", device, err)
	}
	t.Cleanup(func() { ad.Close() })
	return ad
}

// TestChunkedFullSyncInterleavesBatches pins the acceptance bound of the
// streaming full sync: against a 100k-author store, a fresh peer that
// requests messages after the first summary chunk receives its first
// Batch before the sender finishes emitting the full summary — data flows
// mid-stream instead of after a monolithic dictionary transfer.
func TestChunkedFullSyncInterleavesBatches(t *testing.T) {
	const authors = 100_000
	medium, svc := newLiveWorld(t)
	throttled := &throttledMedium{inner: medium, delay: 2 * time.Millisecond}

	aliceCreds, err := cloud.Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := store.New(aliceCreds.Ident.User)
	for i := 0; i < authors; i++ {
		if _, err := st.Put(&msg.Message{
			Author: id.NewUserID(fmt.Sprintf("chunky-%06d", i)), Seq: 1,
			Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("routing.NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(aliceCreds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mgr, err := message.New(message.Config{Store: st, Routing: rm, Verifier: verifier})
	if err != nil {
		t.Fatalf("message.New: %v", err)
	}
	aliceAd, err := adhoc.New(adhoc.Config{
		Medium: throttled, PeerName: "alice-phone", Ident: aliceCreds.Ident,
		CertDER: aliceCreds.Cert.DER, Verifier: verifier, Handler: mgr,
	})
	if err != nil {
		t.Fatalf("adhoc.New(alice): %v", err)
	}
	t.Cleanup(func() { aliceAd.Close() })

	bob := &requestingCapture{}
	bobAd := scriptedPeer(t, medium, svc, "bob", "bob-phone", bob)
	if err := bobAd.Connect(aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}

	waitFor(t, "complete summary stream", func() bool {
		for _, ad := range bob.ads() {
			if ad.Chunk > 0 && !ad.More {
				return true
			}
		}
		return false
	})

	// Replay bob's frame log: the first Batch must precede the final
	// summary chunk, and the chunks together must cover the dictionary.
	// (Captured Batch contents alias reused decode scratch; only the frame
	// type and position are examined.)
	bob.mu.Lock()
	firstBatch, finalChunk := -1, -1
	covered := make(map[id.UserID]uint64, authors)
	for i, f := range bob.frames {
		switch fr := f.(type) {
		case *wire.Batch:
			if firstBatch < 0 {
				firstBatch = i
			}
		case *wire.Summary:
			if fr.IsDelta() {
				continue
			}
			for _, e := range fr.Entries {
				if e.Seq > covered[e.Author] {
					covered[e.Author] = e.Seq
				}
			}
			if fr.Chunk > 0 && !fr.More {
				finalChunk = i
			}
		}
	}
	bob.mu.Unlock()

	if firstBatch < 0 {
		t.Fatal("no Batch received during the summary stream")
	}
	if finalChunk < 0 {
		t.Fatal("no final summary chunk received")
	}
	if firstBatch > finalChunk {
		t.Errorf("first Batch arrived at frame %d, after the final summary chunk at frame %d; want data interleaved with the stream",
			firstBatch, finalChunk)
	}
	if len(covered) != authors {
		t.Errorf("summary stream covered %d authors, want %d", len(covered), authors)
	}
	stats := mgr.Stats()
	wantChunks := uint64((authors + message.SummaryChunkEntries - 1) / message.SummaryChunkEntries)
	if stats.SummaryChunksSent != wantChunks {
		t.Errorf("SummaryChunksSent = %d, want %d", stats.SummaryChunksSent, wantChunks)
	}
	if stats.BatchesSent == 0 {
		t.Error("no batches served")
	}
	if stats.SummaryBytesSent == 0 || stats.PayloadBytesSent == 0 {
		t.Errorf("byte-plane split not populated: summary=%d payload=%d",
			stats.SummaryBytesSent, stats.PayloadBytesSent)
	}
}

// TestDisjointStripeConcurrentSync drives two links syncing disjoint
// author stripes concurrently: two writers bump authors confined to two
// different summary stripes while both scripted peers keep pulling full
// (chunked) summaries and receiving deltas. Both peers must converge on
// every writer's final high-water mark; run under -race this exercises
// the striped index's copy-on-write snapshots against live Puts.
func TestDisjointStripeConcurrentSync(t *testing.T) {
	const (
		perSide  = 8
		finalSeq = uint64(40)
	)
	left, right := disjointStripeAuthors(t, perSide)

	medium, svc := newLiveWorld(t)
	aliceCreds, err := cloud.Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := store.New(aliceCreds.Ident.User)
	// Enough filler that every full sync streams as chunks.
	for i := 0; i < message.SummaryChunkEntries+2000; i++ {
		if _, err := st.Put(&msg.Message{
			Author: id.NewUserID(fmt.Sprintf("filler-%05d", i)), Seq: 1,
			Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range append(append([]id.UserID{}, left...), right...) {
		if _, err := st.Put(&msg.Message{
			Author: a, Seq: 1, Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("routing.NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(aliceCreds.RootDER, time.Now)
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

	bob := &frameCapture{}
	bobAd := scriptedPeer(t, medium, svc, "bob", "bob-phone", bob)
	carol := &frameCapture{}
	carolAd := scriptedPeer(t, medium, svc, "carol", "carol-phone", carol)
	if err := bobAd.Connect(aliceAd.Self()); err != nil {
		t.Fatalf("Connect(bob): %v", err)
	}
	if err := carolAd.Connect(aliceAd.Self()); err != nil {
		t.Fatalf("Connect(carol): %v", err)
	}
	waitFor(t, "bob link", func() bool { return bob.linkCount() > 0 })
	waitFor(t, "carol link", func() bool { return carol.linkCount() > 0 })

	var wg sync.WaitGroup
	writer := func(authors []id.UserID) {
		defer wg.Done()
		for seq := uint64(2); seq <= finalSeq; seq++ {
			for _, a := range authors {
				if _, err := st.Put(&msg.Message{
					Author: a, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0),
				}); err != nil {
					t.Error(err)
					return
				}
			}
			_ = mgr.Advertise() // pushes deltas on both links
		}
	}
	puller := func(c *frameCapture) {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			_ = sendFrame(c.link(0), &wire.SummaryPull{})
			time.Sleep(time.Millisecond)
		}
	}
	wg.Add(4)
	go writer(left)
	go writer(right)
	go puller(bob)
	go puller(carol)
	wg.Wait()

	// One quiescent full sync: this stream is never cancelled, so both
	// peers can reconstruct the final view from everything they saw.
	_ = mgr.Advertise()
	_ = sendFrame(bob.link(0), &wire.SummaryPull{})
	_ = sendFrame(carol.link(0), &wire.SummaryPull{})

	converged := func(c *frameCapture) func() bool {
		return func() bool {
			view := make(map[id.UserID]uint64)
			for _, ad := range c.ads() {
				for _, e := range ad.Entries {
					if e.Seq > view[e.Author] {
						view[e.Author] = e.Seq
					}
				}
			}
			for _, a := range append(append([]id.UserID{}, left...), right...) {
				if view[a] != finalSeq {
					return false
				}
			}
			return true
		}
	}
	waitFor(t, "bob converges", converged(bob))
	waitFor(t, "carol converges", converged(carol))
}

// disjointStripeAuthors derives two author sets of size n whose summary
// stripes do not overlap, by classifying probe authors through a scratch
// store's stripe snapshots (no dependence on the stripe function itself).
func disjointStripeAuthors(t *testing.T, n int) (left, right []id.UserID) {
	t.Helper()
	probe := store.New(id.NewUserID("stripe-prober"))
	for i := 0; i < 64*n; i++ {
		if _, err := probe.Put(&msg.Message{
			Author: id.NewUserID(fmt.Sprintf("stripe-probe-%d", i)), Seq: 1,
			Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < probe.SummaryStripes(); s++ {
		var authors []id.UserID
		for a := range probe.SummaryStripe(s) {
			authors = append(authors, a)
		}
		if len(authors) < n {
			continue
		}
		if left == nil {
			left = authors[:n]
		} else {
			return left, authors[:n]
		}
	}
	t.Fatalf("could not find two stripes with %d authors each", n)
	return nil, nil
}
