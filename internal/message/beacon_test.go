// Discovery-hint tests: what the plain-text beacon carries as stores grow,
// that a bounded hint still gets a first contact dialled, and that a
// forged beacon entry costs a bounded amount of work.
package message_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/store"
	"sos/internal/wire"
)

// adRecorder wraps a Medium and keeps every payload its endpoints hand to
// SetAdvertisement: the bytes a radio would put on the air per refresh.
type adRecorder struct {
	inner mpc.Medium

	mu  sync.Mutex
	ads []recordedAd
}

// recordedAd is one hint refresh and the device that published it.
type recordedAd struct {
	peer mpc.PeerID
	raw  []byte
}

func (r *adRecorder) Join(peer mpc.PeerID, events mpc.Events) (mpc.Endpoint, error) {
	ep, err := r.inner.Join(peer, events)
	if err != nil {
		return nil, err
	}
	return &recordingEndpoint{Endpoint: ep, rec: r}, nil
}

type recordingEndpoint struct {
	mpc.Endpoint
	rec *adRecorder
}

func (ep *recordingEndpoint) SetAdvertisement(ad []byte) {
	ep.rec.mu.Lock()
	ep.rec.ads = append(ep.rec.ads, recordedAd{ep.Self(), bytes.Clone(ad)})
	ep.rec.mu.Unlock()
	ep.Endpoint.SetAdvertisement(ad)
}

// adBytes returns the total size of the beacons recorded so far.
func (r *adRecorder) adBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ad := range r.ads {
		n += len(ad.raw)
	}
	return n
}

// refreshes counts the hint refreshes peer has published so far.
func (r *adRecorder) refreshes(peer mpc.PeerID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ad := range r.ads {
		if ad.peer == peer {
			n++
		}
	}
	return n
}

// last decodes the most recent beacon peer published.
func (r *adRecorder) last(t *testing.T, peer mpc.PeerID) (*wire.Advertisement, int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var raw []byte
	for _, ad := range r.ads {
		if ad.peer == peer {
			raw = ad.raw
		}
	}
	if raw == nil {
		t.Fatalf("no beacon recorded from %s", peer)
	}
	f, err := wire.Decode(raw)
	if err != nil {
		t.Fatalf("decoding beacon: %v", err)
	}
	ad, ok := f.(*wire.Advertisement)
	if !ok {
		t.Fatalf("beacon is a %T, want *wire.Advertisement", f)
	}
	return ad, len(raw)
}

func historyPost(author id.UserID, seq uint64) *msg.Message {
	return &msg.Message{Author: author, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0)}
}

// preload puts one message by each of n distinct history authors.
func preload(t *testing.T, st store.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := st.Put(historyPost(id.NewUserID(fmt.Sprintf("history-%05d", i)), 1)); err != nil {
			t.Fatal(err)
		}
	}
}

// beaconFixture is one real message manager over a store preloaded with
// the given number of authors, alone on a medium that records its beacons.
func beaconFixture(t *testing.T, authors int) (*message.Manager, *store.Store, *adRecorder) {
	t.Helper()
	w := newWorld(t)
	rec := &adRecorder{inner: w.medium}
	alice := w.realPeer(t, rec, "alice", message.Config{})
	preload(t, alice.st, authors)
	return alice.mgr, alice.st, rec
}

// TestBeaconHintBounded: past MaxBeaconSummary authors the beacon carries
// only the most recent changes, whatever the store holds.
func TestBeaconHintBounded(t *testing.T) {
	mgr, st, rec := beaconFixture(t, 1000)
	newest := id.NewUserID("newest-writer")
	if _, err := st.Put(historyPost(newest, 3)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	ad, size := rec.last(t, "alice-phone")
	if len(ad.Summary) == 0 || len(ad.Summary) > message.MaxBeaconSummary {
		t.Errorf("beacon carries %d entries, want 1..%d", len(ad.Summary), message.MaxBeaconSummary)
	}
	if ad.Summary[newest] != 3 {
		t.Errorf("beacon entry for the newest change = %d, want 3", ad.Summary[newest])
	}
	if size > 700 {
		t.Errorf("beacon encodes to %d B, want <= 700", size)
	}
	if ad.Gen != st.Generation() {
		t.Errorf("beacon gen = %d, want %d", ad.Gen, st.Generation())
	}
}

// TestBeaconFullWhenItFits: a store of at most MaxBeaconSummary authors
// still beacons its whole dictionary.
func TestBeaconFullWhenItFits(t *testing.T) {
	mgr, st, rec := beaconFixture(t, message.MaxBeaconSummary)
	if _, err := st.Put(historyPost(id.NewUserID("history-00007"), 9)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	ad, _ := rec.last(t, "alice-phone")
	if !reflect.DeepEqual(ad.Summary, st.Summary()) {
		t.Errorf("beacon carries %d entries, want the full %d-entry summary", len(ad.Summary), st.SummarySize())
	}
}

// TestBeaconBytesIndependentOfStoreSize: the same run of store changes
// puts the same bytes on the air from a 100-author and from a
// 10 000-author store.
func TestBeaconBytesIndependentOfStoreSize(t *testing.T) {
	const puts = 40
	perPut := func(authors int) int {
		mgr, st, rec := beaconFixture(t, authors)
		if err := mgr.Advertise(); err != nil {
			t.Fatalf("Advertise: %v", err)
		}
		before := rec.adBytes()
		for i := 0; i < puts; i++ {
			// Alternate a returning writer with first-time ones.
			author := id.NewUserID("regular")
			if i%2 == 1 {
				author = id.NewUserID(fmt.Sprintf("newcomer-%d", i))
			}
			if _, err := st.Put(historyPost(author, uint64(i+1))); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Advertise(); err != nil {
				t.Fatalf("Advertise: %v", err)
			}
		}
		return (rec.adBytes() - before) / puts
	}
	small, large := perPut(100), perPut(10_000)
	if small != large || small == 0 {
		t.Errorf("beacon bytes per Put: %d at 100 authors, %d at 10 000, want equal and non-zero", small, large)
	}
}

// TestColdDrainDialsOnHint is the cold-drain shape: both sides hold the
// same 10 000-author history, the sender also a backlog by 16 writers the
// fresh node has never heard of. The sender's beacon names only the last
// few of them; that must be enough for the fresh node to dial, and the
// in-session summary then moves the whole backlog.
func TestColdDrainDialsOnHint(t *testing.T) {
	const authors, writers, each = 10_000, 16, 16
	w := newWorld(t)
	node := func(handle string, backlog []*msg.Message) *liveNode {
		creds := w.bootstrap(t, handle)
		st := store.New(creds.Ident.User)
		preload(t, st, authors)
		for _, m := range backlog {
			if _, err := st.Put(m); err != nil {
				t.Fatal(err)
			}
		}
		return w.startLiveNode(t, w.medium, creds, st)
	}

	var backlog []*msg.Message
	for a := 0; a < writers; a++ {
		writer := w.bootstrap(t, fmt.Sprintf("writer-%d", a))
		for seq := uint64(1); seq <= each; seq++ {
			m := &msg.Message{
				Author: writer.Ident.User, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0),
				Payload: []byte("backlog"), CertDER: writer.Cert.DER,
			}
			if err := m.Sign(writer.Ident); err != nil {
				t.Fatalf("Sign: %v", err)
			}
			backlog = append(backlog, m)
		}
	}
	sender := node("sender", backlog).mw
	fresh := node("fresh", nil)
	w.expect(t, "the backlog to drain to the fresh node", func() bool {
		fresh.mu.Lock()
		defer fresh.mu.Unlock()
		return len(fresh.received) == len(backlog)
	})
	if n := fresh.mw.Stats().Message.ConnectsAttempted; n == 0 {
		t.Error("the fresh node never dialled on the beacon hint")
	}
	if n := sender.Stats().Message.ConnectsAttempted; n != 0 {
		t.Errorf("the sender dialled %d times; the fresh node's beacon offers it nothing", n)
	}
}

// TestForgedBeaconEntryIsBounded feeds a forged dictionary entry — an
// author at sequence 1<<62 — through the unauthenticated beacon and then
// in session. Planning against it must stay bounded, and the request it
// produces must fit the wire (one Want carries at most MaxSeqsPerWant
// sequences) instead of failing to encode and vanishing.
func TestForgedBeaconEntryIsBounded(t *testing.T) {
	h := newSyncHarnessWith(t, message.Config{AutoConnect: true}, nil)
	ghost := id.NewUserID("ghost")
	forged := &wire.Advertisement{Peer: "bob-phone", Gen: 1, Summary: map[id.UserID]uint64{ghost: 1 << 62}}
	if err := h.bobAd.Advertise(forged); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	// The beacon offers something, so alice dials.
	h.expect(t, "alice to dial on the forged beacon", func() bool { return h.bob.linkCount() == 1 })
	if err := sendFrame(h.bob.link(0), &wire.Summary{Gen: forged.Gen, Entries: entriesOf(forged.Summary)}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	// The want-list leaves in several frames (wire.MaxSeqsPerRequest each).
	h.run()
	if n := h.bob.requestedSeqs(ghost); n != wire.MaxSeqsPerWant {
		t.Errorf("alice requested %d sequences of the forged author, want %d", n, wire.MaxSeqsPerWant)
	}
	if store.MaxMissing != wire.MaxSeqsPerWant {
		t.Errorf("store.MaxMissing = %d, want wire.MaxSeqsPerWant = %d", store.MaxMissing, wire.MaxSeqsPerWant)
	}
}

// TestForgedHintCostsOneSequencePerEntry: the dial decision on a beacon is
// a yes or no, so a full hint of forged entries — every one an unknown
// author at sequence 1<<62 — must cost a few kilobytes, not a
// 65 535-sequence want-list per entry (≈ 80 MB for the whole hint).
func TestForgedHintCostsOneSequencePerEntry(t *testing.T) {
	mgr, _, _ := beaconFixture(t, 0) // epidemic wants everything; AutoConnect off
	forged := &wire.Advertisement{Peer: "mallory-phone", Gen: 1, Summary: make(map[id.UserID]uint64)}
	for i := 0; i < message.MaxBeaconSummary; i++ {
		forged.Summary[id.NewUserID(fmt.Sprintf("ghost-%02d", i))] = 1 << 62
	}
	const budget = 64 << 10
	least := uint64(math.MaxUint64)
	for run := 0; run < 3; run++ { // the least of three shrugs off a stray allocation elsewhere
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mgr.PeerDiscovered("mallory-phone", forged)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= budget {
		t.Errorf("a %d-entry forged hint allocated %d B, want < %d", message.MaxBeaconSummary, least, budget)
	}
}

// TestHintInSessionIsIgnored: the discovery hint is a plain-text frame; one
// that arrives inside a session reaches no view, is planned against by
// nobody and scores nothing — the session goes on as if it had not come.
func TestHintInSessionIsIgnored(t *testing.T) {
	h := newSyncHarness(t)
	link := h.connect(t, h.bobAd, h.bob)
	first, hinted, second := id.NewUserID("first-author"), id.NewUserID("hinted-author"), id.NewUserID("second-author")
	if err := sendFrame(link, &wire.Summary{Gen: 5, Entries: entriesOf(map[id.UserID]uint64{first: 1})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "request against the full summary", func() bool { return h.bob.requested(first) })

	if err := sendFrame(link, &wire.Advertisement{Peer: "bob-phone", Gen: 6, Summary: map[id.UserID]uint64{hinted: 4}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	// The session is in order: once the delta after the hint is planned
	// against, the hint has been handled.
	if err := sendFrame(link, &wire.Summary{Gen: 7, BaseGen: 5, Entries: entriesOf(map[id.UserID]uint64{second: 1})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "request against the delta", func() bool { return h.bob.requested(second) })

	if h.bob.requested(hinted) {
		t.Error("alice planned against a hint sent inside the session")
	}
	if _, _, entries := h.mgr.SyncState(); entries != 2 {
		t.Errorf("view holds %d entries, want 2 (the full and the delta, not the hint)", entries)
	}
	if st := h.mgr.Stats(); st.MisbehaviorEvents != 0 || st.SummaryPullsSent != 0 {
		t.Errorf("the in-session hint cost %d misbehavior events and %d summary pulls, want 0 and 0", st.MisbehaviorEvents, st.SummaryPullsSent)
	}
	if len(h.mgr.ActiveLinks()) != 1 {
		t.Error("the link did not survive an in-session hint")
	}
}
