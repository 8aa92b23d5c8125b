package message

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
	"sos/internal/wire"
)

// quietPeer is an ad hoc handler that does nothing: the far end of a link
// whose near end a test drives by hand.
type quietPeer struct{}

func (quietPeer) Bind(*adhoc.Manager)                            {}
func (quietPeer) PeerDiscovered(mpc.PeerID, *wire.Advertisement) {}
func (quietPeer) PeerGone(mpc.PeerID)                            {}
func (quietPeer) LinkUp(*adhoc.Link)                             {}
func (quietPeer) FrameIn(*adhoc.Link, wire.Frame)                {}
func (quietPeer) LinkDown(*adhoc.Link, error)                    {}

// linkedManager returns a manager whose store holds author's messages 1
// to 3, linked over a SimMedium to a quiet peer, with its side of the
// link and the peer's slot. The peer's greeting is in: its view is empty
// and reaches generation 5.
func linkedManager(t *testing.T, author id.UserID) (*Manager, *adhoc.Link, *peerSync) {
	t.Helper()
	m, links := linkedTo(t, author, store.Options{}, "far")
	return m, links[0], m.peers["far"]
}

// linkedTo is linkedManager over a store built with opts, linked to one
// quiet peer per name in fars; it returns the manager's side of each link.
func linkedTo(t *testing.T, author id.UserID, opts store.Options, fars ...mpc.PeerID) (*Manager, []*adhoc.Link) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2017, 4, 3, 9, 0, 0, 0, time.UTC))
	ca, err := pki.NewCA("root", pki.WithClock(clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	svc := cloud.New(ca, cloud.WithClock(clk.Now))
	creds, err := cloud.Bootstrap(svc, "near", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := store.NewMemory(creds.Ident.User, opts)
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	cfg := Config{Store: st, Routing: rm, Verifier: verifier, Clock: clk}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := cfg.Store.Put(&msg.Message{Author: author, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	medium := mpc.NewSimMedium(clk)
	near, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "near", Ident: creds.Ident,
		CertDER: creds.Cert.DER, Verifier: cfg.Verifier, Handler: m, Clock: clk,
	})
	if err != nil {
		t.Fatalf("adhoc.New(near): %v", err)
	}
	t.Cleanup(func() { near.Close() })
	var links []*adhoc.Link
	for _, name := range fars {
		farCreds, err := cloud.Bootstrap(svc, string(name), rand.Reader)
		if err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
		far, err := adhoc.New(adhoc.Config{
			Medium: medium, PeerName: name, Ident: farCreds.Ident,
			CertDER: farCreds.Cert.DER, Verifier: cfg.Verifier, Handler: quietPeer{}, Clock: clk,
		})
		if err != nil {
			t.Fatalf("adhoc.New(%s): %v", name, err)
		}
		t.Cleanup(func() { far.Close() })
		medium.SetLink("near", name, mpc.Bluetooth)
		if err := far.Connect("near"); err != nil {
			t.Fatalf("Connect: %v", err)
		}
		medium.RunUntil(clk.Now().Add(time.Hour))
		ps := m.peers[name]
		if ps == nil || ps.link == nil {
			t.Fatalf("no link to %s", name)
		}
		m.FrameIn(ps.link, &wire.Summary{Gen: 5})
		links = append(links, ps.link)
	}
	return m, links
}

// TestPlanHeldViewAllocBudget: planning a view the node already
// holds, as the sending side of every steady delta does, stops at the
// floor pass and allocates nothing.
func TestPlanHeldViewAllocBudget(t *testing.T) {
	author := id.NewUserID("held-author")
	m, _, ps := linkedManager(t, author)
	view := []wire.Entry{{Author: author, Seq: 3}}
	var sends []outgoingPlan
	allocs := testing.AllocsPerRun(200, func() {
		m.mu.Lock()
		sends = m.planLocked([]peerView{{ps: ps, entries: view}})
		m.mu.Unlock()
	})
	if len(sends) != 0 {
		t.Fatalf("planning a held view planned %d requests", len(sends))
	}
	if allocs != 0 {
		t.Errorf("planning a held view: %.1f allocs, want 0", allocs)
	}
}

// TestSummaryPlaneAllocBudget bounds the steady summary plane on the
// receiving side: a one-entry delta applied to the peer's view and
// planned through the manager's plan map. The entry is one the node
// holds, as on the sending side of every synced message.
func TestSummaryPlaneAllocBudget(t *testing.T) {
	author := id.NewUserID("delta-author")
	m, link, ps := linkedManager(t, author)
	// The frames are built first, as the decoder hands them over: what is
	// measured is the manager's share. AllocsPerRun makes one warm-up run.
	const runs = 200
	frames := make([]*wire.Summary, runs+1)
	for i := range frames {
		gen := 6 + uint64(i)
		frames[i] = &wire.Summary{Gen: gen, BaseGen: gen - 1, Entries: []wire.Entry{{Author: author, Seq: 3}}}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m.FrameIn(link, frames[next])
		next++
	})
	gen := frames[runs].Gen
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps.recvGen != gen || ps.summary[author] != 3 || len(m.planView) != 0 {
		t.Fatalf("after the deltas: recvGen %d (want %d), view %v, plan map %d entries (want 0)",
			ps.recvGen, gen, ps.summary, len(m.planView))
	}
	if st := m.stats; st.SummaryPullsSent != 0 || st.RequestsSent != 0 {
		t.Fatalf("a held, gap-free delta sent %d pulls and %d requests", st.SummaryPullsSent, st.RequestsSent)
	}
	if allocs > 0 {
		t.Errorf("applying and planning a one-entry delta: %.1f allocs, budget 0", allocs)
	}
}

// TestChunkStreamDeterministic: the chunk stream is a function of the
// store, so two streams of one store put the same frames on the wire.
func TestChunkStreamDeterministic(t *testing.T) {
	cfg, _ := fixture(t)
	for i := 0; i < 10_000; i++ {
		if _, err := cfg.Store.Put(&msg.Message{
			Author: id.NewUserID(fmt.Sprintf("stream-author-%05d", i)), Seq: 1 + uint64(i%7),
			Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	stream := func() [][]byte {
		var frames [][]byte
		ch := newSummaryChunker(cfg.Store)
		for chunk, more := uint32(0), true; more; chunk++ {
			var entries []wire.Entry
			entries, more = ch.next()
			enc, err := wire.Encode(&wire.Summary{Gen: 9, Chunk: chunk, More: more, Entries: entries})
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			frames = append(frames, enc)
		}
		return frames
	}
	first, second := stream(), stream()
	if want := (10_000 + SummaryChunkEntries - 1) / SummaryChunkEntries; len(first) != want {
		t.Fatalf("stream of %d frames, want %d", len(first), want)
	}
	if len(second) != len(first) {
		t.Fatalf("streams of %d and %d frames", len(first), len(second))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("frame %d differs between two streams of one store", i)
		}
	}
}

// floorWitness is epidemic routing that records what Wants is handed:
// every call, and every entry the store already covers (Missing is
// empty for it), which the floor pass should have kept from the scheme.
type floorWitness struct {
	routing.Scheme
	st store.Engine

	mu     sync.Mutex
	calls  int
	seen   map[id.UserID]bool
	behind []wire.Entry
}

func (f *floorWitness) Wants(summary map[id.UserID]uint64) []wire.Want {
	f.mu.Lock()
	f.calls++
	for author, seq := range summary {
		f.seen[author] = true
		if len(f.st.Missing(author, seq)) == 0 {
			f.behind = append(f.behind, wire.Entry{Author: author, Seq: seq})
		}
	}
	f.mu.Unlock()
	return f.Scheme.Wants(summary)
}

// useFloorWitness makes a floorWitness m's active scheme.
func useFloorWitness(t *testing.T, m *Manager) *floorWitness {
	t.Helper()
	f := &floorWitness{st: m.cfg.Store, seen: make(map[id.UserID]bool)}
	if err := m.cfg.Routing.Register("floor-witness", func(v routing.StoreView, o routing.Options) routing.Scheme {
		f.Scheme = routing.NewEpidemic(v, o)
		return f
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.cfg.Routing.Use("floor-witness"); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWantsSeesOnlyEntriesPastTheFloor drives every planning path — a
// full summary's chunk 0 and a continuation chunk, a delta held while a
// Request is out and planned when the Batch lands, a delta planned on
// arrival, the heartbeat's and LinkDown's re-plans over complete views,
// and the discovery hint — with frames that mix entries the node already
// covers and entries it lacks. The scheme is asked on each path, sees
// each lacking author, and is never handed a covered entry.
func TestWantsSeesOnlyEntriesPastTheFloor(t *testing.T) {
	held := id.NewUserID("floor-held")
	m, links := linkedTo(t, held, store.Options{}, "far", "other")
	f := useFloorWitness(t, m)
	lacking := func(i int) id.UserID { return id.NewUserID(fmt.Sprintf("floor-lacking-%d", i)) }
	step := func(name string, lack id.UserID, do func()) {
		t.Helper()
		f.mu.Lock()
		calls := f.calls
		f.mu.Unlock()
		do()
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.calls == calls {
			t.Errorf("%s: the scheme was not asked", name)
		}
		if lack != (id.UserID{}) && !f.seen[lack] {
			t.Errorf("%s: the scheme never saw %v, which the node lacks", name, lack)
		}
		if len(f.behind) > 0 {
			t.Errorf("%s: Wants was handed %d covered entries: %v", name, len(f.behind), f.behind)
			f.behind = nil
		}
	}
	far, other := links[0], links[1]
	step("chunk 0", lacking(0), func() {
		m.FrameIn(far, &wire.Summary{Gen: 10, More: true, Entries: sortedEntries(map[id.UserID]uint64{held: 3, lacking(0): 2})})
	})
	step("continuation chunk", lacking(1), func() {
		m.FrameIn(far, &wire.Summary{Gen: 10, Chunk: 1, Entries: sortedEntries(map[id.UserID]uint64{held: 2, lacking(1): 2})})
	})
	if asking, _ := m.Asking("far"); !asking {
		t.Fatal("no Request out to far after the stream")
	}
	m.FrameIn(far, &wire.Summary{Gen: 11, BaseGen: 10, Entries: sortedEntries(map[id.UserID]uint64{held: 3, lacking(2): 2})})
	if _, due := m.Asking("far"); due != 2 {
		t.Fatalf("a delta while asking left %d entries due, want 2", due)
	}
	step("due plan after a Batch", lacking(2), func() { m.FrameIn(far, &wire.Batch{}) })
	step("heartbeat re-plan", id.UserID{}, m.Tick)
	// The tick expired neither Request still out (none was out a full
	// interval); their answers let the next delta plan on arrival.
	m.FrameIn(far, &wire.Batch{})
	m.FrameIn(far, &wire.Batch{})
	step("delta on arrival", lacking(3), func() {
		m.FrameIn(far, &wire.Summary{Gen: 12, BaseGen: 11, Entries: sortedEntries(map[id.UserID]uint64{held: 1, lacking(3): 2})})
	})
	m.FrameIn(other, &wire.Summary{Gen: 6, BaseGen: 5, Entries: sortedEntries(map[id.UserID]uint64{held: 3, lacking(3): 2})})
	step("LinkDown re-plan", lacking(3), func() { _ = far.Close() })
	if got := m.Inflight()[msg.Ref{Author: lacking(3), Seq: 1}]; got != "other" {
		t.Errorf("after LinkDown, %v#1 is in flight to %q, want other", lacking(3), got)
	}
	step("discovery hint", lacking(4), func() {
		m.PeerDiscovered("stranger", &wire.Advertisement{Peer: "stranger", Summary: map[id.UserID]uint64{held: 3, lacking(4): 1}})
	})
}

// TestHeldChunkAllocBudget: a stream's last 4096-entry chunk of authors
// the node already covers, as a first contact between two nodes sharing
// a history streams, merges into the view and plans with no allocation:
// the floor pass keeps nothing, so no plan map grows and the scheme walks
// an empty one.
func TestHeldChunkAllocBudget(t *testing.T) {
	m, link, ps := linkedManager(t, id.NewUserID("chunk-author"))
	entries := make([]wire.Entry, SummaryChunkEntries)
	for i := range entries {
		author := id.NewUserID(fmt.Sprintf("chunk-author-%04d", i))
		if _, err := m.cfg.Store.Put(&msg.Message{Author: author, Seq: 1, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
			t.Fatal(err)
		}
		entries[i] = wire.Entry{Author: author, Seq: 1}
	}
	wire.SortEntries(entries)
	m.FrameIn(link, &wire.Summary{Gen: 9, More: true, Entries: entries})
	chunk := &wire.Summary{Gen: 9, Chunk: 1, Entries: entries}
	scanned := m.Stats().PlanEntriesScanned
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { m.FrameIn(link, chunk) })
	st := m.Stats()
	if got := st.PlanEntriesScanned - scanned; got != (runs+1)*SummaryChunkEntries {
		t.Errorf("planning read %d entries, want %d", got, (runs+1)*SummaryChunkEntries)
	}
	m.mu.Lock()
	viewed, planned := len(ps.summary), len(m.planView)
	m.mu.Unlock()
	if st.RequestsSent != 0 || viewed != SummaryChunkEntries || planned != 0 {
		t.Fatalf("a covered chunk: %d requests, view %d entries (want %d), plan map %d", st.RequestsSent, viewed, SummaryChunkEntries, planned)
	}
	if allocs != 0 {
		t.Errorf("merging and planning a covered %d-entry chunk: %.1f allocs, want 0", SummaryChunkEntries, allocs)
	}
}

// TestTickReplansAfterFloorReset: an author the node covered when the
// peer's summary arrived was not planned; once forgetting tombstones
// resets the store's floor, the next heartbeat re-plans the forgotten
// refs from the peer's complete view.
func TestTickReplansAfterFloorReset(t *testing.T) {
	// Twice the store's tombstone cap per author: the tombstone that
	// reaches it forgets the lower half.
	const forgetAfter = 8192
	author := id.NewUserID("reset-author")
	m, links := linkedTo(t, author, store.Options{MaxMessages: 1}, "far")
	for seq := uint64(4); seq <= forgetAfter; seq++ {
		if _, err := m.cfg.Store.Put(&msg.Message{Author: author, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	m.FrameIn(links[0], &wire.Summary{Gen: 9, Entries: []wire.Entry{{Author: author, Seq: forgetAfter}}})
	m.Tick()
	if n := len(m.Inflight()); n != 0 {
		t.Fatalf("a covered author put %d refs in flight", n)
	}
	// Tombstone number forgetAfter: refs 1..forgetAfter/2 are missing again.
	if _, err := m.cfg.Store.Put(&msg.Message{Author: author, Seq: forgetAfter + 1, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
		t.Fatal(err)
	}
	m.Tick()
	inflight := m.Inflight()
	if len(inflight) != forgetAfter/2 {
		t.Fatalf("after the floor reset the heartbeat put %d refs in flight, want %d", len(inflight), forgetAfter/2)
	}
	for seq := uint64(1); seq <= forgetAfter/2; seq++ {
		if peer := inflight[msg.Ref{Author: author, Seq: seq}]; peer != "far" {
			t.Fatalf("ref %d in flight to %q, want far", seq, peer)
		}
	}
}

// TestLinkUpEndsTheOlderLinksRequests: adhoc takes a link out before its
// LinkDown, so the peer's next link can come up first, and that LinkDown
// then finds nothing to unwind. The LinkUp ends the older link's Requests
// instead: their refs are aborted transfers, and no answer on the new
// link is matched against them.
func TestLinkUpEndsTheOlderLinksRequests(t *testing.T) {
	m, far, ps := linkedManager(t, id.NewUserID("held"))
	m.FrameIn(far, &wire.Summary{Gen: 6, BaseGen: 5, Entries: []wire.Entry{{Author: id.NewUserID("lacking"), Seq: 1}}})
	if len(ps.asks) != 1 || len(m.inflight) != 1 {
		t.Fatalf("%d Requests out holding %d refs, want 1 and 1", len(ps.asks), len(m.inflight))
	}
	m.LinkUp(far) // the peer's next link, the older one's LinkDown still to come
	if len(ps.asks) != 0 || len(m.inflight) != 0 {
		t.Errorf("after the next LinkUp %d Requests are out holding %d refs, want none", len(ps.asks), len(m.inflight))
	}
	if got := m.Stats().TransfersAborted; got != 1 {
		t.Errorf("TransfersAborted = %d, want 1", got)
	}
}

// TestPlanForAGoneLinkIsReleasedUnsent: a Request joins its link's asks
// when it is sent, so one planned for a link that drops before the send
// never joins them; its refs leave the ledger instead of staying there
// with nothing to settle them.
func TestPlanForAGoneLinkIsReleasedUnsent(t *testing.T) {
	m, far, ps := linkedManager(t, id.NewUserID("held"))
	m.mu.Lock()
	sends := m.planLocked([]peerView{{ps: ps, entries: []wire.Entry{{Author: id.NewUserID("lacking"), Seq: 1}}}})
	m.mu.Unlock()
	m.LinkDown(far, mpc.ErrPeerGone)
	m.sendPlans(sends)
	if st := m.Stats(); len(m.inflight) != 0 || len(ps.asks) != 0 || st.RequestsSent != 0 {
		t.Errorf("%d refs in flight, %d Requests out, %d sent; want none", len(m.inflight), len(ps.asks), st.RequestsSent)
	}
}
