package message

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"sos/internal/adhoc"
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
// to 3, linked over a MemMedium to a quiet peer, with its side of the
// link and the peer's slot. The peer's greeting is in: its view is empty
// and reaches generation 5.
func linkedManager(t *testing.T, author id.UserID) (*Manager, *adhoc.Link, *peerSync) {
	t.Helper()
	ca, err := pki.NewCA("root")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	svc := cloud.New(ca)
	creds, err := cloud.Bootstrap(svc, "near", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	farCreds, err := cloud.Bootstrap(svc, "far", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := store.New(creds.Ident.User)
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	cfg := Config{Store: st, Routing: rm, Verifier: verifier}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := cfg.Store.Put(&msg.Message{Author: author, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	medium := mpc.NewMemMedium()
	near, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "near", Ident: creds.Ident,
		CertDER: creds.Cert.DER, Verifier: cfg.Verifier, Handler: m,
	})
	if err != nil {
		t.Fatalf("adhoc.New(near): %v", err)
	}
	t.Cleanup(func() { near.Close() })
	far, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "far", Ident: farCreds.Ident,
		CertDER: farCreds.Cert.DER, Verifier: cfg.Verifier, Handler: quietPeer{},
	})
	if err != nil {
		t.Fatalf("adhoc.New(far): %v", err)
	}
	t.Cleanup(func() { far.Close() })
	if err := far.Connect("near"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	var ps *peerSync
	for range 5000 {
		m.mu.Lock()
		ps = m.peers["far"]
		m.mu.Unlock()
		if ps != nil && ps.link != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if ps == nil || ps.link == nil {
		t.Fatal("no link")
	}
	m.FrameIn(ps.link, &wire.Summary{Gen: 5})
	return m, ps.link, ps
}

// TestPlanHeldViewAllocBudget: planning a view the node already
// holds, as the sending side of every steady delta does, asks the scheme
// and allocates nothing.
func TestPlanHeldViewAllocBudget(t *testing.T) {
	author := id.NewUserID("held-author")
	m, _, ps := linkedManager(t, author)
	view := map[id.UserID]uint64{author: 3}
	var sends []outgoingPlan
	allocs := testing.AllocsPerRun(200, func() {
		m.mu.Lock()
		sends = m.planLocked([]peerView{{ps, view}})
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
