// Chunked full-sync tests: a store too large for one summary frame
// leaves as bounded chunks, sent back to back, and the striped summary
// index sustains concurrent sync on several links.
package message_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/msg"
	"sos/internal/store"
	"sos/internal/wire"
)

// requestingCapture is a scripted peer that, on the first chunk of a
// full-summary stream, at once requests a few advertised messages — the
// behaviour a real manager shows, minus verification. It logs every frame
// it is handed with its virtual arrival time.
type requestingCapture struct {
	*frameCapture
	clk     clock.Clock
	asked   time.Time   // when its Request left
	arrived []time.Time // when each frame arrived, beside frameCapture.frames
	log     []string    // each frame's arrival offset from the first, and its encoding
}

func (c *requestingCapture) FrameIn(link *adhoc.Link, f wire.Frame) {
	now := c.clk.Now()
	c.arrived = append(c.arrived, now)
	enc, err := wire.Encode(f)
	if err != nil {
		panic(err)
	}
	c.log = append(c.log, fmt.Sprintf("%v %x", now.Sub(c.arrived[0]), enc))
	if ad, ok := f.(*wire.Summary); ok && !ad.IsDelta() && ad.Chunk == 0 && c.asked.IsZero() {
		var wants []wire.Want
		for _, e := range ad.Entries[:4] {
			wants = append(wants, wire.Want{Author: e.Author, Seqs: []uint64{e.Seq}})
		}
		_ = sendFrame(link, &wire.Request{Wants: wants})
		c.asked = now
	}
	c.frameCapture.FrameIn(link, f)
}

// TestChunkedFullSyncLeavesInline: a 10 000-author store greets a fresh
// peer over Bluetooth with a three-chunk full summary, sent inline and
// back to back. The chunks cover the dictionary and both byte planes are
// billed. The peer plans after the first chunk, so its Request leaves
// before the final chunk arrives; the link is FIFO, so the Batch that
// answers it arrives after that chunk. The contact replays: a second run
// logs the same frames at the same offsets.
func TestChunkedFullSyncLeavesInline(t *testing.T) {
	const authors = 10_000
	contact := func() (*requestingCapture, message.Stats) {
		w := newWorld(t)
		alice := w.realPeer(t, w.medium, "alice", message.Config{})
		for i := 0; i < authors; i++ {
			if _, err := alice.st.Put(historyPost(id.NewUserID(fmt.Sprintf("chunky-%05d", i)), 1)); err != nil {
				t.Fatal(err)
			}
		}
		bob := &requestingCapture{frameCapture: newFrameCapture(), clk: w.clk}
		bobAd, _ := w.scriptedPeer(t, w.medium, "bob", bob)
		if err := bobAd.Connect(alice.ad.Self()); err != nil {
			t.Fatalf("Connect: %v", err)
		}
		w.run()
		return bob, alice.mgr.Stats()
	}
	bob, stats := contact()

	firstBatch, finalChunk := -1, -1
	covered := make(map[id.UserID]uint64, authors)
	for i, f := range bob.frames {
		switch fr := f.(type) {
		case *wire.Batch:
			if firstBatch < 0 {
				firstBatch = i
			}
		case *wire.Summary:
			for _, e := range fr.Entries {
				covered[e.Author] = max(covered[e.Author], e.Seq)
			}
			if fr.Chunk > 0 && !fr.More {
				finalChunk = i
			}
		}
	}
	if finalChunk < 0 || firstBatch < 0 {
		t.Fatalf("frame log without a final chunk (%d) or a Batch (%d)", finalChunk, firstBatch)
	}
	if !bob.asked.Before(bob.arrived[finalChunk]) {
		t.Errorf("bob's Request left at %v, not before the final chunk arrived at %v: the receiver waited for the whole dictionary",
			bob.asked, bob.arrived[finalChunk])
	}
	if firstBatch < finalChunk {
		t.Errorf("the first Batch arrived at frame %d, before the final chunk at frame %d: the stream left first on a FIFO link", firstBatch, finalChunk)
	}
	if len(covered) != authors {
		t.Errorf("summary stream covered %d authors, want %d", len(covered), authors)
	}
	if stats.SummaryChunksSent != 3 {
		t.Errorf("SummaryChunksSent = %d, want 3", stats.SummaryChunksSent)
	}
	if stats.BatchesSent == 0 {
		t.Error("no batches served")
	}
	if stats.SummaryBytesSent == 0 || stats.PayloadBytesSent == 0 {
		t.Errorf("byte-plane split not populated: summary=%d payload=%d", stats.SummaryBytesSent, stats.PayloadBytesSent)
	}

	if again, _ := contact(); !slices.Equal(again.log, bob.log) {
		t.Errorf("two runs of one contact logged different frames (%d and %d of them)", len(bob.log), len(again.log))
	}
}

// TestChunkedViewFoldsLazily: alice plans each continuation chunk of
// bob's full summary from the chunk's own entries and keeps a copy of
// what would raise her view unread; the view takes the chunks in at its
// next reader, or once a frame's limit of entries waits unread.
func TestChunkedViewFoldsLazily(t *testing.T) {
	h := newSyncHarness(t)
	h.bob.holdAnswers() // an empty answer declines, and a decline reads the view
	link := h.connect(t, h.bobAd, h.bob)
	bob := h.bobAd.Self()
	slice := func(from, n int) []wire.Entry {
		dict := make(map[id.UserID]uint64, n)
		for i := from; i < from+n; i++ {
			dict[id.NewUserID(fmt.Sprintf("lazy-%06d", i))] = 1
		}
		entries := wire.AppendEntries(nil, dict)
		wire.SortEntries(entries)
		return entries
	}
	send := func(sums ...*wire.Summary) {
		t.Helper()
		for _, sum := range sums {
			if err := sendFrame(link, sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = message.SummaryChunkEntries
	chunk0 := slice(0, n)
	final := slice(2*n, 10)
	send(&wire.Summary{Gen: 9, Chunk: 0, More: true, Entries: chunk0},
		&wire.Summary{Gen: 9, Chunk: 1, More: true, Entries: slice(n, n)},
		&wire.Summary{Gen: 9, Chunk: 2, Entries: final})
	h.expect(t, "a Request planned from the final chunk", func() bool { return h.bob.requested(final[0].Author) })
	if folded, unread := h.mgr.View(bob); folded != n || unread != n+10 {
		t.Errorf("view after the stream: %d folded, %d unread; want chunk 0 folded and the rest unread", folded, unread)
	}
	if _, _, entries := h.mgr.SyncState(); entries != 2*n+10 {
		t.Errorf("SyncState reads %d view entries, want %d", entries, 2*n+10)
	}
	if folded, unread := h.mgr.View(bob); folded != 2*n+10 || unread != 0 {
		t.Errorf("view after a reader: %d folded, %d unread; want all folded", folded, unread)
	}

	// A chunk that raises nothing keeps nothing. Then a stream of new
	// authors up to the limit, and one more: the fold comes at the limit.
	// Alice follows none of them, so interest routing plans none.
	if err := h.rm.Use("interest"); err != nil {
		t.Fatal(err)
	}
	limit := wire.MaxSummaryEntries
	send(&wire.Summary{Gen: 10, Chunk: 0, More: true, Entries: chunk0},
		&wire.Summary{Gen: 10, Chunk: 1, More: true, Entries: chunk0})
	h.run()
	if folded, unread := h.mgr.View(bob); folded != n || unread != 0 {
		t.Errorf("after a covered chunk: %d folded, %d unread; want %d and none", folded, unread, n)
	}
	send(&wire.Summary{Gen: 10, Chunk: 2, More: true, Entries: slice(3*n, limit)})
	h.run()
	if folded, unread := h.mgr.View(bob); folded != n || unread != limit {
		t.Errorf("at the limit: %d folded, %d unread; want %d and %d", folded, unread, n, limit)
	}
	send(&wire.Summary{Gen: 10, Chunk: 3, Entries: slice(3*n+limit, 1)})
	h.run()
	if folded, unread := h.mgr.View(bob); folded != n+limit+1 || unread != 0 {
		t.Errorf("past the limit: %d folded, %d unread; want %d and none", folded, unread, n+limit+1)
	}
}

// TestTickReplansFromUnreadChunks: the heartbeat re-plans from the whole
// view, so an author that only a continuation chunk carried, still
// unread, is asked for again once its first Request has expired.
func TestTickReplansFromUnreadChunks(t *testing.T) {
	h := newSyncHarness(t)
	link := h.connect(t, h.bobAd, h.bob)
	h.bob.holdAnswers()
	wanted := id.NewUserID("unread-wanted")
	for _, sum := range []*wire.Summary{
		{Gen: 9, Chunk: 0, More: true, Entries: entriesOf(map[id.UserID]uint64{id.NewUserID("chunk-0"): 1})},
		{Gen: 9, Chunk: 1, Entries: []wire.Entry{{Author: wanted, Seq: 1}}},
	} {
		if err := sendFrame(link, sum); err != nil {
			t.Fatal(err)
		}
	}
	h.expect(t, "a Request planned from the unread chunk", func() bool { return h.bob.requested(wanted) })
	if _, unread := h.mgr.View(h.bobAd.Self()); unread != 1 {
		t.Fatalf("%d entries unread, want the continuation chunk's 1", unread)
	}
	h.mgr.Tick()
	h.mgr.Tick() // expires the Request stamped before the first tick, and re-plans
	h.expect(t, "the author asked for again", func() bool { return h.bob.requestedSeqs(wanted) == 2 })
}

// TestDisjointStripeConcurrentSync drives two links syncing disjoint
// author stripes concurrently: two writers bump authors confined to two
// different summary stripes while both scripted peers keep pulling full
// (chunked) summaries and receiving deltas. Both peers must converge on
// every writer's final high-water mark; run under -race this exercises
// the striped index's copy-on-write snapshots against live Puts. It races
// on purpose, so it runs on MemMedium in wall time.
func TestDisjointStripeConcurrentSync(t *testing.T) {
	const (
		perSide  = 8
		finalSeq = uint64(40)
	)
	left, right := disjointStripeAuthors(t, perSide)

	w := newRaceWorld(t)
	alice := w.realPeer(t, w.medium, "alice", message.Config{})
	st, mgr := alice.st, alice.mgr
	// Enough filler that every full sync streams as chunks.
	for i := 0; i < message.SummaryChunkEntries+2000; i++ {
		if _, err := st.Put(historyPost(id.NewUserID(fmt.Sprintf("filler-%05d", i)), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range append(append([]id.UserID{}, left...), right...) {
		if _, err := st.Put(historyPost(a, 1)); err != nil {
			t.Fatal(err)
		}
	}

	bobAd, bob := w.capturePeer(t, "bob")
	carolAd, carol := w.capturePeer(t, "carol")
	if err := bobAd.Connect(alice.ad.Self()); err != nil {
		t.Fatalf("Connect(bob): %v", err)
	}
	if err := carolAd.Connect(alice.ad.Self()); err != nil {
		t.Fatalf("Connect(carol): %v", err)
	}
	await(t, "bob link", bob.changed, func() bool { return bob.linkCount() > 0 })
	await(t, "carol link", carol.changed, func() bool { return carol.linkCount() > 0 })

	var wg sync.WaitGroup
	writer := func(authors []id.UserID) {
		defer wg.Done()
		for seq := uint64(2); seq <= finalSeq; seq++ {
			for _, a := range authors {
				if _, err := st.Put(historyPost(a, seq)); err != nil {
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

	// One quiescent full sync, so both peers can reconstruct the final
	// view from everything they saw.
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
	await(t, "bob converges", bob.changed, converged(bob))
	await(t, "carol converges", carol.changed, converged(carol))
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
