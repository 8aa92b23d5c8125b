package message_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/msg"
	"sos/internal/routing"
	"sos/internal/wire"
)

// askingLink links alice to a bob who answers no Request on his own and
// has alice ask him for first: alice is then asking bob.
func askingLink(t *testing.T, first id.UserID) (*syncHarness, *adhoc.Link) {
	t.Helper()
	h := newSyncHarness(t)
	h.bob.holdAnswers()
	link := h.connect(t, h.bobAd, h.bob)
	if err := sendFrame(link, &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{first: 1})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the first request", func() bool { return h.bob.requested(first) })
	return h, link
}

// sendDelta sends alice bob's delta from gen-1 to gen announcing author's
// message 1.
func sendDelta(t *testing.T, link *adhoc.Link, gen uint64, author id.UserID) {
	t.Helper()
	if err := sendFrame(link, &wire.Summary{Gen: gen, BaseGen: gen - 1, Entries: entriesOf(map[id.UserID]uint64{author: 1})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
}

// TestDeltasWhileAskingLeaveAsOneRequest: k deltas that land while a
// Request is out are merged into the view and planned together when its
// Batch arrives, as exactly one Request.
func TestDeltasWhileAskingLeaveAsOneRequest(t *testing.T) {
	h, link := askingLink(t, id.NewUserID("first-author"))
	const k = 5
	authors := make(map[id.UserID]bool, k)
	for i := range k {
		author := id.NewUserID(fmt.Sprintf("delta-author-%d", i))
		authors[author] = true
		sendDelta(t, link, uint64(2+i), author)
	}
	h.run()
	if asking, due := h.mgr.Asking("bob-phone"); !asking || due != k {
		t.Fatalf("after %d deltas: asking %v, %d authors due; want true and %d", k, asking, due, k)
	}
	if n := len(h.bob.requests()); n != 1 {
		t.Fatalf("%d requests before the batch, want 1: a delta was planned while a request was out", n)
	}
	if _, _, entries := h.mgr.SyncState(); entries != 1+k {
		t.Errorf("view holds %d entries, want %d: the deltas were not merged", entries, 1+k)
	}

	if err := sendFrame(link, &wire.Batch{}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the request after the batch", func() bool { return len(h.bob.requests()) == 2 })
	reqs := h.bob.requests()
	if len(reqs) != 2 {
		t.Fatalf("%d requests after the batch, want 2", len(reqs))
	}
	if len(reqs[1].Wants) != k {
		t.Errorf("the request after the batch names %d authors, want %d", len(reqs[1].Wants), k)
	}
	if !slices.IsSortedFunc(reqs[1].Wants, func(a, b wire.Want) int { return bytes.Compare(a.Author[:], b.Author[:]) }) {
		t.Errorf("the request's wants are not in author byte order: %v", reqs[1].Wants)
	}
	for _, w := range reqs[1].Wants {
		if !authors[w.Author] || len(w.Seqs) != 1 || w.Seqs[0] != 1 {
			t.Errorf("the request after the batch wants %s %v, want one of the delta authors' message 1", w.Author, w.Seqs)
		}
	}
	if asking, due := h.mgr.Asking("bob-phone"); !asking || due != 0 {
		t.Errorf("after the second request: asking %v, %d authors due; want true and 0", asking, due)
	}
}

// TestRefusedRequestIsAnsweredEmpty: carol runs spray-and-wait and holds a
// relayed message in its wait phase, which she serves to its author's
// followers only. Alice asks for it and is refused with an empty Batch.
// That answer releases her: carol's next post is asked for as soon as its
// delta lands, with no Tick.
func TestRefusedRequestIsAnsweredEmpty(t *testing.T) {
	h := newSyncHarness(t)
	carol := h.realPeer(t, h.medium, "carol", message.Config{})
	if err := carol.rm.Use(routing.SchemeSprayAndWait); err != nil {
		t.Fatalf("Use: %v", err)
	}
	relayed := &msg.Message{Author: id.NewUserID("relayed-author"), Seq: 1, Kind: msg.KindPost, Created: time.Unix(0, 0)}
	if _, err := carol.st.Put(relayed); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := h.aliceAd.Connect(carol.ad.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.expect(t, "the refusal", func() bool { return carol.mgr.Stats().RequestsUnserved == 1 })
	if st := carol.mgr.Stats(); st.MessagesServed != 0 || st.BatchesSent != 0 {
		t.Errorf("carol served %d messages in %d batches, want none: the refusal is an empty answer", st.MessagesServed, st.BatchesSent)
	}

	if _, err := carol.st.Put(signed(t, carol.creds, 1, "after the refusal")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := carol.mgr.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	h.expect(t, "carol's post at alice", func() bool { return h.st.MaxSeq(carol.creds.Ident.User) == 1 })
	if st := h.mgr.Stats(); st.RequestsSent != 2 || st.BatchesReceived != 1 {
		t.Errorf("alice sent %d requests and counted %d batches, want 2 and 1 (the empty answer is no batch)", st.RequestsSent, st.BatchesReceived)
	}
}

// TestLostBatchHoldsPlansOneTick: a Batch that never comes holds what the
// peer's deltas bring until the next Tick, which plans it, and a dropped
// link drops what was due.
func TestLostBatchHoldsPlansOneTick(t *testing.T) {
	first, late, dropped := id.NewUserID("first-author"), id.NewUserID("late-author"), id.NewUserID("dropped-author")
	h, link := askingLink(t, first)
	sendDelta(t, link, 2, late)
	h.run()
	if asking, due := h.mgr.Asking("bob-phone"); !asking || due != 1 {
		t.Fatalf("after a delta: asking %v, %d authors due; want true and 1", asking, due)
	}
	if h.bob.requested(late) {
		t.Fatal("a delta was planned while a request was out")
	}

	h.mgr.Tick()
	h.expect(t, "the request after one tick", func() bool { return h.bob.requested(late) })
	if n := h.bob.requestedSeqs(first); n != 1 {
		t.Errorf("first-author asked for %d times, want 1: its request is still in flight", n)
	}

	sendDelta(t, link, 3, dropped)
	h.run()
	if asking, due := h.mgr.Asking("bob-phone"); !asking || due != 1 {
		t.Fatalf("after the tick's request and a delta: asking %v, %d authors due; want true and 1", asking, due)
	}
	_ = link.Close()
	h.expect(t, "alice sees the drop", func() bool { return len(h.mgr.ActiveLinks()) == 0 })
	if asking, due := h.mgr.Asking("bob-phone"); asking || due != 0 {
		t.Errorf("after the link dropped: asking %v, %d authors due; want false and 0", asking, due)
	}
}

// TestChunksWhileAskingArePlanned: the chunks of a full summary are
// planned as they land, a Request out or not, so a first contact pulls
// after every chunk as before.
func TestChunksWhileAskingArePlanned(t *testing.T) {
	head, tail := id.NewUserID("head-author"), id.NewUserID("tail-author")
	h := newSyncHarness(t)
	h.bob.holdAnswers()
	link := h.connect(t, h.bobAd, h.bob)
	if err := sendFrame(link, &wire.Summary{Gen: 1, More: true, Entries: entriesOf(map[id.UserID]uint64{head: 1})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the request for the first chunk", func() bool { return h.bob.requested(head) })
	if asking, _ := h.mgr.Asking("bob-phone"); !asking {
		t.Fatal("no request is out after the first chunk's")
	}
	if err := sendFrame(link, &wire.Summary{Gen: 1, Chunk: 1, Entries: entriesOf(map[id.UserID]uint64{tail: 1})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the request for the second chunk", func() bool { return h.bob.requested(tail) })
	if n := len(h.bob.requests()); n != 2 {
		t.Errorf("%d requests for two chunks, want 2", n)
	}
}
