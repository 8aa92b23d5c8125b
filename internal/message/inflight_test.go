package message_test

import (
	"slices"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/wire"
)

// linkScripted connects a scripted peer to alice, checks that alice then
// holds links active links, and returns the peer's end of the new one.
func linkScripted(t *testing.T, h *syncHarness, ad *adhoc.Manager, peer *frameCapture, links int) *adhoc.Link {
	t.Helper()
	link := h.connect(t, ad, peer)
	if n := len(h.mgr.ActiveLinks()); n != links {
		t.Fatalf("alice holds %d links, want %d", n, links)
	}
	return link
}

// TestForeignBatchKeepsInflightRequest: a copy of a message that fails
// verification settles nothing on a link it was not requested on. Alice
// asks bob for a message; carol pushes an unsolicited forged copy of it
// and then advertises it. The request to bob is still outstanding, so
// alice must not ask carol for the same message — and when bob's link
// drops, that request is the one aborted transfer.
func TestForeignBatchKeepsInflightRequest(t *testing.T) {
	h := newSyncHarness(t)
	carolAd, carol := h.capturePeer(t, "carol")
	wanted, marker := id.NewUserID("wanted-author"), id.NewUserID("marker-author")

	bobLink := linkScripted(t, h, h.bobAd, h.bob, 1)
	if err := sendFrame(bobLink, &wire.Summary{
		Gen: 1, Entries: entriesOf(map[id.UserID]uint64{wanted: 1}),
	}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "request to bob", func() bool { return h.bob.requested(wanted) })

	carolLink := linkScripted(t, h, carolAd, carol, 2)
	forged := &msg.Message{
		Author: wanted, Seq: 1, Kind: msg.KindPost, Created: time.Unix(0, 0), Payload: []byte("forged"),
	}
	if err := sendFrame(carolLink, &wire.Batch{Msgs: []*msg.Message{forged}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "forged copy rejected", func() bool { return h.mgr.Stats().VerifyFailures == 1 })

	// One plan builds one Request per link, so when the marker shows up at
	// carol the wanted author is in the same frame or in none.
	if err := sendFrame(carolLink, &wire.Summary{
		Gen: 1, Entries: entriesOf(map[id.UserID]uint64{wanted: 1, marker: 1}),
	}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "request to carol", func() bool { return carol.requested(marker) })
	if carol.requested(wanted) {
		t.Error("a forged copy from carol cancelled the request outstanding at bob: alice asked carol too")
	}

	// The ledger is exact: bob's link takes one request down with it, and
	// the re-plan moves it to carol, who advertised the message.
	_ = bobLink.Close()
	h.expect(t, "re-planned request to carol", func() bool { return carol.requested(wanted) })
	if got := h.mgr.Stats().TransfersAborted; got != 1 {
		t.Errorf("TransfersAborted = %d, want 1 (the request that died with bob's link)", got)
	}
}

// TestPlansLeaveInPeerOrder: a re-plan across several links (the resync
// heartbeat, LinkDown) sends its Requests in peer-id order, the same on
// every run, so one schedule of events puts one sequence of frames on the
// air.
func TestPlansLeaveInPeerOrder(t *testing.T) {
	h := newSyncHarness(t)
	carolAd, carol := h.capturePeer(t, "carol")
	peers := []struct {
		link   *adhoc.Link
		seen   *frameCapture
		author id.UserID
	}{
		{linkScripted(t, h, h.bobAd, h.bob, 1), h.bob, id.NewUserID("held-by-bob")},
		{linkScripted(t, h, carolAd, carol, 2), carol, id.NewUserID("held-by-carol")},
	}
	for _, p := range peers {
		if err := sendFrame(p.link, &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{p.author: 1})}); err != nil {
			t.Fatalf("SendFrame: %v", err)
		}
		h.expect(t, "the first request", func() bool { return p.seen.requested(p.author) })
	}

	want := []mpc.PeerID{"bob-phone", "carol-phone"}
	for run := 0; run < 50; run++ {
		if got := h.mgr.PlanOrder(); !slices.Equal(got, want) {
			t.Fatalf("run %d: plans leave for %v, want %v", run, got, want)
		}
	}
}

// TestTransfersAbortedCountsOrphanedRequests pins the one definition of an
// aborted transfer: a request this node made that died with its link. A
// link that drops after alice served a batch costs alice nothing — the
// requester on the other end owns that count — and a link that drops on
// three unanswered requests costs exactly three, which are planned again
// at the next encounter.
func TestTransfersAbortedCountsOrphanedRequests(t *testing.T) {
	h := newSyncHarness(t)
	held := id.NewUserID("held-by-alice")
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := h.st.Put(&msg.Message{Author: held, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
			t.Fatal(err)
		}
	}

	// Alice as the sender: bob pulls two messages and hangs up.
	link := linkScripted(t, h, h.bobAd, h.bob, 1)
	if err := sendFrame(link, &wire.Request{Wants: []wire.Want{{Author: held, Seqs: []uint64{1, 2}}}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "batch served", func() bool { return h.mgr.Stats().MessagesServed == 2 })
	_ = link.Close()
	h.expect(t, "alice sees the drop", func() bool { return len(h.mgr.ActiveLinks()) == 0 })
	if got := h.mgr.Stats().TransfersAborted; got != 0 {
		t.Errorf("TransfersAborted = %d on the sender after a served batch, want 0", got)
	}

	// Alice as the requester: three requests go unanswered.
	wanted := id.NewUserID("wanted-author")
	ad := &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{wanted: 3})}
	link = linkScripted(t, h, h.bobAd, h.bob, 1)
	if err := sendFrame(link, ad); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "three requests", func() bool { return h.bob.requestedSeqs(wanted) == 3 })
	_ = link.Close()
	h.expect(t, "alice sees the drop", func() bool { return len(h.mgr.ActiveLinks()) == 0 })
	if got := h.mgr.Stats().TransfersAborted; got != 3 {
		t.Errorf("TransfersAborted = %d, want 3 (one per orphaned request)", got)
	}

	// The same ledger drives the retry.
	link = linkScripted(t, h, h.bobAd, h.bob, 1)
	if err := sendFrame(link, ad); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "requests planned again", func() bool { return h.bob.requestedSeqs(wanted) == 6 })
}
