package message_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/routing"
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
	h.bob.holdAnswers() // an answer would settle the request
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
	h.bob.holdAnswers() // an empty answer would decline each author
	carol.holdAnswers()
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
	h.bob.holdAnswers()
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

// TestRefusalIsAskedOnceUntilTheViewMoves: carol runs spray-and-wait and
// refuses alice a relayed message in its wait phase. The empty answer
// settles the request: ten heartbeats ask carol nothing more. A delta
// that moves carol's view of that author brings exactly one more Request.
func TestRefusalIsAskedOnceUntilTheViewMoves(t *testing.T) {
	h := newSyncHarness(t)
	carol := h.realPeer(t, h.medium, "carol", message.Config{})
	if err := carol.rm.Use(routing.SchemeSprayAndWait); err != nil {
		t.Fatalf("Use: %v", err)
	}
	relayed := id.NewUserID("relayed-author")
	if _, err := carol.st.Put(historyPost(relayed, 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := h.aliceAd.Connect(carol.ad.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.expect(t, "the refusal", func() bool { return carol.mgr.Stats().RequestsUnserved == 1 })

	for range 10 {
		h.mgr.Tick()
		h.run()
	}
	if sent, unserved := h.mgr.Stats().RequestsSent, carol.mgr.Stats().RequestsUnserved; sent != 1 || unserved != 1 {
		t.Fatalf("after 10 ticks alice sent %d requests and carol answered %d empty, want 1 and 1", sent, unserved)
	}
	if n := len(h.mgr.Inflight()); n != 0 {
		t.Errorf("%d refs still in flight after the refusal, want 0", n)
	}

	if _, err := carol.st.Put(historyPost(relayed, 2)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := carol.mgr.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	for range 10 {
		h.mgr.Tick()
		h.run()
	}
	if sent := h.mgr.Stats().RequestsSent; sent != 2 {
		t.Errorf("after carol's view moved alice sent %d requests in all, want 2", sent)
	}
}

// TestDeclinedRefIsAskedOfASecondHolder: two peers advertise a message,
// and alice asks the first, who answers empty: it evicted the message
// after its summary. Alice then asks the second, in the same gathering,
// before any link drops. The first may be the author's own device, which
// source preference favours until it declines.
func TestDeclinedRefIsAskedOfASecondHolder(t *testing.T) {
	for _, byAuthor := range []bool{false, true} {
		t.Run(fmt.Sprintf("author=%v", byAuthor), func(t *testing.T) {
			h := newSyncHarness(t)
			firstAd, first, evicted := h.bobAd, h.bob, id.NewUserID("evicted-author")
			if byAuthor {
				firstAd, first = h.capturePeer(t, "dave")
				evicted = id.NewUserID("dave")
			}
			first.holdAnswers()
			carolAd, carol := h.capturePeer(t, "carol")
			held := &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{evicted: 1})}

			firstLink := linkScripted(t, h, firstAd, first, 1)
			if err := sendFrame(firstLink, held); err != nil {
				t.Fatalf("SendFrame: %v", err)
			}
			h.expect(t, "the request to the first holder", func() bool { return first.requested(evicted) })
			carolLink := linkScripted(t, h, carolAd, carol, 2)
			if err := sendFrame(carolLink, held); err != nil {
				t.Fatalf("SendFrame: %v", err)
			}
			h.run()
			if carol.requested(evicted) {
				t.Fatal("alice asked carol while the request to the first holder was out")
			}

			if err := sendFrame(firstLink, &wire.Batch{}); err != nil {
				t.Fatalf("SendFrame: %v", err)
			}
			h.expect(t, "the request to carol", func() bool { return carol.requested(evicted) })
			if n := len(h.mgr.ActiveLinks()); n != 2 {
				t.Errorf("alice holds %d links, want 2: the second holder was asked only after a drop", n)
			}
			if n := first.requestedSeqs(evicted); n != 1 {
				t.Errorf("the first holder was asked %d times, want 1", n)
			}
			if st := h.mgr.Stats(); st.TransfersAborted != 0 || st.InflightExpired != 0 {
				t.Errorf("the decline counted %d aborted and %d expired transfers, want 0 and 0", st.TransfersAborted, st.InflightExpired)
			}
		})
	}
}

// TestBatchForALaterRequestReleasesTheLostOne: alice has two Requests out
// to bob, and the first one's Batch is lost. The Batch answering the
// second shows it: the first one's refs are asked again, not declined.
func TestBatchForALaterRequestReleasesTheLostOne(t *testing.T) {
	first := id.NewUserID("first-author")
	h, link := askingLink(t, first)
	dave := h.bootstrap(t, "dave")
	sendDelta(t, link, 2, dave.Ident.User)
	h.run()
	h.mgr.Tick() // plans the delta: the second Request
	h.expect(t, "the second request", func() bool { return h.bob.requested(dave.Ident.User) })

	if err := sendFrame(link, &wire.Batch{Msgs: []*msg.Message{signed(t, dave, 1, "second answer")}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the first request asked again", func() bool { return h.bob.requestedSeqs(first) == 2 })
	if got := h.mgr.Inflight()[msg.Ref{Author: first, Seq: 1}]; got != "bob-phone" {
		t.Errorf("%v#1 is in flight to %q, want bob-phone", first, got)
	}
	if st := h.mgr.Stats(); st.InflightExpired != 1 || st.MessagesReceived != 1 {
		t.Errorf("InflightExpired %d, MessagesReceived %d; want 1 and 1", st.InflightExpired, st.MessagesReceived)
	}
}

// TestLongPlanLeavesAsRequestsOfOneBatchEach: a plan of 2 500 sequences
// leaves as three Requests of at most wire.MaxBatchMessages sequences,
// and each draws exactly one Batch.
func TestLongPlanLeavesAsRequestsOfOneBatchEach(t *testing.T) {
	h := newSyncHarness(t)
	bob := h.realPeer(t, h.medium, "bob2", message.Config{})
	dave := h.bootstrap(t, "dave")
	const backlog = 2500
	for seq := uint64(1); seq <= backlog; seq++ {
		if _, err := bob.st.Put(signed(t, dave, seq, "backlog")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := h.aliceAd.Connect(bob.ad.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.expect(t, "the backlog at alice", func() bool { return h.st.MaxSeq(dave.Ident.User) == backlog })
	alice, server := h.mgr.Stats(), bob.mgr.Stats()
	if alice.RequestsSent != 3 || server.RequestsReceived != 3 {
		t.Errorf("alice sent %d requests and bob got %d, want 3 and 3", alice.RequestsSent, server.RequestsReceived)
	}
	if server.BatchesSent != 3 || alice.BatchesReceived != 3 || alice.MessagesReceived != backlog {
		t.Errorf("bob sent %d batches, alice got %d with %d messages; want 3, 3 and %d",
			server.BatchesSent, alice.BatchesReceived, alice.MessagesReceived, backlog)
	}
}

// TestHoleIsAskedOfASecondHolderAtTheNextPlan: bob answers with the
// author's second message but not the first, a hole under his high-water
// mark. Alice declines the first at bob and, since holders that copied
// from the same sources share such holes, asks carol for it at the next
// plan (here the heartbeat's), not at once. Bob is not asked for it again.
func TestHoleIsAskedOfASecondHolderAtTheNextPlan(t *testing.T) {
	h := newSyncHarness(t)
	h.bob.holdAnswers()
	carolAd, carol := h.capturePeer(t, "carol")
	carol.holdAnswers()
	dave := h.bootstrap(t, "dave")
	author := dave.Ident.User
	held := &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{author: 2})}

	bobLink := linkScripted(t, h, h.bobAd, h.bob, 1)
	if err := sendFrame(bobLink, held); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the request to bob", func() bool { return h.bob.requestedSeqs(author) == 2 })
	carolLink := linkScripted(t, h, carolAd, carol, 2)
	if err := sendFrame(carolLink, held); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	if err := sendFrame(bobLink, &wire.Batch{Msgs: []*msg.Message{signed(t, dave, 2, "second")}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "the second message stored", func() bool { return h.mgr.Stats().MessagesReceived == 1 })
	if carol.requested(author) {
		t.Fatal("alice asked carol for the hole at once")
	}

	h.mgr.Tick()
	h.expect(t, "the hole asked of carol", func() bool { return carol.requestedSeqs(author) == 1 })
	if n := h.bob.requestedSeqs(author); n != 2 {
		t.Errorf("bob was asked for %d sequences in all, want 2: the hole again", n)
	}
}
