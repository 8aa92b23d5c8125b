// Quiet-hint tests: the discovery hint is refreshed only while a device
// in range can act on it, and catches up as soon as one can.
package message_test

import (
	"fmt"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/store"
	"sos/internal/wire"
)

// TestLinkedPairStopsBeaconing: once the only neighbour is linked, a post
// refreshes no hint on either side, and every post is still delivered.
func TestLinkedPairStopsBeaconing(t *testing.T) {
	w := newWorld(t)
	rec := &adRecorder{inner: w.medium}
	alice := w.startLiveNode(t, rec, w.bootstrap(t, "alice"), nil)
	bob := w.startLiveNode(t, rec, w.bootstrap(t, "bob"), nil)

	first, err := alice.mw.Post([]byte("link up"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.expect(t, "the first delivery", func() bool { return bob.gotSeq(first.Author, first.Seq) })
	aliceBefore, bobBefore := rec.refreshes(alice.mw.Peer()), rec.refreshes(bob.mw.Peer())

	const posts = 50
	var last *msg.Message
	for i := 0; i < posts; i++ {
		if last, err = alice.mw.Post([]byte(fmt.Sprintf("post %d", i))); err != nil {
			t.Fatalf("Post: %v", err)
		}
	}
	w.expect(t, "every post delivered", func() bool { return bob.gotSeq(last.Author, last.Seq) })
	for seq := first.Seq + 1; seq <= last.Seq; seq++ {
		if !bob.gotSeq(last.Author, seq) {
			t.Errorf("post %d never reached bob", seq)
		}
	}
	if n := rec.refreshes(alice.mw.Peer()) - aliceBefore; n != 0 {
		t.Errorf("alice refreshed her hint %d times over %d posts to a linked peer, want 0", n, posts)
	}
	if n := rec.refreshes(bob.mw.Peer()) - bobBefore; n != 0 {
		t.Errorf("bob refreshed his hint %d times over %d posts from a linked peer, want 0", n, posts)
	}
}

// TestJoinerHearsTheCurrentHint: a linked pair stays quiet for 40 posts,
// past the hint's 32-generation window, so the hint on the air is stale —
// and offers nothing to a newcomer that already holds what it names. The
// newcomer's arrival brings the current hint out, and on it the newcomer
// dials and gets the newest post.
func TestJoinerHearsTheCurrentHint(t *testing.T) {
	const history, posts = 64, 40
	w := newWorld(t)
	rec := &adRecorder{inner: w.medium}
	node := func(handle string, held ...*msg.Message) (*liveNode, *store.Store) {
		creds := w.bootstrap(t, handle)
		st := store.New(creds.Ident.User)
		preload(t, st, history) // past MaxBeaconSummary: the hint is the change window
		for _, m := range held {
			if _, err := st.Put(m); err != nil {
				t.Fatal(err)
			}
		}
		return w.startLiveNode(t, rec, creds, st), st
	}
	alice, aliceStore := node("alice")
	bob, _ := node("bob")

	first, err := alice.mw.Post([]byte("link up"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.expect(t, "the first delivery", func() bool { return bob.gotSeq(first.Author, first.Seq) })
	last := first
	for i := 1; i < posts; i++ {
		if last, err = alice.mw.Post([]byte(fmt.Sprintf("post %d", i))); err != nil {
			t.Fatalf("Post: %v", err)
		}
	}
	w.expect(t, "every post delivered to bob", func() bool { return bob.gotSeq(last.Author, last.Seq) })
	if stale, _ := rec.last(t, alice.mw.Peer()); stale.Summary[last.Author] >= last.Seq {
		t.Fatalf("alice's hint already names seq %d before anyone could hear it", stale.Summary[last.Author])
	}

	held := *first // carol holds everything alice's stale hint names
	carol, _ := node("carol", &held)
	w.expect(t, "carol to get the newest post", func() bool { return carol.gotSeq(last.Author, last.Seq) })
	hint, _ := rec.last(t, alice.mw.Peer())
	if hint.Gen != aliceStore.Generation() || hint.Summary[last.Author] != last.Seq {
		t.Errorf("alice's hint after carol arrived: gen %d naming seq %d, want gen %d naming seq %d",
			hint.Gen, hint.Summary[last.Author], aliceStore.Generation(), last.Seq)
	}
	if carol.mw.Stats().Message.ConnectsAttempted == 0 {
		t.Error("carol never dialled")
	}
}

// TestLinkDownPublishesTheHint: a post made while the only neighbour is
// linked leaves the hint behind; the moment the link drops, with the peer
// still in range, the current hint goes out — no heartbeat needed.
func TestLinkDownPublishesTheHint(t *testing.T) {
	var rec *adRecorder
	h := newSyncHarnessWith(t, message.Config{}, func(m mpc.Medium) mpc.Medium {
		rec = &adRecorder{inner: m}
		return rec
	})
	if err := h.bobAd.Advertise(&wire.Advertisement{Peer: "bob-phone", Gen: 1}); err != nil {
		t.Fatalf("Advertise(bob): %v", err)
	}
	if err := h.mgr.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	alice := h.aliceAd.Self()
	if err := h.bobAd.Connect(alice); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.expect(t, "the link at both ends", func() bool { return len(h.mgr.ActiveLinks()) == 1 && h.bob.linkCount() == 1 })
	before := rec.refreshes(alice)

	author := id.NewUserID("while-linked")
	if _, err := h.st.Put(&msg.Message{Author: author, Seq: 7, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := h.mgr.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	if n := rec.refreshes(alice) - before; n != 0 {
		t.Fatalf("a post with the only neighbour linked refreshed the hint %d times, want 0", n)
	}

	h.bob.link(0).Close()
	h.expect(t, "the hint after the link drops", func() bool { return rec.refreshes(alice) > before })
	hint, _ := rec.last(t, alice)
	if hint.Gen != h.st.Generation() || hint.Summary[author] != 7 {
		t.Errorf("hint after LinkDown: gen %d, entry %d; want gen %d, entry 7", hint.Gen, hint.Summary[author], h.st.Generation())
	}
}

// TestPresenceRecordFailsOpen: more distinct beacon names than the peer
// table holds keep it bounded, and once it has dropped a name it cannot
// tell that peer has left, so the hint keeps publishing even after every
// name it still holds has gone and only a linked peer is left.
func TestPresenceRecordFailsOpen(t *testing.T) {
	var rec *adRecorder
	h := newSyncHarnessWith(t, message.Config{}, func(m mpc.Medium) mpc.Medium {
		rec = &adRecorder{inner: m}
		return rec
	})
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.expect(t, "the link at alice", func() bool { return len(h.mgr.ActiveLinks()) == 1 })

	names := 2 * message.MaxPeerSync
	for i := 0; i < names; i++ {
		peer := mpc.PeerID(fmt.Sprintf("passer-by-%d", i))
		h.mgr.PeerDiscovered(peer, &wire.Advertisement{Peer: string(peer), Gen: 1})
		if peers, _, _ := h.mgr.SyncState(); peers > message.MaxPeerSync {
			t.Fatalf("peer table grew to %d slots, bound is %d", peers, message.MaxPeerSync)
		}
	}
	for i := 0; i < names; i++ {
		h.mgr.PeerGone(mpc.PeerID(fmt.Sprintf("passer-by-%d", i)))
	}
	if peers, links, _ := h.mgr.SyncState(); peers != 1 || links != 1 {
		t.Fatalf("table holds %d slots, %d linked; want only the linked peer", peers, links)
	}

	alice := h.aliceAd.Self()
	for seq := uint64(1); seq <= 3; seq++ {
		before := rec.refreshes(alice)
		if _, err := h.st.Put(&msg.Message{Author: id.NewUserID("writer"), Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
			t.Fatal(err)
		}
		if err := h.mgr.Advertise(); err != nil {
			t.Fatalf("Advertise: %v", err)
		}
		if rec.refreshes(alice) != before+1 {
			t.Fatalf("post %d refreshed no hint after the table lost track of a peer", seq)
		}
	}
}

// TestSlotLeavesWithTheLink: a session can outlive its peer's beacon (a
// goodbye beacon, then the socket closes). The slot must go with the
// link, or it would count as an unlinked peer in range forever; with it
// gone and nothing else in range, the hint goes out at once.
func TestSlotLeavesWithTheLink(t *testing.T) {
	var rec *adRecorder
	h := newSyncHarnessWith(t, message.Config{}, func(m mpc.Medium) mpc.Medium {
		rec = &adRecorder{inner: m}
		return rec
	})
	bob := h.bobAd.Self()
	if err := h.bobAd.Connect(h.aliceAd.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.expect(t, "the link at alice", func() bool { return len(h.mgr.ActiveLinks()) == 1 })
	h.mgr.PeerDiscovered(bob, &wire.Advertisement{Peer: string(bob), Gen: 1})
	h.mgr.PeerGone(bob) // the beacon leaves; the session stays

	alice := h.aliceAd.Self()
	before := rec.refreshes(alice)
	if _, err := h.st.Put(&msg.Message{Author: id.NewUserID("writer"), Seq: 1, Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := h.mgr.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	if n := rec.refreshes(alice) - before; n != 0 {
		t.Fatalf("a post with the only peer linked refreshed the hint %d times, want 0", n)
	}

	h.bob.link(0).Close()
	h.expect(t, "the hint after the link drops", func() bool { return rec.refreshes(alice) > before })
	if peers, _, _ := h.mgr.SyncState(); peers != 0 {
		t.Errorf("%d slots left after the gone peer's link dropped, want 0", peers)
	}
}
