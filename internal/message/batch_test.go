package message_test

import (
	"maps"
	"runtime"
	"testing"
	"time"

	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/wire"
)

// batchOutcome is what a received batch leaves behind at alice.
type batchOutcome struct {
	stored                               map[msg.Ref]bool
	received, duplicates, verifyFailures uint64
	inflight                             map[msg.Ref]mpc.PeerID
}

// TestBatchVerifiesLikeSingles: a batch whose signatures are checked in
// parallel stores, counts and settles exactly what the same messages
// sent one per batch do. Alice has asked bob for dave 1, 2 and 4 and
// carol for frank 1 and 2, and already holds dave 3; bob then delivers a
// valid message, a forged signature, a certificate naming another author,
// the held ref, and a valid and a forged copy of what alice asked carol
// for.
func TestBatchVerifiesLikeSingles(t *testing.T) {
	// More workers than the batch has room for on a small box, so every
	// run pairs verdicts across goroutines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	run := func(t *testing.T, oneBatch bool) batchOutcome {
		h := newSyncHarness(t)
		carolAd, carol := h.capturePeer(t, "carol")
		dave, frank := h.bootstrap(t, "dave"), h.bootstrap(t, "frank")
		erin := id.NewUserID("erin")

		valid := signed(t, dave, 1, "valid")
		forged := signed(t, dave, 2, "signed")
		forged.Payload = []byte("forged")
		misnamed := signed(t, dave, 1, "misnamed")
		misnamed.Author = erin // dave's certificate does not name erin
		held := signed(t, dave, 3, "held")
		if _, err := h.st.Put(held.Clone()); err != nil {
			t.Fatal(err)
		}
		fromCarol := signed(t, frank, 1, "asked of carol")
		forgedCarol := signed(t, frank, 2, "signed")
		forgedCarol.Payload = []byte("forged")

		h.bob.holdAnswers() // bob's answer is the batch below
		carol.holdAnswers()
		bobLink := linkScripted(t, h, h.bobAd, h.bob, 1)
		if err := sendFrame(bobLink, &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{dave.Ident.User: 4})}); err != nil {
			t.Fatalf("SendFrame: %v", err)
		}
		h.expect(t, "requests to bob", func() bool { return h.bob.requestedSeqs(dave.Ident.User) == 3 })
		carolLink := linkScripted(t, h, carolAd, carol, 2)
		if err := sendFrame(carolLink, &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{frank.Ident.User: 2})}); err != nil {
			t.Fatalf("SendFrame: %v", err)
		}
		h.expect(t, "requests to carol", func() bool { return carol.requestedSeqs(frank.Ident.User) == 2 })

		msgs := []*msg.Message{valid, forged, misnamed, held, fromCarol, forgedCarol}
		batches := [][]*msg.Message{msgs}
		if !oneBatch {
			batches = nil
			for _, m := range msgs {
				batches = append(batches, []*msg.Message{m})
			}
		}
		for _, b := range batches {
			if err := sendFrame(bobLink, &wire.Batch{Msgs: b}); err != nil {
				t.Fatalf("SendFrame: %v", err)
			}
		}
		h.expect(t, "every message judged", func() bool {
			st := h.mgr.Stats()
			return st.MessagesReceived+st.Duplicates+st.VerifyFailures == uint64(len(msgs))
		})

		st := h.mgr.Stats()
		out := batchOutcome{
			stored:   map[msg.Ref]bool{},
			received: st.MessagesReceived, duplicates: st.Duplicates, verifyFailures: st.VerifyFailures,
			inflight: h.mgr.Inflight(),
		}
		for _, m := range msgs {
			_, out.stored[m.Ref()] = h.st.Get(m.Ref())
		}
		if _, ok := h.st.Get(valid.Ref()); !ok {
			t.Errorf("the valid message was not stored")
		}
		return out
	}

	singles := run(t, false)
	batched := run(t, true)

	if singles.received != 2 || singles.duplicates != 1 || singles.verifyFailures != 3 {
		t.Errorf("one per batch: received %d, duplicates %d, verify failures %d; want 2, 1, 3",
			singles.received, singles.duplicates, singles.verifyFailures)
	}
	if batched.received != singles.received || batched.duplicates != singles.duplicates ||
		batched.verifyFailures != singles.verifyFailures {
		t.Errorf("one batch: received %d, duplicates %d, verify failures %d; one per batch: %d, %d, %d",
			batched.received, batched.duplicates, batched.verifyFailures,
			singles.received, singles.duplicates, singles.verifyFailures)
	}
	if !maps.Equal(batched.stored, singles.stored) {
		t.Errorf("stored after one batch %v, after one per batch %v", batched.stored, singles.stored)
	}
	// A valid copy settles a request whoever it was asked of, a forged one
	// only a request made of its sender, and bob's first batch answers the
	// request made of him, settling dave 4, which it did not carry: left
	// is frank 2 at carol (a forged copy came from bob).
	frank2 := msg.Ref{Author: id.NewUserID("frank"), Seq: 2}
	if !maps.Equal(singles.inflight, map[msg.Ref]mpc.PeerID{frank2: "carol-phone"}) {
		t.Errorf("one per batch leaves %v in flight, want frank 2 at carol", singles.inflight)
	}
	if !maps.Equal(batched.inflight, singles.inflight) {
		t.Errorf("in flight after one batch %v, after one per batch %v", batched.inflight, singles.inflight)
	}
}

// signed returns author's post seq, signed and carrying its certificate.
func signed(t *testing.T, author *cloud.Credentials, seq uint64, text string) *msg.Message {
	t.Helper()
	m := &msg.Message{
		Author: author.Ident.User, Seq: seq, Kind: msg.KindPost,
		Created: time.Unix(1_700_000_000, 0), Payload: []byte(text), CertDER: author.Cert.DER,
	}
	if err := m.Sign(author.Ident); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return m
}
