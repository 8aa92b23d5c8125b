package message_test

import (
	"bytes"
	"testing"

	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/wire"
)

// batchMsgs returns the messages of every Batch received so far.
func (c *frameCapture) batchMsgs() []*msg.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*msg.Message
	for _, f := range c.frames {
		if b, ok := f.(*wire.Batch); ok {
			out = append(out, b.Msgs...)
		}
	}
	return out
}

// TestOwnPostTravelsWithoutItsCertificate: a message served by its own
// author leaves its certificate behind, as the link's handshake carried
// it; relay cargo keeps its certificate, and so does an own message
// under a certificate other than the one the device presented.
func TestOwnPostTravelsWithoutItsCertificate(t *testing.T) {
	h := newSyncHarness(t)
	dave := h.bootstrap(t, "dave")
	// A key alice signed with before she re-enrolled, and its own
	// certificate: not the one her device presents.
	earlier, err := id.NewIdentity(h.alice.Ident.User, nil)
	if err != nil {
		t.Fatal(err)
	}
	earlierCert, err := h.ca.Issue(earlier.User, earlier.Public())
	if err != nil {
		t.Fatal(err)
	}
	old := signed(t, &cloud.Credentials{Ident: earlier, Cert: earlierCert}, 1, "under the earlier certificate")
	own := signed(t, h.alice, 2, "own")
	relay := signed(t, dave, 1, "relay")
	for _, m := range []*msg.Message{old, own, relay} {
		if _, err := h.st.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	h.bob.holdAnswers()
	link := h.connect(t, h.bobAd, h.bob)
	wants := []wire.Want{{Author: h.alice.Ident.User, Seqs: []uint64{1, 2}}, {Author: dave.Ident.User, Seqs: []uint64{1}}}
	if err := sendFrame(link, &wire.Request{Wants: wants}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	var served []*msg.Message
	h.expect(t, "alice's batch", func() bool {
		served = h.bob.batchMsgs()
		return len(served) == 3
	})
	want := map[msg.Ref][]byte{old.Ref(): earlierCert.DER, own.Ref(): nil, relay.Ref(): dave.Cert.DER}
	for _, m := range served {
		if !bytes.Equal(m.CertDER, want[m.Ref()]) {
			t.Errorf("%s crossed with a %d-byte certificate, want %d bytes", m.Ref(), len(m.CertDER), len(want[m.Ref()]))
		}
	}
}

// TestHostileEmptyCertificateFailsVerification: a peer that sends a
// message of another author's without a certificate has it checked
// against its own handshake certificate, which names someone else: one
// verification failure, unscored, and nothing stored, even though the
// signature is the peer's certified key's.
func TestHostileEmptyCertificateFailsVerification(t *testing.T) {
	h := newSyncHarness(t)
	dave := id.NewUserID("dave")
	forger, err := id.NewIdentity(dave, nil)
	if err != nil {
		t.Fatal(err)
	}
	forger.Key = h.bobCreds.Ident.Key // bob signs as dave
	forged := signed(t, &cloud.Credentials{Ident: forger, Cert: &pki.UserCert{}}, 1, "not dave's")

	h.bob.holdAnswers()
	link := linkScripted(t, h, h.bobAd, h.bob, 1)
	if err := sendFrame(link, &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{dave: 1})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "a request to bob", func() bool { return h.bob.requested(dave) })
	before := h.mgr.Stats()
	if err := sendFrame(link, &wire.Batch{Msgs: []*msg.Message{forged}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.run()
	st := h.mgr.Stats()
	if got := st.VerifyFailures - before.VerifyFailures; got != 1 {
		t.Errorf("verify failures +%d, want +1", got)
	}
	if st.MisbehaviorEvents != before.MisbehaviorEvents {
		t.Errorf("misbehavior events %d → %d, want unscored", before.MisbehaviorEvents, st.MisbehaviorEvents)
	}
	if _, ok := h.st.Get(forged.Ref()); ok || st.MessagesReceived != before.MessagesReceived {
		t.Error("a message checked against the wrong certificate was stored")
	}
}

// TestRelayedCopyKeepsTheCertificate: alice's post and direct message
// reach bob without their certificate, one hop. Bob stores each with the
// full certificate, opens the direct message, and serves the post on to
// carol with it once alice is gone (paper Fig. 3b: hop 2 carries it).
func TestRelayedCopyKeepsTheCertificate(t *testing.T) {
	w := newWorld(t)
	alice, bob := w.liveNode(t, "alice"), w.liveNode(t, "bob")
	post, err := alice.mw.Post([]byte("to all"))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := alice.mw.Direct(bob.creds.Cert, []byte("to bob"))
	if err != nil {
		t.Fatal(err)
	}
	w.expect(t, "both at bob", func() bool { return bob.gotSeq(post.Author, post.Seq) && bob.gotSeq(direct.Author, direct.Seq) })
	for _, ref := range []msg.Ref{post.Ref(), direct.Ref()} {
		if m, ok := bob.mw.Store().Get(ref); !ok || !bytes.Equal(m.CertDER, alice.creds.Cert.DER) {
			t.Errorf("bob's copy of %s does not hold alice's certificate", ref)
		}
	}
	stored, _ := bob.mw.Store().Get(direct.Ref())
	if plain, err := bob.mw.OpenDirect(stored); err != nil || string(plain) != "to bob" {
		t.Errorf("OpenDirect = %q, %v; want %q", plain, err, "to bob")
	}

	alice.mw.Close()
	carol := w.liveNode(t, "carol")
	w.expect(t, "alice's post at carol, from bob", func() bool { return carol.gotSeq(post.Author, post.Seq) })
	if m, _ := carol.mw.Store().Get(post.Ref()); m.Hops != 2 || !bytes.Equal(m.CertDER, alice.creds.Cert.DER) {
		t.Errorf("carol's copy: %d hops, %d-byte certificate; want 2 hops and alice's", m.Hops, len(m.CertDER))
	}
}
