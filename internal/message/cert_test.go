package message_test

import (
	"bytes"
	"testing"

	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/message"
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

// reEnrolled returns creds' user under a key they signed with before
// they re-enrolled, and its own certificate: not the one their device
// presents.
func (w *world) reEnrolled(t *testing.T, creds *cloud.Credentials) *cloud.Credentials {
	t.Helper()
	earlier, err := id.NewIdentity(creds.Ident.User, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := w.ca.Issue(earlier.User, earlier.Public())
	if err != nil {
		t.Fatal(err)
	}
	return &cloud.Credentials{Ident: earlier, Cert: cert}
}

// hold puts msgs in alice's store.
func (h *syncHarness) hold(t *testing.T, msgs ...*msg.Message) {
	t.Helper()
	for _, m := range msgs {
		if _, err := h.st.Put(m); err != nil {
			t.Fatal(err)
		}
	}
}

// served has bob ask alice for wants on a new link and returns her one
// Batch's messages as they crossed.
func (h *syncHarness) served(t *testing.T, wants []wire.Want) []*msg.Message {
	t.Helper()
	h.bob.holdAnswers()
	link := h.connect(t, h.bobAd, h.bob)
	if err := sendFrame(link, &wire.Request{Wants: wants}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	total := 0
	for _, w := range wants {
		total += len(w.Seqs)
	}
	var served []*msg.Message
	h.expect(t, "alice's batch", func() bool {
		served = h.bob.batchMsgs()
		return len(served) == total
	})
	return served
}

// fetch has a new device, carol, fetch what alice holds, and fails the
// test unless carol rejected nothing and stored each ref of want with the
// certificate it maps to.
func (h *syncHarness) fetch(t *testing.T, want map[msg.Ref][]byte) {
	t.Helper()
	carol := h.realPeer(t, h.medium, "carol", message.Config{})
	if err := h.aliceAd.Connect(carol.ad.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.run()
	if n := carol.mgr.Stats().VerifyFailures; n != 0 {
		t.Errorf("carol failed %d verifications, want 0", n)
	}
	for ref, cert := range want {
		if m, ok := carol.st.Get(ref); !ok {
			t.Errorf("carol does not hold %s", ref)
		} else if !bytes.Equal(m.CertDER, cert) {
			t.Errorf("carol holds %s with a %d-byte certificate, want its own %d bytes", ref, len(m.CertDER), len(cert))
		}
	}
}

// TestOwnPostTravelsWithoutItsCertificate: a message served by its own
// author leaves its certificate behind, as the link's handshake carried
// it; relay cargo keeps its certificate, and so does an own message
// under a certificate other than the one the device presented.
func TestOwnPostTravelsWithoutItsCertificate(t *testing.T) {
	h := newSyncHarness(t)
	dave := h.bootstrap(t, "dave")
	earlier := h.reEnrolled(t, h.alice)
	old := signed(t, earlier, 1, "under the earlier certificate")
	own := signed(t, h.alice, 2, "own")
	relay := signed(t, dave, 1, "relay")
	h.hold(t, old, own, relay)
	served := h.served(t, []wire.Want{{Author: h.alice.Ident.User, Seqs: []uint64{1, 2}}, {Author: dave.Ident.User, Seqs: []uint64{1}}})
	want := map[msg.Ref][]byte{old.Ref(): earlier.Cert.DER, own.Ref(): nil, relay.Ref(): dave.Cert.DER}
	for _, m := range served {
		if !bytes.Equal(m.CertDER, want[m.Ref()]) {
			t.Errorf("%s crossed with a %d-byte certificate, want %d bytes", m.Ref(), len(m.CertDER), len(want[m.Ref()]))
		}
	}
}

// TestRelayBatchCarriesEachCertificateOnce: alice serves three messages
// of dave's and one of frank's, none her own. Each author's certificate
// crosses once, on the first copy of his run, and a device that fetches
// them stores each with the full certificate.
func TestRelayBatchCarriesEachCertificateOnce(t *testing.T) {
	h := newSyncHarness(t)
	dave, frank := h.bootstrap(t, "dave"), h.bootstrap(t, "frank")
	held := []*msg.Message{signed(t, dave, 1, "one"), signed(t, dave, 2, "two"), signed(t, dave, 3, "three"), signed(t, frank, 1, "one")}
	h.hold(t, held...)
	served := h.served(t, []wire.Want{{Author: dave.Ident.User, Seqs: []uint64{1, 2, 3}}, {Author: frank.Ident.User, Seqs: []uint64{1}}})
	cert := map[id.UserID][]byte{dave.Ident.User: dave.Cert.DER, frank.Ident.User: frank.Cert.DER}
	for i, m := range served {
		want := cert[m.Author]
		if i > 0 && served[i-1].Author == m.Author {
			want = nil
		}
		if !bytes.Equal(m.CertDER, want) {
			t.Errorf("copy %d, %s, crossed with a %d-byte certificate, want %d bytes", i, m.Ref(), len(m.CertDER), len(want))
		}
	}
	want := map[msg.Ref][]byte{}
	for _, m := range held {
		want[m.Ref()] = cert[m.Author]
	}
	h.fetch(t, want)
}

// TestEachCertificateOfOneAuthorCrosses: a blank certificate stands for
// the same bytes, not the same author. Alice holds two messages of
// dave's under two certificates of his, and three of her own: two under
// her earlier certificate and one under the one her device presents.
// Only her present one stays behind, as her handshake carried it; the
// receiver takes a blank certificate of hers for that one, so each
// message under her earlier one carries it. A device that fetches the
// five stores each with its own certificate.
func TestEachCertificateOfOneAuthorCrosses(t *testing.T) {
	h := newSyncHarness(t)
	dave := h.bootstrap(t, "dave")
	daveEarlier, aliceEarlier := h.reEnrolled(t, dave), h.reEnrolled(t, h.alice)
	held := []*msg.Message{
		signed(t, aliceEarlier, 1, "earlier"), signed(t, aliceEarlier, 2, "earlier"), signed(t, h.alice, 3, "present"),
		signed(t, daveEarlier, 1, "earlier"), signed(t, dave, 2, "present"),
	}
	h.hold(t, held...)
	want := map[msg.Ref][]byte{
		held[0].Ref(): aliceEarlier.Cert.DER, held[1].Ref(): aliceEarlier.Cert.DER, held[2].Ref(): nil,
		held[3].Ref(): daveEarlier.Cert.DER, held[4].Ref(): dave.Cert.DER,
	}
	for _, m := range h.served(t, []wire.Want{{Author: h.alice.Ident.User, Seqs: []uint64{1, 2, 3}}, {Author: dave.Ident.User, Seqs: []uint64{1, 2}}}) {
		if !bytes.Equal(m.CertDER, want[m.Ref()]) {
			t.Errorf("%s crossed with a %d-byte certificate, want %d bytes", m.Ref(), len(m.CertDER), len(want[m.Ref()]))
		}
	}
	want[held[2].Ref()] = h.alice.Cert.DER
	h.fetch(t, want)
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

// TestBlankCertificateAfterAnotherAuthorFailsVerification: a blank
// certificate stands for the one before it only in a run of one author's
// messages. Bob sends frank's first message with its certificate, then
// dave's and frank's second without: each is checked against bob's
// handshake certificate, frank's too, as dave's came between. Two
// verification failures, unscored, and only frank's first is stored.
func TestBlankCertificateAfterAnotherAuthorFailsVerification(t *testing.T) {
	h := newSyncHarness(t)
	dave, frank := h.bootstrap(t, "dave"), h.bootstrap(t, "frank")
	first, blank, after := signed(t, frank, 1, "first"), signed(t, dave, 1, "blank"), signed(t, frank, 2, "after")
	blank.CertDER, after.CertDER = nil, nil

	h.bob.holdAnswers()
	link := linkScripted(t, h, h.bobAd, h.bob, 1)
	if err := sendFrame(link, &wire.Summary{Gen: 1, Entries: entriesOf(map[id.UserID]uint64{dave.Ident.User: 1, frank.Ident.User: 2})}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.expect(t, "a request to bob", func() bool { return h.bob.requestedSeqs(dave.Ident.User)+h.bob.requestedSeqs(frank.Ident.User) == 3 })
	before := h.mgr.Stats()
	if err := sendFrame(link, &wire.Batch{Msgs: []*msg.Message{first, blank, after}}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	h.run()
	st := h.mgr.Stats()
	if got := st.VerifyFailures - before.VerifyFailures; got != 2 {
		t.Errorf("verify failures +%d, want +2", got)
	}
	if st.MisbehaviorEvents != before.MisbehaviorEvents {
		t.Errorf("misbehavior events %d → %d, want unscored", before.MisbehaviorEvents, st.MisbehaviorEvents)
	}
	for _, m := range []*msg.Message{first, blank, after} {
		if _, ok := h.st.Get(m.Ref()); ok != (m == first) {
			t.Errorf("%s stored: %v, want %v", m.Ref(), ok, m == first)
		}
	}
}
