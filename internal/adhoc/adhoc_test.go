package adhoc

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/pki"
	"sos/internal/secure"
	"sos/internal/wire"
)

// capture is a Handler that records callbacks; single-threaded tests on
// the sim medium read it directly.
type capture struct {
	discovered map[mpc.PeerID]*wire.Advertisement
	gone       []mpc.PeerID
	ups        []*Link
	frames     []wire.Frame
	downs      []error
}

func newCapture() *capture {
	return &capture{discovered: make(map[mpc.PeerID]*wire.Advertisement)}
}

func (c *capture) Bind(*Manager)                                          {}
func (c *capture) PeerDiscovered(peer mpc.PeerID, ad *wire.Advertisement) { c.discovered[peer] = ad }
func (c *capture) PeerGone(peer mpc.PeerID)                               { c.gone = append(c.gone, peer) }
func (c *capture) LinkUp(link *Link)                                      { c.ups = append(c.ups, link) }
func (c *capture) FrameIn(_ *Link, f wire.Frame)                          { c.frames = append(c.frames, f) }
func (c *capture) LinkDown(_ *Link, reason error)                         { c.downs = append(c.downs, reason) }

// world bundles a CA-backed pair of devices on a sim medium.
type world struct {
	clk    *clock.Virtual
	medium *mpc.SimMedium
	ca     *pki.CA
	svc    *cloud.Service
}

var epoch = time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC)

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	ca, err := pki.NewCA("AlleyOop Root CA", pki.WithClock(clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return &world{
		clk:    clk,
		medium: mpc.NewSimMedium(clk),
		ca:     ca,
		svc:    cloud.New(ca, cloud.WithClock(clk.Now)),
	}
}

// device creates a bootstrapped manager joined to the sim medium.
func (w *world) device(t *testing.T, handle string, h Handler) (*Manager, *cloud.Credentials) {
	t.Helper()
	return w.deviceOn(t, w.medium, handle, h)
}

// deviceOn is device joining through medium: the sim medium, or a wrapper
// a test put around it.
func (w *world) deviceOn(t *testing.T, medium mpc.Medium, handle string, h Handler) (*Manager, *cloud.Credentials) {
	t.Helper()
	creds, err := cloud.Bootstrap(w.svc, handle, rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	m, err := New(Config{
		Medium:   medium,
		PeerName: mpc.PeerID(handle + "-phone"),
		Ident:    creds.Ident,
		CertDER:  creds.Cert.DER,
		Verifier: verifier,
		Handler:  h,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", handle, err)
	}
	return m, creds
}

// pump advances virtual time, draining the medium.
func (w *world) pump(d time.Duration) {
	upto := w.clk.Now().Add(d)
	w.medium.RunUntil(upto)
	w.clk.Set(upto)
}

func TestDiscoveryViaAdvertisement(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	alice := id.NewUserID("alice")
	if err := ma.Advertise(&wire.Advertisement{
		Peer:    string(ma.Self()),
		Gen:     1,
		Summary: map[id.UserID]uint64{alice: 7},
	}); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)

	ad := cb.discovered[ma.Self()]
	if ad == nil {
		t.Fatal("bob never discovered alice")
	}
	if ad.Summary[alice] != 7 {
		t.Errorf("advertised summary = %v, want alice:7", ad.Summary)
	}

	w.medium.CutLink(ma.Self(), mb.Self())
	w.pump(time.Second)
	if len(cb.gone) != 1 || cb.gone[0] != ma.Self() {
		t.Errorf("gone = %v, want [alice-phone]", cb.gone)
	}
}

func TestHandshakeEstablishesAuthenticatedLink(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, credsA := w.device(t, "alice", ca)
	mb, credsB := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.PeerToPeerWiFi)
	w.pump(2 * time.Second)

	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatalf("link ups = %d/%d, want 1/1", len(ca.ups), len(cb.ups))
	}
	// Each side sees the *user* behind the peer, verified via certificate.
	if got := ca.ups[0].User(); got != credsB.Ident.User {
		t.Errorf("alice sees user %v, want bob (%v)", got, credsB.Ident.User)
	}
	if got := cb.ups[0].User(); got != credsA.Ident.User {
		t.Errorf("bob sees user %v, want alice (%v)", got, credsA.Ident.User)
	}
	if ma.Stats().HandshakesOK != 1 || mb.Stats().HandshakesOK != 1 {
		t.Errorf("handshake counters = %+v / %+v", ma.Stats(), mb.Stats())
	}
}

func TestFramesFlowEncrypted(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.PeerToPeerWiFi)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)
	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatal("link never established")
	}

	alice := id.NewUserID("alice")
	req := &wire.Request{Wants: []wire.Want{{Author: alice, Seqs: []uint64{1, 2}}}}
	if err := ca.ups[0].SendFrame(req); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	w.pump(time.Second)

	if len(cb.frames) != 1 {
		t.Fatalf("bob frames = %d, want 1", len(cb.frames))
	}
	got, ok := cb.frames[0].(*wire.Request)
	if !ok || len(got.Wants) != 1 || got.Wants[0].Seqs[1] != 2 {
		t.Errorf("frame = %+v, want the request", cb.frames[0])
	}

	// Reply in the other direction.
	if err := cb.ups[0].SendFrame(&wire.SummaryPull{}); err != nil {
		t.Fatalf("reply SendFrame: %v", err)
	}
	w.pump(time.Second)
	if len(ca.frames) != 1 {
		t.Fatalf("alice frames = %d, want 1", len(ca.frames))
	}
}

func TestRejectsForeignCA(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)

	// Mallory runs her own CA and issues herself a certificate.
	foreignCA, err := pki.NewCA("Evil CA", pki.WithClock(w.clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	malloryIdent, err := id.NewIdentity(id.NewUserID("mallory"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	malloryCert, err := foreignCA.Issue(malloryIdent.User, malloryIdent.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	malloryVerifier, err := pki.NewVerifier(foreignCA.RootDER(), w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mm, err := New(Config{
		Medium:   w.medium,
		PeerName: "mallory-phone",
		Ident:    malloryIdent,
		CertDER:  malloryCert.DER,
		Verifier: malloryVerifier,
		Handler:  cb,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatalf("New(mallory): %v", err)
	}

	w.medium.SetLink(ma.Self(), mm.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := mm.Connect(ma.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 0 || len(cb.ups) != 0 {
		t.Error("link established despite untrusted certificate")
	}
	if ma.Stats().CertRejections == 0 {
		t.Error("alice never recorded a certificate rejection")
	}
}

func TestRejectsRevokedCertAfterCRLSync(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, credsB := w.device(t, "bob", cb)

	// Bob's device is reported compromised; alice syncs the CRL while she
	// still has connectivity.
	if err := w.svc.RevokeUser(credsB.Ident.User); err != nil {
		t.Fatalf("RevokeUser: %v", err)
	}
	crl, err := w.svc.SyncCRL()
	if err != nil {
		t.Fatalf("SyncCRL: %v", err)
	}
	// Reach into alice's verifier through the config used at New; the
	// verifier is shared state.
	verifierOf(t, ma).UpdateCRL(crl)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := mb.Connect(ma.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 0 {
		t.Error("alice accepted a revoked certificate")
	}
	if ma.Stats().CertRejections == 0 {
		t.Error("no certificate rejection recorded")
	}
}

// verifierOf exposes the manager's verifier for CRL updates in tests.
func verifierOf(t *testing.T, m *Manager) *pki.Verifier {
	t.Helper()
	return m.cfg.Verifier
}

func TestRejectsStolenCertificate(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	_, credsB := w.device(t, "bob", cb)

	// Mallory presents bob's (valid) certificate but holds her own key.
	malloryIdent, err := id.NewIdentity(id.NewUserID("mallory"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	verifier, err := pki.NewVerifier(credsB.RootDER, w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mm, err := New(Config{
		Medium:   w.medium,
		PeerName: "mallory-phone",
		Ident:    malloryIdent,
		CertDER:  credsB.Cert.DER, // stolen!
		Verifier: verifier,
		Handler:  newCapture(),
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatalf("New(mallory): %v", err)
	}

	w.medium.SetLink(ma.Self(), mm.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := mm.Connect(ma.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 0 {
		t.Error("alice linked with a peer that does not own its certificate")
	}
}

// tapMedium records a copy of every frame delivered to the endpoints
// joined through it: what an eavesdropper on the radio holds.
type tapMedium struct {
	mpc.Medium
	frames *[][]byte
}

func (m tapMedium) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	return m.Medium.Join(peer, tapEvents{ev, m.frames})
}

type tapEvents struct {
	mpc.Events
	frames *[][]byte
}

func (e tapEvents) Received(conn mpc.Conn, frame []byte) {
	*e.frames = append(*e.frames, append([]byte(nil), frame...))
	e.Events.Received(conn, frame)
}

// TestRecordedFramesDieWithTheirLink pins what lets a session keep no
// replay state beyond its own life: frames recorded on one link between
// two identities do not open on a later link between the same two, because
// each handshake draws both nonces afresh and the session keys are bound
// to them. A recorded frame below the new session's watermark is discarded
// as stale; the first one at or above it fails authentication and ends the
// link like any key mismatch. None reaches the handler.
func TestRecordedFramesDieWithTheirLink(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	var tapped [][]byte
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.deviceOn(t, tapMedium{w.medium, &tapped}, "bob", cb)

	// linkUp brings a link up with alice dialing and returns bob's
	// connection state for it.
	linkUp := func(n int) *connState {
		t.Helper()
		w.medium.SetLink(ma.Self(), mb.Self(), mpc.PeerToPeerWiFi)
		w.pump(2 * time.Second)
		if err := ma.Connect(mb.Self()); err != nil {
			t.Fatalf("Connect %d: %v", n, err)
		}
		w.pump(2 * time.Second)
		if len(ca.ups) != n || len(cb.ups) != n {
			t.Fatalf("link ups = %d/%d, want %d/%d", len(ca.ups), len(cb.ups), n, n)
		}
		mb.mu.Lock()
		defer mb.mu.Unlock()
		return mb.conns[cb.ups[n-1].conn]
	}
	send := func(link *Link, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := link.SendFrame(&wire.SummaryPull{}); err != nil {
				t.Fatalf("SendFrame: %v", err)
			}
		}
		w.pump(time.Second)
	}

	// Link one: alice sends three frames (sequences 1..3 after her
	// HelloFin), bob's radio records them.
	st1 := linkUp(1)
	handshake := len(tapped)
	send(ca.ups[0], 3)
	recorded := tapped[handshake:]
	if len(recorded) != 3 || len(cb.frames) != 3 {
		t.Fatalf("link one: recorded %d frames, delivered %d, want 3 and 3", len(recorded), len(cb.frames))
	}
	w.medium.CutLink(ma.Self(), mb.Self())
	w.pump(time.Second)
	if len(cb.downs) != 1 {
		t.Fatalf("link downs = %d, want 1", len(cb.downs))
	}

	// Link two, same identities: two fresh frames put bob's watermark at
	// 3, between the recorded sequences.
	st2 := linkUp(2)
	if st1.nonceI == st2.nonceI || st1.nonceR == st2.nonceR {
		t.Fatalf("the links share a handshake nonce: initiator %x/%x, responder %x/%x",
			st1.nonceI, st2.nonceI, st1.nonceR, st2.nonceR)
	}
	send(ca.ups[1], 2)
	delivered, failures := len(cb.frames), mb.Stats().DecryptionFailures
	for _, frame := range recorded {
		(*events)(mb).Received(st2.conn, frame)
	}
	w.pump(time.Second)

	if len(cb.frames) != delivered {
		t.Errorf("%d recorded frames reached the handler on the second link", len(cb.frames)-delivered)
	}
	if got := mb.Stats().DecryptionFailures - failures; got != 3 {
		t.Errorf("decryption failures rose by %d, want 3 (two stale, one unauthentic)", got)
	}
	if len(cb.downs) != 2 {
		t.Fatalf("link downs = %d, want 2: an unauthentic frame ends the link", len(cb.downs))
	}
	if err := cb.downs[1]; err == nil || errors.Is(err, secure.ErrReplay) {
		t.Errorf("second link ended with %v, want an authentication failure", err)
	}
}

func TestLinkDownOnContactLoss(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)
	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatal("link never established")
	}

	w.medium.CutLink(ma.Self(), mb.Self())
	w.pump(time.Second)

	if len(ca.downs) != 1 || len(cb.downs) != 1 {
		t.Fatalf("link downs = %d/%d, want 1/1", len(ca.downs), len(cb.downs))
	}
	// Sending on the dead link fails.
	if err := ca.ups[0].SendFrame(&wire.SummaryPull{}); err == nil {
		t.Error("SendFrame on dead link succeeded")
	}
}

func TestByeClosesBothSides(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)
	if len(ca.ups) != 1 {
		t.Fatal("link never established")
	}

	if err := ca.ups[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w.pump(time.Second)
	if len(ca.downs) != 1 || len(cb.downs) != 1 {
		t.Errorf("downs = %d/%d, want 1/1", len(ca.downs), len(cb.downs))
	}
}

func TestSimultaneousConnectYieldsOneLink(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)

	// Both sides connect before either Incoming fires.
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("alice Connect: %v", err)
	}
	if err := mb.Connect(ma.Self()); err != nil {
		t.Fatalf("bob Connect: %v", err)
	}
	w.pump(5 * time.Second)

	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatalf("link ups = %d/%d, want exactly 1/1", len(ca.ups), len(cb.ups))
	}
}

func TestConnectGuards(t *testing.T) {
	w := newWorld(t)
	ma, _ := w.device(t, "alice", newCapture())
	mb, _ := w.device(t, "bob", newCapture())

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// Second connect while the first handshake is still pending.
	if err := ma.Connect(mb.Self()); !errors.Is(err, ErrLinkExists) {
		t.Errorf("double connect: err = %v, want ErrLinkExists", err)
	}
	w.pump(2 * time.Second)
	// And after establishment.
	if err := ma.Connect(mb.Self()); !errors.Is(err, ErrLinkExists) {
		t.Errorf("connect with live link: err = %v, want ErrLinkExists", err)
	}
}

// swallowMedium drops the nth frame delivered to the endpoint joined
// through it, counting from 1 (0 drops none): one handshake frame the
// radio lost. It keeps a copy of the lost frame.
type swallowMedium struct {
	mpc.Medium
	nth  int
	lost []byte
}

func (m *swallowMedium) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	return m.Medium.Join(peer, &swallowEvents{Events: ev, medium: m, left: m.nth})
}

type swallowEvents struct {
	mpc.Events
	medium *swallowMedium
	left   int
}

func (e *swallowEvents) Received(conn mpc.Conn, frame []byte) {
	if e.left--; e.left != 0 {
		e.Events.Received(conn, frame)
		return
	}
	e.medium.lost = append([]byte(nil), frame...)
}

// deliverLate runs the handshake step Received would run for st, as a
// callback that looked st up just before ExpireHandshakes swept it.
func deliverLate(m *Manager, st *connState, frame []byte) {
	switch st.stage {
	case stageAwaitHello:
		m.onHello(st, frame)
	case stageHelloSent:
		m.onHelloAck(st, frame)
	case stageAwaitFin:
		m.onSealed(st, frame, true)
	}
}

// TestExpireHandshakes loses each handshake frame in turn. The first
// ExpireHandshakes call leaves the wedged connection alive, the second
// fails it on every side still mid-handshake, and a re-dial then links;
// an established link is never expired. The lost frame then turns up in
// a callback that read its connection just before the sweep: the swept
// handshake neither becomes a link nor counts as a second failure.
func TestExpireHandshakes(t *testing.T) {
	for _, tc := range []struct {
		name             string
		aliceNth, bobNth int       // frame each side's radio swallows
		wantFailures     [2]uint64 // alice, bob after the second call
	}{
		{"hello", 0, 1, [2]uint64{1, 1}},
		{"hello-ack", 1, 0, [2]uint64{1, 1}},
		{"hello-fin", 0, 2, [2]uint64{0, 1}}, // alice is linked; bob waits
		{"established", 0, 0, [2]uint64{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			ca, cb := newCapture(), newCapture()
			sa := &swallowMedium{Medium: w.medium, nth: tc.aliceNth}
			sb := &swallowMedium{Medium: w.medium, nth: tc.bobNth}
			ma, _ := w.deviceOn(t, sa, "alice", ca)
			mb, _ := w.deviceOn(t, sb, "bob", cb)
			w.medium.SetLink(ma.Self(), mb.Self(), mpc.PeerToPeerWiFi)
			w.pump(2 * time.Second)
			if err := ma.Connect(mb.Self()); err != nil {
				t.Fatalf("Connect: %v", err)
			}
			w.pump(2 * time.Second)

			sweep := func() {
				ma.ExpireHandshakes()
				mb.ExpireHandshakes()
				w.pump(time.Second)
			}
			state := func() (failures [2]uint64, conns, links [2]int) {
				for i, m := range []*Manager{ma, mb} {
					m.mu.Lock()
					failures[i], conns[i], links[i] = m.stats.HandshakeFailures, len(m.conns), len(m.links)
					m.mu.Unlock()
				}
				return failures, conns, links
			}
			pending := func(m *Manager) *connState {
				m.mu.Lock()
				defer m.mu.Unlock()
				for _, st := range m.conns {
					return st
				}
				return nil
			}

			sweep()
			if failures, conns, _ := state(); failures != ([2]uint64{}) || conns != [2]int{1, 1} {
				t.Fatalf("after one call: failures %v, connections %v; want none failed, one each", failures, conns)
			}
			stA, stB := pending(ma), pending(mb)
			sweep()
			failures, conns, _ := state()
			if failures != tc.wantFailures {
				t.Fatalf("after two calls: failures %v, want %v", failures, tc.wantFailures)
			}
			if tc.wantFailures == ([2]uint64{}) {
				if conns != [2]int{1, 1} || len(ca.downs)+len(cb.downs) != 0 {
					t.Fatalf("established link expired: connections %v, downs %d/%d", conns, len(ca.downs), len(cb.downs))
				}
				return
			}
			if conns != [2]int{0, 0} {
				t.Fatalf("after two calls: connections %v, want none", conns)
			}

			ups := len(ca.ups) + len(cb.ups)
			if sa.lost != nil {
				deliverLate(ma, stA, sa.lost)
			}
			if sb.lost != nil {
				deliverLate(mb, stB, sb.lost)
			}
			w.pump(time.Second)
			failures, conns, links := state()
			if failures != tc.wantFailures || conns != [2]int{0, 0} || links != [2]int{0, 0} ||
				len(ca.ups)+len(cb.ups) != ups {
				t.Fatalf("late frame revived the swept handshake: failures %v, connections %v, links %v, ups %d → %d",
					failures, conns, links, ups, len(ca.ups)+len(cb.ups))
			}

			// Nothing is left to refuse the re-dial as in progress.
			if err := ma.Connect(mb.Self()); err != nil {
				t.Fatalf("re-dial: %v", err)
			}
			w.pump(2 * time.Second)
			if _, _, links := state(); links != [2]int{1, 1} {
				t.Fatalf("re-dial did not link: links %v, %+v / %+v", links, ma.Stats(), mb.Stats())
			}
		})
	}
}

// hangUpMedium drops the connection as the first frame arrives at the
// endpoint joined through it, then delivers the frame, so the
// handshake's reply to it cannot be sent. Later frames pass untouched.
type hangUpMedium struct{ mpc.Medium }

func (m hangUpMedium) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	return m.Medium.Join(peer, &hangUpEvents{Events: ev})
}

type hangUpEvents struct {
	mpc.Events
	done bool
}

func (e *hangUpEvents) Received(conn mpc.Conn, frame []byte) {
	if !e.done {
		e.done = true
		conn.Close()
	}
	e.Events.Received(conn, frame)
}

// TestFailedHelloFinLeavesNoLink: alice's radio drops the connection as
// bob's HelloAck arrives, so her HelloFin send fails after she has
// registered the link. No link may be left to refuse the re-dial, no
// LinkUp or LinkDown fires for it, and a re-dial links.
func TestFailedHelloFinLeavesNoLink(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.deviceOn(t, hangUpMedium{w.medium}, "alice", ca)
	mb, _ := w.device(t, "bob", cb)
	w.medium.SetLink(ma.Self(), mb.Self(), mpc.PeerToPeerWiFi)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)
	ma.mu.Lock()
	conns, links := len(ma.conns), len(ma.links)
	ma.mu.Unlock()
	if conns != 0 || links != 0 {
		t.Fatalf("after the failed HelloFin alice holds %d connections and %d links, want none", conns, links)
	}
	if n := len(ca.ups) + len(ca.downs) + len(cb.ups) + len(cb.downs); n != 0 {
		t.Fatalf("%d LinkUp/LinkDown callbacks for a link that never came up", n)
	}
	if a, b := ma.Stats().HandshakeFailures, mb.Stats().HandshakeFailures; a != 1 || b != 1 {
		t.Errorf("HandshakeFailures alice %d, bob %d; want 1 each", a, b)
	}

	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("re-dial: %v", err)
	}
	w.pump(2 * time.Second)
	if len(ca.ups) != 1 || len(cb.ups) != 1 || len(ca.downs)+len(cb.downs) != 0 {
		t.Fatalf("re-dial: ups %d/%d, downs %d/%d; want one up each, no down", len(ca.ups), len(cb.ups), len(ca.downs), len(cb.downs))
	}
}

func TestManagerClose(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if err := ma.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(ca.downs) != 1 {
		t.Errorf("local LinkDown on close = %d, want 1", len(ca.downs))
	}
	if err := ma.Connect(mb.Self()); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect after close: err = %v, want ErrClosed", err)
	}
	if err := ma.Advertise(&wire.Advertisement{Peer: string(ma.Self())}); !errors.Is(err, ErrClosed) {
		t.Errorf("Advertise after close: err = %v, want ErrClosed", err)
	}
	if err := ma.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	w := newWorld(t)
	creds, err := cloud.Bootstrap(w.svc, "carol", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	base := Config{
		Medium:   w.medium,
		PeerName: "carol-phone",
		Ident:    creds.Ident,
		CertDER:  creds.Cert.DER,
		Verifier: verifier,
		Handler:  newCapture(),
	}

	broken := base
	broken.Medium = nil
	if _, err := New(broken); err == nil {
		t.Error("nil medium accepted")
	}
	broken = base
	broken.Handler = nil
	if _, err := New(broken); err == nil {
		t.Error("nil handler accepted")
	}
	broken = base
	broken.CertDER = nil
	if _, err := New(broken); err == nil {
		t.Error("missing certificate accepted")
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestLiveMediumHandshake runs the full handshake over the goroutine-based
// medium to prove the manager is thread-safe in live mode.
func TestLiveMediumHandshake(t *testing.T) {
	medium := mpc.NewMemMedium()
	caSvc, err := pki.NewCA("AlleyOop Root CA")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	svc := cloud.New(caSvc)

	type side struct {
		mgr  *Manager
		ups  chan *Link
		recv chan wire.Frame
	}
	mk := func(handle string) side {
		creds, err := cloud.Bootstrap(svc, handle, rand.Reader)
		if err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
		verifier, err := pki.NewVerifier(creds.RootDER, time.Now)
		if err != nil {
			t.Fatalf("NewVerifier: %v", err)
		}
		s := side{ups: make(chan *Link, 1), recv: make(chan wire.Frame, 16)}
		mgr, err := New(Config{
			Medium:   medium,
			PeerName: mpc.PeerID(handle),
			Ident:    creds.Ident,
			CertDER:  creds.Cert.DER,
			Verifier: verifier,
			Handler:  &chanHandler{ups: s.ups, recv: s.recv},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.mgr = mgr
		return s
	}
	alice, bob := mk("alice"), mk("bob")
	defer alice.mgr.Close()
	defer bob.mgr.Close()

	if err := alice.mgr.Connect("bob"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	var aliceLink, bobLink *Link
	select {
	case aliceLink = <-alice.ups:
	case <-time.After(5 * time.Second):
		t.Fatal("alice link timeout")
	}
	select {
	case bobLink = <-bob.ups:
	case <-time.After(5 * time.Second):
		t.Fatal("bob link timeout")
	}

	if err := aliceLink.SendFrame(&wire.SummaryPull{}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	select {
	case f := <-bob.recv:
		if _, ok := f.(*wire.SummaryPull); !ok {
			t.Errorf("bob received %T, want *wire.SummaryPull", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob frame timeout")
	}
	_ = bobLink
}

// chanHandler bridges Handler callbacks onto channels for live tests.
type chanHandler struct {
	ups  chan *Link
	recv chan wire.Frame
}

func (h *chanHandler) Bind(*Manager)                                  {}
func (h *chanHandler) PeerDiscovered(mpc.PeerID, *wire.Advertisement) {}
func (h *chanHandler) PeerGone(mpc.PeerID)                            {}
func (h *chanHandler) LinkUp(l *Link) {
	select {
	case h.ups <- l:
	default:
	}
}
func (h *chanHandler) FrameIn(_ *Link, f wire.Frame) {
	select {
	case h.recv <- f:
	default:
	}
}
func (h *chanHandler) LinkDown(*Link, error) {}
