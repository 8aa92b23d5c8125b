package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"sos/internal/id"
)

// These tests pin the table of already-verified certificates: a verifier
// that remembers must be indistinguishable, call by call, from one that
// has never seen a certificate before.

func newTestVerifier(t *testing.T, ca *CA, now func() time.Time) *Verifier {
	t.Helper()
	v, err := NewVerifier(ca.RootDER(), now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	return v
}

func mustIssue(t *testing.T, ca *CA, ident *id.Identity) *UserCert {
	t.Helper()
	cert, err := ca.Issue(ident.User, ident.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return cert
}

// issueMany returns n distinct certificates from ca. They share one key:
// the table is keyed by certificate bytes, and the serial alone makes
// those differ.
func issueMany(t *testing.T, ca *CA, n int) []*UserCert {
	t.Helper()
	ident := newTestIdentity(t, "shared-key")
	certs := make([]*UserCert, n)
	for i := range certs {
		cert, err := ca.Issue(id.NewUserID(fmt.Sprintf("user-%d", i)), ident.Public())
		if err != nil {
			t.Fatalf("Issue %d: %v", i, err)
		}
		certs[i] = cert
	}
	return certs
}

// issueRaw signs an arbitrary leaf with the CA's key, for the certificates
// CA.Issue refuses to make: a non-ECDSA key, a common name that is no user
// identifier.
func issueRaw(t *testing.T, ca *CA, serial int64, commonName string, pub any, notBefore time.Time) []byte {
	t.Helper()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: commonName},
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(48 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		t.Fatalf("CreateCertificate: %v", err)
	}
	return der
}

var errorClasses = []error{ErrRevoked, ErrExpired, ErrUntrusted, ErrNotECDSA, ErrBadUserID, ErrUserMismatch}

// sameOutcome fails the test unless two verifications agree: on success
// every UserCert field, on failure the errors.Is class and the message.
func sameOutcome(t *testing.T, step string, got *UserCert, gotErr error, want *UserCert, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: remembering verifier err = %v, fresh verifier err = %v", step, gotErr, wantErr)
	}
	if wantErr != nil {
		for _, class := range errorClasses {
			if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
				t.Fatalf("%s: error class differs on %v: got %v, want %v", step, class, gotErr, wantErr)
			}
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text differs:\n got  %v\n want %v", step, gotErr, wantErr)
		}
		if got != nil {
			t.Fatalf("%s: a certificate came back beside error %v", step, gotErr)
		}
		return
	}
	if got.User != want.User || got.Serial != want.Serial || !got.Key.Equal(want.Key) ||
		!bytes.Equal(got.DER, want.DER) ||
		!got.NotBefore.Equal(want.NotBefore) || !got.NotAfter.Equal(want.NotAfter) {
		t.Fatalf("%s: certificates differ:\n got  %+v\n want %+v", step, got, want)
	}
}

// TestVerifierEquivalentToFresh is the equivalence property. Each seeded
// sequence mixes Verify and VerifyFor calls with CRL updates and clock
// moves — forward and backward, across leaf windows and across the root's
// NotAfter — and after every call compares the long-lived verifier with
// one built for that call alone from the same root, CRL and clock.
func TestVerifierEquivalentToFresh(t *testing.T) {
	t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	current := t0
	clock := func() time.Time { return current }

	leaf := DefaultLeafValidity
	ca := newTestCA(t, WithClock(clock))
	foreign := newTestCA(t, WithClock(clock))
	alice, bob := newTestIdentity(t, "alice"), newTestIdentity(t, "bob")

	aliceCert, bobCert := mustIssue(t, ca, alice), mustIssue(t, ca, bob)
	foreignCert := mustIssue(t, foreign, alice)
	current = t0.Add(24 * time.Hour)
	renewed := mustIssue(t, ca, alice)
	rootEnd := ca.cert.NotAfter
	current = rootEnd.Add(-time.Hour)
	late := mustIssue(t, ca, bob) // its window straddles the root's NotAfter
	current = t0

	_, edKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), aliceCert.DER...)
	tampered[len(tampered)-1] ^= 1 // parses, but the CA's signature no longer holds

	ders := [][]byte{
		aliceCert.DER, bobCert.DER, renewed.DER, late.DER,
		foreignCert.DER,
		[]byte("junk"), nil, aliceCert.DER[:len(aliceCert.DER)/2], tampered,
		issueRaw(t, ca, 1001, id.NewUserID("carol").String(), edKey.Public(), t0),
		issueRaw(t, ca, 1002, "not a user identifier", alice.Public(), t0),
	}
	owners := []id.UserID{alice.User, bob.User, alice.User, bob.User} // of ders[:4]
	users := []id.UserID{alice.User, bob.User, id.NewUserID("carol")}
	serials := []string{aliceCert.Serial, bobCert.Serial, renewed.Serial, late.Serial, foreignCert.Serial, "1001", "1002"}
	instants := []time.Time{
		t0.Add(-time.Hour),             // before everything, the root included
		t0.Add(time.Hour),              // first issue valid, renewal not yet
		t0.Add(30 * time.Hour),         // both valid
		t0.Add(leaf + 12*time.Hour),    // first issue expired, renewal valid
		rootEnd.Add(-30 * time.Minute), // late certificate and root valid
		rootEnd.Add(30 * time.Minute),  // late certificate in its window, root expired
		rootEnd.Add(leaf),              // everything expired
		t0.Add(leaf),                   // exactly NotAfter of the first issue
		t0.Add(leaf + time.Second),     // one second past it
	}

	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	var hits uint64
	for seed := 0; seed < sequences; seed++ {
		rng := mrand.New(mrand.NewSource(int64(seed)))
		current = t0.Add(time.Hour)
		crl := map[string]time.Time{}
		v := newTestVerifier(t, ca, clock)
		for step := 0; step < 32; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 7:
				// Two calls in three present one of the four certificates
				// that can verify, so the table is filled and then hit.
				n := rng.Intn(4)
				if rng.Intn(3) == 0 {
					n = rng.Intn(len(ders))
				}
				der := ders[n]
				fresh := newTestVerifier(t, ca, clock)
				fresh.UpdateCRL(crl)
				if op < 3 {
					got, gotErr := v.Verify(der)
					want, wantErr := fresh.Verify(der)
					sameOutcome(t, where+" Verify", got, gotErr, want, wantErr)
				} else {
					user := users[rng.Intn(len(users))]
					if n < len(owners) && rng.Intn(2) == 0 {
						user = owners[n]
					}
					got, gotErr := v.VerifyFor(der, user)
					want, wantErr := fresh.VerifyFor(der, user)
					sameOutcome(t, where+" VerifyFor", got, gotErr, want, wantErr)
				}
			case op < 8:
				crl = map[string]time.Time{}
				for _, s := range serials {
					if rng.Intn(6) == 0 {
						crl[s] = current
					}
				}
				v.UpdateCRL(crl)
			default:
				// Half the moves land where several certificates verify.
				current = instants[rng.Intn(len(instants))]
				if rng.Intn(2) == 0 {
					current = t0.Add(30 * time.Hour)
				}
			}
		}
		st := v.Stats()
		if st.Entries > 4 {
			t.Fatalf("seed %d: %d entries, but only 4 of the inputs can ever verify", seed, st.Entries)
		}
		hits += st.Hits
	}
	if hits < 3*uint64(sequences) {
		t.Errorf("%d hits in %d sequences: the property is not exercising the table", hits, sequences)
	}
}

// TestRecheckedAfterHit moves the revocation list and the clock under a
// certificate the verifier already remembers: each takes effect on the
// very next call, and undoing it makes the certificate a hit again.
func TestRecheckedAfterHit(t *testing.T) {
	t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	current := t0.Add(time.Hour)
	clock := func() time.Time { return current }
	ca := newTestCA(t, WithClock(func() time.Time { return t0 }))
	alice := newTestIdentity(t, "alice")
	cert := mustIssue(t, ca, alice)
	v := newTestVerifier(t, ca, clock)

	expect := func(what string, want error, hits, misses, rejected uint64) {
		t.Helper()
		_, err := v.Verify(cert.DER)
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", what, err, want)
		}
		if st := v.Stats(); st.Hits != hits || st.Misses != misses || st.Rejected != rejected || st.Entries != 1 {
			t.Fatalf("%s: stats = %+v, want hits %d misses %d rejected %d entries 1", what, st, hits, misses, rejected)
		}
	}
	expect("first sight", nil, 0, 1, 0)
	expect("second sight", nil, 1, 1, 0)

	v.UpdateCRL(map[string]time.Time{cert.Serial: current})
	expect("revoked after a hit", ErrRevoked, 1, 1, 1)
	v.UpdateCRL(nil)
	expect("un-revoked", nil, 2, 1, 1)

	current = t0.Add(DefaultLeafValidity + 24*time.Hour)
	expect("expired after a hit", ErrExpired, 2, 1, 2)
	current = t0.Add(time.Hour)
	expect("clock back inside the window", nil, 3, 1, 2)

	current = t0.Add(-time.Minute)
	expect("not yet valid after a hit", ErrExpired, 3, 1, 3)
	current = t0.Add(time.Hour)
	expect("clock forward into the window", nil, 4, 1, 3)

	// Revocation wins over expiry, as on the full path.
	v.UpdateCRL(map[string]time.Time{cert.Serial: current})
	current = t0.Add(72 * time.Hour)
	expect("revoked and expired", ErrRevoked, 4, 1, 4)
}

func TestVerifyForUserMismatchOnHit(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	cert := mustIssue(t, ca, alice)
	v := newTestVerifier(t, ca, time.Now)
	for i := 0; i < 2; i++ {
		if _, err := v.VerifyFor(cert.DER, alice.User); err != nil {
			t.Fatalf("VerifyFor the named user, call %d: %v", i, err)
		}
	}
	if uc, err := v.VerifyFor(cert.DER, id.NewUserID("bob")); !errors.Is(err, ErrUserMismatch) || uc != nil {
		t.Fatalf("VerifyFor the wrong user on a remembered certificate: cert %v, err %v; want ErrUserMismatch", uc, err)
	}
	if st := v.Stats(); st.Hits != 1 || st.Misses != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want one hit, one miss, one rejection", st)
	}
}

// TestVerifierOwnsItsBytes overwrites the caller's buffer after a
// successful Verify, as a link does with its frame buffer.
func TestVerifierOwnsItsBytes(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	cert := mustIssue(t, ca, alice)
	v := newTestVerifier(t, ca, time.Now)

	buf := append([]byte(nil), cert.DER...)
	if _, err := v.Verify(buf); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	got, err := v.Verify(append([]byte(nil), cert.DER...))
	if err != nil {
		t.Fatalf("Verify from a second buffer: %v", err)
	}
	if st := v.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the second call to hit", st)
	}
	if !bytes.Equal(got.DER, cert.DER) || !got.Key.Equal(alice.Public()) || got.Serial != cert.Serial || got.User != alice.User {
		t.Errorf("remembered certificate changed with the caller's buffer: %+v", got)
	}
}

func TestFailuresAreNeverRemembered(t *testing.T) {
	ca, foreign := newTestCA(t), newTestCA(t)
	v := newTestVerifier(t, ca, time.Now)
	foreignCerts := issueMany(t, foreign, 100)
	rng := mrand.New(mrand.NewSource(1))
	const each = 10000
	for i := 0; i < each; i++ {
		junk := make([]byte, rng.Intn(600))
		rng.Read(junk)
		if _, err := v.Verify(junk); err == nil {
			t.Fatalf("junk input %d verified", i)
		}
		if _, err := v.Verify(foreignCerts[i%len(foreignCerts)].DER); !errors.Is(err, ErrUntrusted) {
			t.Fatalf("foreign certificate %d: err = %v, want ErrUntrusted", i, err)
		}
	}
	if st := v.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 || st.Rejected != 2*each {
		t.Errorf("stats = %+v, want an empty table and %d rejections", st, 2*each)
	}
}

func TestTableIsBoundedFIFO(t *testing.T) {
	const extra = 16
	ca := newTestCA(t)
	v := newTestVerifier(t, ca, time.Now)
	certs := issueMany(t, ca, maxVerified+extra)
	for i, c := range certs {
		if _, err := v.Verify(c.DER); err != nil {
			t.Fatalf("Verify %d: %v", i, err)
		}
	}
	if st := v.Stats(); st.Entries != maxVerified || st.Misses != uint64(len(certs)) {
		t.Fatalf("stats after %d distinct certificates = %+v, want %d entries", len(certs), st, maxVerified)
	}
	if _, err := v.Verify(certs[len(certs)-1].DER); err != nil || v.Stats().Hits != 1 {
		t.Fatalf("the newest certificate should hit: err %v, stats %+v", err, v.Stats())
	}
	// The 16 oldest went first; each still verifies, by the full path.
	for i := 0; i < extra; i++ {
		uc, err := v.Verify(certs[i].DER)
		if err != nil || uc.User != certs[i].User {
			t.Fatalf("evicted certificate %d: cert %+v, err %v", i, uc, err)
		}
	}
	if st := v.Stats(); st.Entries != maxVerified || st.Hits != 1 || st.Misses != uint64(len(certs)+extra) {
		t.Errorf("stats after re-verifying the evicted = %+v, want %d entries, 1 hit, %d misses", st, maxVerified, len(certs)+extra)
	}
}

func TestVerifiersShareNothing(t *testing.T) {
	caA, caB := newTestCA(t), newTestCA(t)
	vA, vB := newTestVerifier(t, caA, time.Now), newTestVerifier(t, caB, time.Now)
	cert := mustIssue(t, caA, newTestIdentity(t, "alice"))
	for i := 0; i < 2; i++ {
		if _, err := vA.Verify(cert.DER); err != nil {
			t.Fatalf("Verify under its own root: %v", err)
		}
		if _, err := vB.Verify(cert.DER); !errors.Is(err, ErrUntrusted) {
			t.Fatalf("Verify under the other root: err = %v, want ErrUntrusted", err)
		}
	}
	if a, b := vA.Stats(), vB.Stats(); a.Entries != 1 || a.Hits != 1 || b.Entries != 0 || b.Rejected != 2 {
		t.Errorf("stats A %+v, B %+v", a, b)
	}
}

// TestConcurrentVerifyAndCRL is for the race detector: eight goroutines
// verify 32 certificates while another flips half of them on and off the
// revocation list.
func TestConcurrentVerifyAndCRL(t *testing.T) {
	ca := newTestCA(t)
	v := newTestVerifier(t, ca, time.Now)
	certs := issueMany(t, ca, 32)
	revocable := make(map[string]time.Time)
	for _, c := range certs[:16] {
		revocable[c.Serial] = time.Now()
	}

	var verifiers sync.WaitGroup
	for g := 0; g < 8; g++ {
		verifiers.Add(1)
		go func(g int) {
			defer verifiers.Done()
			for i := 0; i < 400; i++ {
				n := (i + g*4) % len(certs)
				uc, err := v.VerifyFor(certs[n].DER, certs[n].User)
				switch {
				case err == nil && uc.Serial == certs[n].Serial:
				case errors.Is(err, ErrRevoked) && n < 16:
				default:
					t.Errorf("certificate %d: cert %+v, err %v", n, uc, err)
					return
				}
			}
		}(g)
	}
	stop, flipped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flipped)
		for on := true; ; on = !on {
			select {
			case <-stop:
				return
			default:
			}
			if on {
				v.UpdateCRL(revocable)
			} else {
				v.UpdateCRL(nil)
			}
		}
	}()
	verifiers.Wait()
	close(stop)
	<-flipped
	if st := v.Stats(); st.Entries > len(certs) || st.Hits+st.Misses+st.Rejected != 8*400 {
		t.Errorf("stats = %+v, want at most %d entries and %d calls", st, len(certs), 8*400)
	}
}

func TestVerifyHitAllocBudget(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	cert := mustIssue(t, ca, alice)
	v := newTestVerifier(t, ca, time.Now)
	if _, err := v.Verify(cert.DER); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := v.Verify(cert.DER); err != nil {
			t.Fatal(err)
		}
		if _, err := v.VerifyFor(cert.DER, alice.User); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a hit allocates %.1f times, want 0", n)
	}
}

func TestNewVerifierNeedsAClock(t *testing.T) {
	ca := newTestCA(t)
	if _, err := NewVerifier(ca.RootDER(), nil); err == nil {
		t.Error("NewVerifier with a nil clock: want an error, not a silent wall clock")
	}
}
