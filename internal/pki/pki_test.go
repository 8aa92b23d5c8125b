package pki

import (
	"crypto/rand"
	"crypto/x509"
	"errors"
	"testing"
	"time"

	"sos/internal/id"
)

func newTestCA(t *testing.T, opts ...CAOption) *CA {
	t.Helper()
	ca, err := NewCA("AlleyOop Root CA", opts...)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func newTestIdentity(t *testing.T, handle string) *id.Identity {
	t.Helper()
	ident, err := id.NewIdentity(id.NewUserID(handle), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	return ident
}

func TestIssueAndVerify(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")

	cert, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if cert.User != alice.User {
		t.Errorf("issued cert user = %v, want %v", cert.User, alice.User)
	}

	v, err := NewVerifier(ca.RootDER(), time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	got, err := v.Verify(cert.DER)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got.User != alice.User {
		t.Errorf("verified user = %v, want %v", got.User, alice.User)
	}
	if !got.Key.Equal(alice.Public()) {
		t.Error("verified key does not match identity key")
	}
}

func TestVerifyRejectsForeignCA(t *testing.T) {
	caA := newTestCA(t)
	caB := newTestCA(t)
	alice := newTestIdentity(t, "alice")

	cert, err := caB.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	v, err := NewVerifier(caA.RootDER(), time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	if _, err := v.Verify(cert.DER); !errors.Is(err, ErrUntrusted) {
		t.Errorf("Verify under wrong root: err = %v, want ErrUntrusted", err)
	}
}

func TestVerifyRejectsGarbage(t *testing.T) {
	ca := newTestCA(t)
	v, err := NewVerifier(ca.RootDER(), time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	if _, err := v.Verify([]byte("junk")); err == nil {
		t.Error("Verify(junk): want error, got nil")
	}
}

func TestRevocationVisibleAfterSync(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	cert, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	v, err := NewVerifier(ca.RootDER(), time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}

	ca.revoke(cert.Serial)

	// Before the device syncs its CRL, the certificate still verifies —
	// exactly the offline-revocation limitation the paper describes.
	if _, err := v.Verify(cert.DER); err != nil {
		t.Errorf("pre-sync Verify: unexpected error %v", err)
	}

	v.UpdateCRL(ca.CRL())
	if _, err := v.Verify(cert.DER); !errors.Is(err, ErrRevoked) {
		t.Errorf("post-sync Verify: err = %v, want ErrRevoked", err)
	}
}

func TestRevokeUser(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	if ca.RevokeUser(alice.User) {
		t.Error("RevokeUser before issuance: want false")
	}
	cert, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if !ca.RevokeUser(alice.User) {
		t.Error("RevokeUser after issuance: want true")
	}
	if _, ok := ca.CRL()[cert.Serial]; !ok {
		t.Error("revoked serial missing from CRL")
	}
}

func TestExpiryUnderVirtualClock(t *testing.T) {
	current := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return current }

	ca := newTestCA(t, WithClock(clock))
	alice := newTestIdentity(t, "alice")
	cert, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	v, err := NewVerifier(ca.RootDER(), clock)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	if _, err := v.Verify(cert.DER); err != nil {
		t.Fatalf("Verify while fresh: %v", err)
	}

	current = current.Add(DefaultLeafValidity + 24*time.Hour)
	if _, err := v.Verify(cert.DER); !errors.Is(err, ErrExpired) {
		t.Errorf("Verify after expiry: err = %v, want ErrExpired", err)
	}

	// Replenishing (re-issuing) restores verifiability — the online-only
	// renewal path.
	renewed, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("re-Issue: %v", err)
	}
	if _, err := v.Verify(renewed.DER); err != nil {
		t.Errorf("Verify renewed: %v", err)
	}
}

func TestVerifyForUserMismatch(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	cert, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	v, err := NewVerifier(ca.RootDER(), time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	if _, err := v.VerifyFor(cert.DER, alice.User); err != nil {
		t.Errorf("VerifyFor correct user: %v", err)
	}
	bob := id.NewUserID("bob")
	if _, err := v.VerifyFor(cert.DER, bob); !errors.Is(err, ErrUserMismatch) {
		t.Errorf("VerifyFor wrong user: err = %v, want ErrUserMismatch", err)
	}
}

func TestIssueRejectsZeroUserAndNilKey(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	if _, err := ca.Issue(id.UserID{}, alice.Public()); err == nil {
		t.Error("Issue(zero user): want error")
	}
	if _, err := ca.Issue(alice.User, nil); err == nil {
		t.Error("Issue(nil key): want error")
	}
}

func TestSerialsAreUnique(t *testing.T) {
	ca := newTestCA(t)
	seen := make(map[string]bool)
	for i := 0; i < 20; i++ {
		ident := newTestIdentity(t, string(rune('a'+i)))
		cert, err := ca.Issue(ident.User, ident.Public())
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		if seen[cert.Serial] {
			t.Fatalf("duplicate serial %s", cert.Serial)
		}
		seen[cert.Serial] = true
	}
}

func TestLeafCannotSignCerts(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	cert, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	parsed, err := x509.ParseCertificate(cert.DER)
	if err != nil {
		t.Fatalf("parsing issued certificate: %v", err)
	}
	if parsed.IsCA {
		t.Error("leaf certificate is marked as CA")
	}
}

func TestCRLIsACopy(t *testing.T) {
	ca := newTestCA(t)
	alice := newTestIdentity(t, "alice")
	cert, err := ca.Issue(alice.User, alice.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	ca.revoke(cert.Serial)
	crl := ca.CRL()
	delete(crl, cert.Serial)
	if _, ok := ca.CRL()[cert.Serial]; !ok {
		t.Error("mutating the returned CRL affected the CA's internal state")
	}
}
