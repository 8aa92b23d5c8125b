package cloud

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/pki"
)

func newService(t *testing.T) *Service {
	t.Helper()
	ca, err := pki.NewCA("AlleyOop Root CA")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return New(ca)
}

func TestSignUp(t *testing.T) {
	svc := newService(t)
	acct, err := svc.signUp("alice")
	if err != nil {
		t.Fatalf("signUp: %v", err)
	}
	if acct.User != id.NewUserID("alice") {
		t.Error("assigned identifier does not match handle derivation")
	}
	if _, err := svc.signUp("alice"); !errors.Is(err, ErrHandleTaken) {
		t.Errorf("duplicate signUp: err = %v, want ErrHandleTaken", err)
	}
	if _, err := svc.signUp(""); err == nil {
		t.Error("empty handle accepted")
	}
}

func TestBootstrapFullFlow(t *testing.T) {
	svc := newService(t)
	creds, err := Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	// The issued certificate must verify against the pinned root and name
	// the same user.
	v, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	uc, err := v.Verify(creds.Cert.DER)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if uc.User != creds.Ident.User {
		t.Errorf("certificate user = %v, want %v", uc.User, creds.Ident.User)
	}
	if !uc.Key.Equal(creds.Ident.Public()) {
		t.Error("certificate key does not match device identity key")
	}
}

// TestEnrollRejectsStolenIdentifier exercises the attack the paper calls
// out in §IV: a malicious device provides someone else's unique
// user-identifier during sign-up, and the cloud must refuse to have a
// certificate generated for it.
func TestEnrollRejectsStolenIdentifier(t *testing.T) {
	svc := newService(t)
	if _, err := svc.signUp("alice"); err != nil {
		t.Fatalf("signUp(alice): %v", err)
	}
	if _, err := svc.signUp("mallory"); err != nil {
		t.Fatalf("signUp(mallory): %v", err)
	}
	malloryKeys, err := id.NewIdentity(id.NewUserID("alice"), rand.Reader) // claims alice's ID
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	_, _, err = svc.enroll("mallory", malloryKeys.User, malloryKeys.Public())
	if !errors.Is(err, ErrIdentifierMismatch) {
		t.Errorf("enroll with stolen identifier: err = %v, want ErrIdentifierMismatch", err)
	}
}

func TestEnrollUnknownAccount(t *testing.T) {
	svc := newService(t)
	ident, err := id.NewIdentity(id.NewUserID("ghost"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	if _, _, err := svc.enroll("ghost", ident.User, ident.Public()); !errors.Is(err, ErrNoAccount) {
		t.Errorf("enroll unknown account: err = %v, want ErrNoAccount", err)
	}
}

func TestOfflineFailsEveryRPC(t *testing.T) {
	svc := newService(t)
	creds, err := Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	svc.SetReachable(false)

	if _, err := svc.signUp("bob"); !errors.Is(err, ErrOffline) {
		t.Errorf("signUp offline: err = %v, want ErrOffline", err)
	}
	if _, _, err := svc.enroll("alice", creds.Ident.User, creds.Ident.Public()); !errors.Is(err, ErrOffline) {
		t.Errorf("enroll offline: err = %v, want ErrOffline", err)
	}
	if _, err := svc.SyncCRL(); !errors.Is(err, ErrOffline) {
		t.Errorf("SyncCRL offline: err = %v, want ErrOffline", err)
	}
	if err := svc.RevokeUser(creds.Ident.User); !errors.Is(err, ErrOffline) {
		t.Errorf("RevokeUser offline: err = %v, want ErrOffline", err)
	}
	if err := svc.SyncActions(creds.Ident.User, [][]byte{{1}}); !errors.Is(err, ErrOffline) {
		t.Errorf("SyncActions offline: err = %v, want ErrOffline", err)
	}

	svc.SetReachable(true)
	if _, err := svc.signUp("bob"); err != nil {
		t.Errorf("signUp after recovery: %v", err)
	}
}

func TestRevokeAndCRLSync(t *testing.T) {
	svc := newService(t)
	creds, err := Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if err := svc.RevokeUser(creds.Ident.User); err != nil {
		t.Fatalf("RevokeUser: %v", err)
	}
	crl, err := svc.SyncCRL()
	if err != nil {
		t.Fatalf("SyncCRL: %v", err)
	}
	if _, ok := crl[creds.Cert.Serial]; !ok {
		t.Error("revoked serial missing from synced CRL")
	}

	v, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	v.UpdateCRL(crl)
	if _, err := v.Verify(creds.Cert.DER); !errors.Is(err, pki.ErrRevoked) {
		t.Errorf("Verify revoked cert after CRL sync: err = %v, want ErrRevoked", err)
	}
}

func TestRevokeUnknownUser(t *testing.T) {
	svc := newService(t)
	if err := svc.RevokeUser(id.NewUserID("nobody")); !errors.Is(err, ErrNoAccount) {
		t.Errorf("RevokeUser unknown: err = %v, want ErrNoAccount", err)
	}
}

func TestActionSyncRoundTrip(t *testing.T) {
	svc := newService(t)
	user := id.NewUserID("alice")
	give := [][]byte{[]byte("post-1"), []byte("follow-bob")}
	if err := svc.SyncActions(user, give); err != nil {
		t.Fatalf("SyncActions: %v", err)
	}
	got, err := svc.SyncedActions(user)
	if err != nil {
		t.Fatalf("SyncedActions: %v", err)
	}
	if len(got) != len(give) {
		t.Fatalf("synced %d actions, want %d", len(got), len(give))
	}
	// Mutating returned data must not affect the cloud's copy.
	got[0][0] = 'X'
	again, err := svc.SyncedActions(user)
	if err != nil {
		t.Fatalf("SyncedActions: %v", err)
	}
	if string(again[0]) != "post-1" {
		t.Error("cloud state mutated through returned slice")
	}
}

func TestWithClock(t *testing.T) {
	ca, err := pki.NewCA("root")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	fixed := time.Date(2017, 4, 6, 12, 0, 0, 0, time.UTC)
	svc := New(ca, WithClock(func() time.Time { return fixed }))
	acct, err := svc.signUp("alice")
	if err != nil {
		t.Fatalf("signUp: %v", err)
	}
	if !acct.CreatedAt.Equal(fixed) {
		t.Errorf("CreatedAt = %v, want %v", acct.CreatedAt, fixed)
	}
}
