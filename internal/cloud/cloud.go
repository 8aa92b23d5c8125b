// Package cloud simulates the online backend AlleyOop Social uses for its
// one-time infrastructure requirement (paper §IV, Fig. 2a): account
// creation, certificate enrollment brokered to the CA, revocation-list
// distribution, and message synchronization when the Internet happens to
// be reachable. After a device completes Bootstrap it never needs the
// cloud again for privacy, security, or dissemination — only for the
// maintenance operations the paper lists as online-only (revocation and
// CRL updates; certificate renewal is not modelled).
package cloud

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sos/internal/id"
	"sos/internal/pki"
)

// Errors reported by the cloud service.
var (
	ErrHandleTaken        = errors.New("cloud: handle already registered")
	ErrNoAccount          = errors.New("cloud: no such account")
	ErrIdentifierMismatch = errors.New("cloud: claimed user identifier does not match the logged-in account")
	ErrOffline            = errors.New("cloud: service unreachable")
)

// Account is a registered AlleyOop Social account.
type Account struct {
	Handle    string
	User      id.UserID
	CreatedAt time.Time
}

// Service is the simulated cloud. It owns the CA and the account registry.
// Reachability can be toggled to model infrastructure outages: every RPC
// fails with ErrOffline while unreachable.
type Service struct {
	mu        sync.Mutex
	ca        *pki.CA
	now       func() time.Time
	reachable bool
	accounts  map[string]Account
	synced    map[id.UserID][][]byte
}

// Option configures the Service.
type Option func(*Service)

// WithClock injects a virtual time source.
func WithClock(now func() time.Time) Option {
	return func(s *Service) { s.now = now }
}

// New creates a cloud service fronting the given CA.
func New(ca *pki.CA, opts ...Option) *Service {
	s := &Service{
		ca:        ca,
		now:       time.Now,
		reachable: true,
		accounts:  make(map[string]Account),
		synced:    make(map[id.UserID][][]byte),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// SetReachable toggles simulated Internet availability.
func (s *Service) SetReachable(up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reachable = up
}

// checkOnline returns ErrOffline when the service is unreachable.
// Callers must hold s.mu.
func (s *Service) checkOnline() error {
	if !s.reachable {
		return ErrOffline
	}
	return nil
}

// signUp registers a handle and assigns its unique 10-byte user
// identifier. This models the in-app account-creation step that happens
// while the device still has Internet connectivity.
func (s *Service) signUp(handle string) (Account, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOnline(); err != nil {
		return Account{}, err
	}
	if handle == "" {
		return Account{}, errors.New("cloud: empty handle")
	}
	if _, taken := s.accounts[handle]; taken {
		return Account{}, fmt.Errorf("%w: %q", ErrHandleTaken, handle)
	}
	acct := Account{Handle: handle, User: id.NewUserID(handle), CreatedAt: s.now()}
	s.accounts[handle] = acct
	return acct, nil
}

// enroll asks the CA to issue a certificate binding claimed to pub, on
// behalf of the logged-in account named by handle. Per the paper's §IV
// mitigation, the cloud first compares the claimed unique user-identifier
// with the identifier affiliated with the logged-in user; a malicious
// device presenting someone else's identifier is refused.
func (s *Service) enroll(handle string, claimed id.UserID, pub *ecdsa.PublicKey) (*pki.UserCert, []byte, error) {
	s.mu.Lock()
	if err := s.checkOnline(); err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	acct, ok := s.accounts[handle]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoAccount, handle)
	}
	if acct.User != claimed {
		return nil, nil, fmt.Errorf("%w: claimed %s, account holds %s", ErrIdentifierMismatch, claimed, acct.User)
	}
	cert, err := s.ca.Issue(claimed, pub)
	if err != nil {
		return nil, nil, fmt.Errorf("cloud: CA issuance: %w", err)
	}
	return cert, s.ca.RootDER(), nil
}

// RevokeUser revokes the latest certificate of the given user, e.g. after
// a compromised-device report.
func (s *Service) RevokeUser(user id.UserID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOnline(); err != nil {
		return err
	}
	if !s.ca.RevokeUser(user) {
		return fmt.Errorf("%w: user %s has no issued certificate", ErrNoAccount, user)
	}
	return nil
}

// SyncCRL returns the CA's current revocation list for a device to pin.
func (s *Service) SyncCRL() (map[string]time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOnline(); err != nil {
		return nil, err
	}
	return s.ca.CRL(), nil
}

// SyncActions uploads locally-stored actions (opaque encoded records) for
// the user; AlleyOop Social calls this whenever the Internet becomes
// available (paper §V operation 2).
func (s *Service) SyncActions(user id.UserID, actions [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOnline(); err != nil {
		return err
	}
	for _, a := range actions {
		cp := make([]byte, len(a))
		copy(cp, a)
		s.synced[user] = append(s.synced[user], cp)
	}
	return nil
}

// SyncedActions returns the actions the cloud has recorded for user.
func (s *Service) SyncedActions(user id.UserID) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOnline(); err != nil {
		return nil, err
	}
	src := s.synced[user]
	out := make([][]byte, len(src))
	for i, a := range src {
		cp := make([]byte, len(a))
		copy(cp, a)
		out[i] = cp
	}
	return out, nil
}

// Credentials is everything a device holds after completing the one-time
// infrastructure requirement: its identity key pair, its CA-issued
// certificate, and the pinned CA root.
type Credentials struct {
	Handle  string
	Ident   *id.Identity
	Cert    *pki.UserCert
	RootDER []byte
}

// Bootstrap performs the complete Fig. 2a flow for a new user: sign up,
// generate an identity key pair on-device, enroll the public key with the
// cloud/CA, and pin the root certificate. rng may be nil for crypto/rand.
func Bootstrap(svc *Service, handle string, rng io.Reader) (*Credentials, error) {
	acct, err := svc.signUp(handle)
	if err != nil {
		return nil, fmt.Errorf("cloud: signup: %w", err)
	}
	ident, err := id.NewIdentity(acct.User, rng)
	if err != nil {
		return nil, fmt.Errorf("cloud: generating identity: %w", err)
	}
	cert, rootDER, err := svc.enroll(handle, ident.User, ident.Public())
	if err != nil {
		return nil, fmt.Errorf("cloud: enrollment: %w", err)
	}
	return &Credentials{Handle: handle, Ident: ident, Cert: cert, RootDER: rootDER}, nil
}
