// Package pki implements the public-key infrastructure used by the SOS
// one-time infrastructure bootstrap (paper §IV, Fig. 2a). A certificate
// authority issues X.509 certificates that bind a user's 10-byte unique
// identifier to their ECDSA P-256 public key. Devices carry their own
// certificate plus the CA root; during opportunistic encounters they
// exchange and verify certificates without any infrastructure.
//
// The paper's stated limitations are modelled faithfully: revocation,
// certificate renewal, and CA-root updates all require connectivity, so
// they are only reachable through the cloud package.
package pki

import (
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"sos/internal/id"
)

// Default certificate lifetimes. Leaf certificates are deliberately short
// lived: the paper notes expired certificates must be replenished over the
// Internet, and a short lifetime makes that path meaningful in simulation.
const (
	DefaultRootValidity = 10 * 365 * 24 * time.Hour
	DefaultLeafValidity = 90 * 24 * time.Hour
)

// Errors reported by certificate verification.
var (
	ErrRevoked      = errors.New("pki: certificate revoked")
	ErrExpired      = errors.New("pki: certificate expired or not yet valid")
	ErrUntrusted    = errors.New("pki: certificate does not chain to a trusted root")
	ErrNotECDSA     = errors.New("pki: certificate public key is not ECDSA")
	ErrBadUserID    = errors.New("pki: certificate common name is not a valid user identifier")
	ErrUserMismatch = errors.New("pki: certificate user does not match expected user")
)

// UserCert is a verified user certificate: the binding of a UserID to an
// ECDSA public key, vouched for by the CA for the window NotBefore to
// NotAfter. It is immutable: a Verifier hands the same *UserCert to every
// caller that presents the same certificate bytes, so holders read it —
// DER and Key included — and never write through it.
type UserCert struct {
	User      id.UserID
	Key       *ecdsa.PublicKey
	DER       []byte
	Serial    string
	NotBefore time.Time
	NotAfter  time.Time
}

// CA is the AlleyOop Social certificate authority. It lives "in the cloud":
// devices talk to it only during signup and maintenance windows.
type CA struct {
	mu      sync.Mutex
	key     *ecdsa.PrivateKey
	cert    *x509.Certificate
	certDER []byte
	now     func() time.Time
	entropy io.Reader
	nextSer int64
	revoked map[string]time.Time // serial -> revocation time
	issued  map[id.UserID]string // user -> latest serial
}

// CAOption configures a CA.
type CAOption func(*CA)

// WithClock injects a time source, letting simulations drive expiry from
// virtual time.
func WithClock(now func() time.Time) CAOption {
	return func(ca *CA) { ca.now = now }
}

// WithEntropy injects the randomness source used for key generation.
func WithEntropy(r io.Reader) CAOption {
	return func(ca *CA) { ca.entropy = r }
}

// NewCA creates a certificate authority with a fresh self-signed root.
func NewCA(name string, opts ...CAOption) (*CA, error) {
	ca := &CA{
		now:     time.Now,
		entropy: rand.Reader,
		nextSer: 2, // serial 1 is the root
		revoked: make(map[string]time.Time),
		issued:  make(map[id.UserID]string),
	}
	for _, opt := range opts {
		opt(ca)
	}

	key, err := id.GenerateSigningKey(ca.entropy)
	if err != nil {
		return nil, fmt.Errorf("pki: generating CA key: %w", err)
	}
	notBefore := ca.now()
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name, Organization: []string{"AlleyOop Social"}},
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(DefaultRootValidity),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLen:            0,
		MaxPathLenZero:        true,
	}
	der, err := x509.CreateCertificate(id.SignRand(ca.entropy), tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("pki: creating root certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing root certificate: %w", err)
	}
	ca.key = key
	ca.cert = cert
	ca.certDER = der
	return ca, nil
}

// RootDER returns the DER encoding of the root certificate, which devices
// pin during signup.
func (ca *CA) RootDER() []byte {
	out := make([]byte, len(ca.certDER))
	copy(out, ca.certDER)
	return out
}

// Issue signs a certificate binding user to pub. The certificate's common
// name is the identifier's canonical display form, mirroring how AlleyOop
// Social embeds the unique user-identifier in issued certificates.
func (ca *CA) Issue(user id.UserID, pub *ecdsa.PublicKey) (*UserCert, error) {
	if user.IsZero() {
		return nil, fmt.Errorf("pki: refusing to certify the zero user identifier")
	}
	if pub == nil {
		return nil, fmt.Errorf("pki: refusing to certify a nil public key")
	}
	ca.mu.Lock()
	defer ca.mu.Unlock()

	serial := big.NewInt(ca.nextSer)
	ca.nextSer++
	notBefore := ca.now()
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: user.String(), Organization: []string{"AlleyOop Social User"}},
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(DefaultLeafValidity),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyAgreement,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}
	der, err := x509.CreateCertificate(id.SignRand(ca.entropy), tmpl, ca.cert, pub, ca.key)
	if err != nil {
		return nil, fmt.Errorf("pki: signing user certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing issued certificate: %w", err)
	}
	ca.issued[user] = serial.String()
	return &UserCert{
		User:      user,
		Key:       pub,
		DER:       der,
		Serial:    serial.String(),
		NotBefore: cert.NotBefore,
		NotAfter:  cert.NotAfter,
	}, nil
}

// revoke marks a certificate serial as revoked. Devices only learn about
// revocations when they next reach the cloud (paper §IV limitation).
func (ca *CA) revoke(serial string) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if _, done := ca.revoked[serial]; !done {
		ca.revoked[serial] = ca.now()
	}
}

// RevokeUser revokes the latest certificate issued to user, if any, and
// reports whether one was found.
func (ca *CA) RevokeUser(user id.UserID) bool {
	ca.mu.Lock()
	serial, ok := ca.issued[user]
	ca.mu.Unlock()
	if !ok {
		return false
	}
	ca.revoke(serial)
	return true
}

// CRL returns the current revocation list as serial -> revocation time.
func (ca *CA) CRL() map[string]time.Time {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	out := make(map[string]time.Time, len(ca.revoked))
	for s, at := range ca.revoked {
		out[s] = at
	}
	return out
}

// maxVerified bounds the table of certificates a Verifier remembers.
const maxVerified = 1024

// certKey identifies a certificate by the SHA-256 of its exact bytes.
type certKey [sha256.Size]byte

// Verifier validates peer certificates on a device. It holds the pinned CA
// root, the device's last-synced revocation list, and a bounded table of
// the certificates it has already verified in full.
//
// The table saves only what is a pure function of the certificate bytes
// and the pinned root: the X.509 parse, the chain signature, the key-type
// and user-identifier checks. Everything whose answer can change — the
// revocation list, the leaf's validity window and the root's, all against
// the injected clock — is checked again on every call, so the table needs
// no invalidation and a revocation or an expiry takes effect on the next
// call. Only successes are stored, so every entry is CA-issued.
type Verifier struct {
	mu    sync.RWMutex
	roots *x509.CertPool
	crl   map[string]time.Time
	now   func() time.Time

	// The pinned root's own validity window. Outside it the table is
	// bypassed, so the chain check reports the root's expiry itself.
	rootNotBefore, rootNotAfter time.Time

	// verified is the table; ring lists its keys in insertion order and
	// next is the slot the next insertion takes, evicting first-in
	// first-out once ring is full.
	verified map[certKey]*UserCert
	ring     []certKey
	next     int

	hits, misses, rejected atomic.Uint64
}

// Stats counts the outcomes of a Verifier's Verify and VerifyFor calls;
// every call lands in exactly one of the three counters.
type Stats struct {
	// Hits are certificates accepted from the table of already-verified
	// certificates, after re-checking revocation and validity.
	Hits uint64
	// Misses are certificates accepted after a full parse and chain check.
	Misses uint64
	// Rejected are calls that returned an error, from either path.
	Rejected uint64
	// Entries is the number of certificates currently remembered.
	Entries int
}

// NewVerifier builds a verifier trusting the given DER-encoded root and
// judging validity windows against the clock now.
func NewVerifier(rootDER []byte, now func() time.Time) (*Verifier, error) {
	if now == nil {
		return nil, errors.New("pki: verifier needs a clock")
	}
	root, err := x509.ParseCertificate(rootDER)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing pinned root: %w", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(root)
	return &Verifier{
		roots:         pool,
		crl:           make(map[string]time.Time),
		now:           now,
		rootNotBefore: root.NotBefore,
		rootNotAfter:  root.NotAfter,
		verified:      make(map[certKey]*UserCert),
	}, nil
}

// UpdateCRL replaces the verifier's revocation list. Only the cloud calls
// this; an offline device keeps trusting certificates revoked after its
// last sync, exactly the limitation the paper describes.
func (v *Verifier) UpdateCRL(crl map[string]time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.crl = make(map[string]time.Time, len(crl))
	for s, at := range crl {
		v.crl[s] = at
	}
}

// Stats snapshots the verification counters and the table's size.
func (v *Verifier) Stats() Stats {
	v.mu.RLock()
	entries := len(v.verified)
	v.mu.RUnlock()
	return Stats{
		Hits:     v.hits.Load(),
		Misses:   v.misses.Load(),
		Rejected: v.rejected.Load(),
		Entries:  entries,
	}
}

// Verify validates a DER certificate: it must chain to the pinned root, be
// within its validity window, not appear on the synced revocation list,
// carry an ECDSA public key, and name a well-formed user identifier. The
// returned UserCert may be shared with other callers and is read-only.
func (v *Verifier) Verify(der []byte) (*UserCert, error) {
	uc, hit, err := v.verify(der)
	return v.tally(uc, hit, err)
}

// VerifyFor validates der and additionally requires it to belong to want.
// Forwarded originator certificates are checked this way (paper Fig. 3b:
// Bob forwards Alice's certificate alongside her message).
func (v *Verifier) VerifyFor(der []byte, want id.UserID) (*UserCert, error) {
	uc, hit, err := v.verify(der)
	if err == nil && uc.User != want {
		err = fmt.Errorf("%w: certificate names %s, want %s", ErrUserMismatch, uc.User, want)
	}
	return v.tally(uc, hit, err)
}

// tally counts a call's outcome in exactly one of the three counters.
func (v *Verifier) tally(uc *UserCert, hit bool, err error) (*UserCert, error) {
	switch {
	case err != nil:
		v.rejected.Add(1)
		return nil, err
	case hit:
		v.hits.Add(1)
	default:
		v.misses.Add(1)
	}
	return uc, nil
}

// verify is Verify without the counting; the bool reports whether the
// answer came from the table.
func (v *Verifier) verify(der []byte) (*UserCert, bool, error) {
	key := certKey(sha256.Sum256(der))

	v.mu.RLock()
	known := v.verified[key]
	var revoked bool
	if known != nil {
		_, revoked = v.crl[known.Serial]
	}
	now := v.now()
	v.mu.RUnlock()

	if known != nil && !now.Before(v.rootNotBefore) && !now.After(v.rootNotAfter) {
		if err := stillValid(known, revoked, now); err != nil {
			return nil, true, err
		}
		return known, true, nil
	}

	// x509.ParseCertificate aliases its input, and callers hand in slices
	// of frame buffers they reuse: parse from a copy the table can keep.
	der = append([]byte(nil), der...)
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, false, fmt.Errorf("pki: parsing certificate: %w", err)
	}
	uc := &UserCert{
		DER:       der,
		Serial:    cert.SerialNumber.String(),
		NotBefore: cert.NotBefore,
		NotAfter:  cert.NotAfter,
	}

	v.mu.RLock()
	_, revoked = v.crl[uc.Serial]
	now = v.now()
	v.mu.RUnlock()

	if err := stillValid(uc, revoked, now); err != nil {
		return nil, false, err
	}
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:       v.roots,
		CurrentTime: now,
		KeyUsages:   []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrUntrusted, err)
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, false, fmt.Errorf("%w: got %T", ErrNotECDSA, cert.PublicKey)
	}
	user, err := id.ParseUserID(cert.Subject.CommonName)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %q", ErrBadUserID, cert.Subject.CommonName)
	}
	uc.User, uc.Key = user, pub
	return v.remember(key, uc), false, nil
}

// stillValid runs the checks whose answer can change between two calls on
// the same certificate bytes: revocation, then the validity window.
func stillValid(uc *UserCert, revoked bool, now time.Time) error {
	if revoked {
		return fmt.Errorf("%w: serial %s", ErrRevoked, uc.Serial)
	}
	if now.Before(uc.NotBefore) || now.After(uc.NotAfter) {
		return fmt.Errorf("%w: valid %s to %s, now %s",
			ErrExpired, uc.NotBefore.Format(time.RFC3339), uc.NotAfter.Format(time.RFC3339), now.Format(time.RFC3339))
	}
	return nil
}

// remember stores a fully verified certificate, whose DER the caller has
// already copied, and returns the table's entry for those bytes.
func (v *Verifier) remember(key certKey, uc *UserCert) *UserCert {
	v.mu.Lock()
	defer v.mu.Unlock()
	if prior := v.verified[key]; prior != nil {
		return prior // a concurrent call verified the same bytes first
	}
	if len(v.ring) < maxVerified {
		v.ring = append(v.ring, key)
	} else {
		delete(v.verified, v.ring[v.next])
		v.ring[v.next] = key
	}
	v.next = (v.next + 1) % maxVerified
	v.verified[key] = uc
	return uc
}
