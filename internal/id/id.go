// Package id defines SOS user identities: the 10-byte unique user
// identifier that AlleyOop Social advertises in plain text during peer
// discovery (paper §V-A), and the ECDSA P-256 key pair each user generates
// during the one-time infrastructure bootstrap (paper §IV, Fig. 2a).
package id

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base32"
	"errors"
	"fmt"
	"io"
)

// UserIDLen is the length in bytes of a unique user identifier. The paper
// specifies "a 10 byte unique user identification string" as the key field
// of the discovery advertisement dictionary.
const UserIDLen = 10

// UserID is the 10-byte unique identifier assigned to a user at signup.
// It is comparable and usable as a map key.
type UserID [UserIDLen]byte

// ErrBadUserID is returned when parsing an identifier of the wrong shape.
var ErrBadUserID = errors.New("id: malformed user identifier")

// idEncoding renders identifiers in unpadded base32 for display; 10 bytes
// encode to exactly 16 characters.
var idEncoding = base32.StdEncoding.WithPadding(base32.NoPadding)

// NewUserID derives a stable identifier from an account handle. The cloud
// assigns identifiers this way so that a handle maps to one identifier,
// which lets the certificate authority cross-check the identifier embedded
// in a certificate request against the logged-in account (paper §IV).
func NewUserID(handle string) UserID {
	sum := sha256.Sum256([]byte("sos/userid/v1:" + handle))
	var u UserID
	copy(u[:], sum[:UserIDLen])
	return u
}

// ParseUserID decodes the display form produced by String.
func ParseUserID(s string) (UserID, error) {
	raw, err := idEncoding.DecodeString(s)
	if err != nil {
		return UserID{}, fmt.Errorf("%w: %v", ErrBadUserID, err)
	}
	if len(raw) != UserIDLen {
		return UserID{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadUserID, len(raw), UserIDLen)
	}
	var u UserID
	copy(u[:], raw)
	return u, nil
}

// String renders the identifier in its 16-character base32 display form.
func (u UserID) String() string {
	return idEncoding.EncodeToString(u[:])
}

// IsZero reports whether the identifier is the all-zero value, which is
// never assigned to a real user.
func (u UserID) IsZero() bool {
	return u == UserID{}
}

// Bytes returns a copy of the raw identifier bytes.
func (u UserID) Bytes() []byte {
	b := make([]byte, UserIDLen)
	copy(b, u[:])
	return b
}

// Identity is a user's long-term key pair plus identifier. The private key
// never leaves the device; the public key is bound to the UserID by the
// certificate authority during signup.
type Identity struct {
	User UserID
	Key  *ecdsa.PrivateKey

	// rng feeds key generation and signing; live nodes use crypto/rand. A
	// seeded source does not make either repeatable: ecdsa.GenerateKey
	// and ecdsa.SignASN1 are documented as not deterministic in their
	// reader, so keys, signature lengths (70–72 B) and with them frame
	// sizes differ between two runs of one seed. Deterministic signing
	// under a seed is ROADMAP item 1.
	rng io.Reader
}

// NewIdentity generates a fresh P-256 identity for the given user. rng is
// used both for key generation and later signing; nil selects crypto/rand.
func NewIdentity(user UserID, rng io.Reader) (*Identity, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rng)
	if err != nil {
		return nil, fmt.Errorf("id: generating key: %w", err)
	}
	return &Identity{User: user, Key: key, rng: rng}, nil
}

// Public returns the identity's public key.
func (i *Identity) Public() *ecdsa.PublicKey {
	return &i.Key.PublicKey
}

// Sign produces an ASN.1 DER ECDSA signature over the SHA-256 digest of msg.
func (i *Identity) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	rng := i.rng
	if rng == nil {
		rng = rand.Reader
	}
	sig, err := ecdsa.SignASN1(rng, i.Key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("id: signing: %w", err)
	}
	return sig, nil
}

// Verify reports whether sig is a valid signature over msg under pub.
func Verify(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	if pub == nil {
		return false
	}
	digest := sha256.Sum256(msg)
	return ecdsa.VerifyASN1(pub, digest[:], sig)
}
