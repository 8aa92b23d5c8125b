package secure

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sos/internal/id"
	"sos/internal/wire"
)

const (
	// prekeyCtx binds everything on the end-to-end plane — bundle
	// signatures, derived keys, envelope signatures — to this scheme
	// version.
	prekeyCtx = "sos/prekey/v1"
	// envelopeVersion is the first byte of a marshaled Envelope. The
	// retired v1 layout began with the high byte of a 32-bit field length,
	// always 0x00, so it is refused by name from that byte alone.
	envelopeVersion = 2
	// maxEnvelopeField bounds each length-prefixed field ParseEnvelope
	// accepts.
	maxEnvelopeField = 1 << 20
)

// Errors reported when opening envelopes.
var (
	ErrEnvelopeAuth   = errors.New("secure: envelope failed authentication")
	ErrEnvelopeSig    = errors.New("secure: envelope sender signature invalid")
	ErrLegacyEnvelope = errors.New("secure: v1 envelope layout is retired")
)

// Envelope is an end-to-end sealed payload: only the recipient can open
// it, and the sender's signature proves who sealed it. SOS uses envelopes
// for data that intermediate forwarders must carry but not read (paper
// §III-D: "encrypting data from end-to-end").
//
// The construction is ECIES-style: an ephemeral P-256 key agrees with the
// recipient key SignedID names and, when OneTimeID is set, with that
// one-time prekey too; HKDF-SHA256 turns the agreement into an AES-256-GCM
// key, and the sender signs the whole structure with their long-term
// identity key. SignedID 0 names the recipient's certified long-term key —
// the path to a recipient never met, with no forward secrecy; any other
// value names a signed prekey from the recipient's published bundle (see
// prekeys.go). Both ids are in the key derivation, the AEAD additional
// data and the signed transcript, so an envelope cannot be re-attributed
// to other key material.
type Envelope struct {
	SignedID     uint32 // 0 = the certified long-term key
	OneTimeID    uint32 // 0 = no one-time prekey in the agreement
	EphemeralPub []byte // marshaled ephemeral ECDH public key
	Nonce        []byte // GCM nonce
	Ciphertext   []byte // sealed payload
	SenderSig    []byte // ECDSA signature over envelopeTranscript
}

// SealEnvelope encrypts plaintext so only the user certified as (to,
// toKey) can read it and signs the result as sender. With a bundle — which
// must be to's own and carry toKey's signature — the envelope is sealed to
// the bundle's prekeys; with nil it is sealed to toKey itself. rng may be
// nil to use crypto/rand.
func SealEnvelope(rng io.Reader, sender *id.Identity, to id.UserID, toKey *ecdsa.PublicKey, bundle *wire.PrekeyBundle, plaintext []byte) (*Envelope, error) {
	if rng == nil {
		rng = rand.Reader
	}
	env := &Envelope{}
	var signedPub, oneTimePub *ecdh.PublicKey
	var err error
	if bundle == nil {
		if signedPub, err = toKey.ECDH(); err != nil {
			return nil, fmt.Errorf("secure: converting recipient key: %w", err)
		}
	} else {
		if bundle.User != to || !VerifyBundle(toKey, bundle) {
			return nil, ErrBundleSig
		}
		env.SignedID, env.OneTimeID = bundle.SignedID, bundle.OneTimeID
		if signedPub, err = ecdh.P256().NewPublicKey(bundle.SignedPub); err != nil {
			return nil, fmt.Errorf("secure: parsing signed prekey: %w", err)
		}
		if bundle.OneTimeID != 0 {
			if oneTimePub, err = ecdh.P256().NewPublicKey(bundle.OneTimePub); err != nil {
				return nil, fmt.Errorf("secure: parsing one-time prekey: %w", err)
			}
		}
	}
	eph, err := id.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("secure: generating ephemeral key: %w", err)
	}
	env.EphemeralPub = eph.PublicKey().Bytes()
	info := envelopeInfo(to, env.SignedID, env.OneTimeID)
	aead, err := envelopeAEAD(env.EphemeralPub, info, eph, signedPub, eph, oneTimePub)
	if err != nil {
		return nil, err
	}
	env.Nonce = make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rng, env.Nonce); err != nil {
		return nil, fmt.Errorf("secure: reading nonce: %w", err)
	}
	env.Ciphertext = aead.Seal(nil, env.Nonce, plaintext, info)
	if env.SenderSig, err = sender.Sign(envelopeTranscript(env)); err != nil {
		return nil, fmt.Errorf("secure: signing envelope: %w", err)
	}
	return env, nil
}

// OpenEnvelope verifies the sender's signature, recomputes the agreement
// with the private keys the envelope names, decrypts, and — on success —
// consumes the one-time prekey so the envelope can never be opened again.
func OpenEnvelope(ps *PrekeyStore, senderPub *ecdsa.PublicKey, env *Envelope) ([]byte, error) {
	if env == nil {
		return nil, errors.New("secure: nil envelope")
	}
	if !id.Verify(senderPub, envelopeTranscript(env), env.SenderSig) {
		return nil, ErrEnvelopeSig
	}
	ephPub, err := ecdh.P256().NewPublicKey(env.EphemeralPub)
	if err != nil {
		return nil, fmt.Errorf("secure: parsing ephemeral key: %w", err)
	}
	signed, oneTime, err := ps.agreementKeys(env.SignedID, env.OneTimeID)
	if err != nil {
		return nil, err
	}
	info := envelopeInfo(ps.user, env.SignedID, env.OneTimeID)
	aead, err := envelopeAEAD(env.EphemeralPub, info, signed, ephPub, oneTime, ephPub)
	if err != nil {
		return nil, err
	}
	plaintext, err := aead.Open(nil, env.Nonce, env.Ciphertext, info)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvelopeAuth, err)
	}
	// Authenticated open succeeded: burn the one-time key. Its private
	// half becomes unreachable, so this envelope is now unopenable
	// forever — including by us.
	if oneTime != nil {
		ps.burnOneTime(env.OneTimeID)
	}
	return plaintext, nil
}

// envelopeAEAD derives the envelope key: the agreement of (k1, p1), then
// of (k2, p2) when the envelope names a one-time prekey (both set), through
// HKDF-SHA256 salted by the ephemeral key. The sealer agrees with its
// ephemeral private key on both sides, the opener with the ephemeral
// public key.
func envelopeAEAD(ephPub, info []byte, k1 *ecdh.PrivateKey, p1 *ecdh.PublicKey, k2 *ecdh.PrivateKey, p2 *ecdh.PublicKey) (cipher.AEAD, error) {
	secret, err := k1.ECDH(p1)
	if err != nil {
		return nil, fmt.Errorf("secure: ECDH: %w", err)
	}
	if k2 != nil && p2 != nil {
		dh2, err := k2.ECDH(p2)
		if err != nil {
			return nil, fmt.Errorf("secure: one-time ECDH: %w", err)
		}
		secret = append(secret, dh2...)
		Zeroize(dh2)
	}
	key, err := hkdf.Key(sha256.New, secret, ephPub, string(info), aesKeyLen)
	Zeroize(secret)
	if err != nil {
		return nil, fmt.Errorf("secure: deriving envelope key: %w", err)
	}
	aead, err := newGCM(key)
	Zeroize(key)
	return aead, err
}

// envelopeInfo is the HKDF info string and AEAD additional data: context,
// recipient, and both key ids.
func envelopeInfo(to id.UserID, signedID, oneTimeID uint32) []byte {
	out := make([]byte, 0, len(prekeyCtx)+len(to)+8)
	out = append(out, prekeyCtx...)
	out = append(out, to[:]...)
	out = binary.BigEndian.AppendUint32(out, signedID)
	return binary.BigEndian.AppendUint32(out, oneTimeID)
}

// envelopeTranscript is the byte string the envelope sender signs.
func envelopeTranscript(e *Envelope) []byte {
	out := make([]byte, 0, len(prekeyCtx)+3+8+len(e.EphemeralPub)+len(e.Nonce)+len(e.Ciphertext))
	out = append(out, prekeyCtx...)
	out = append(out, "env"...)
	out = binary.BigEndian.AppendUint32(out, e.SignedID)
	out = binary.BigEndian.AppendUint32(out, e.OneTimeID)
	out = append(out, e.EphemeralPub...)
	out = append(out, e.Nonce...)
	return append(out, e.Ciphertext...)
}

// Marshal serializes the envelope for embedding in a message payload: the
// version byte, both key ids (big-endian uint32), then ephemeral key,
// nonce, ciphertext and sender signature, each behind a big-endian uint32
// length.
func (e *Envelope) Marshal() []byte {
	out := make([]byte, 0, 1+8+16+len(e.EphemeralPub)+len(e.Nonce)+len(e.Ciphertext)+len(e.SenderSig))
	out = append(out, envelopeVersion)
	out = binary.BigEndian.AppendUint32(out, e.SignedID)
	out = binary.BigEndian.AppendUint32(out, e.OneTimeID)
	for _, field := range [][]byte{e.EphemeralPub, e.Nonce, e.Ciphertext, e.SenderSig} {
		out = binary.BigEndian.AppendUint32(out, uint32(len(field)))
		out = append(out, field...)
	}
	return out
}

// ParseEnvelope decodes a Marshal-ed envelope. A v1 payload is refused as
// ErrLegacyEnvelope.
func ParseEnvelope(buf []byte) (*Envelope, error) {
	switch {
	case len(buf) > 0 && buf[0] == 0:
		return nil, ErrLegacyEnvelope
	case len(buf) < 9:
		return nil, errors.New("secure: truncated envelope")
	case buf[0] != envelopeVersion:
		return nil, fmt.Errorf("secure: unknown envelope version %d", buf[0])
	}
	env := &Envelope{
		SignedID:  binary.BigEndian.Uint32(buf[1:]),
		OneTimeID: binary.BigEndian.Uint32(buf[5:]),
	}
	buf = buf[9:]
	for _, field := range []*[]byte{&env.EphemeralPub, &env.Nonce, &env.Ciphertext, &env.SenderSig} {
		if len(buf) < 4 {
			return nil, errors.New("secure: truncated envelope")
		}
		n := binary.BigEndian.Uint32(buf)
		buf = buf[4:]
		if n > maxEnvelopeField || len(buf) < int(n) {
			return nil, errors.New("secure: malformed envelope field")
		}
		*field = append([]byte(nil), buf[:n]...)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return nil, errors.New("secure: trailing envelope bytes")
	}
	return env, nil
}
