package secure

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"sos/internal/id"
)

// envelopeCtx is the HKDF info string binding derived keys to this scheme
// version.
const envelopeCtx = "sos/envelope/v1"

// Errors reported when opening envelopes.
var (
	ErrEnvelopeAuth = errors.New("secure: envelope failed authentication")
	ErrEnvelopeSig  = errors.New("secure: envelope sender signature invalid")
)

// Envelope is an end-to-end sealed payload: only the recipient's private
// key can open it, and the sender's signature proves who sealed it. SOS
// uses envelopes for data that intermediate forwarders must carry but not
// read (paper §III-D: "encrypting data from end-to-end").
//
// The construction is ECIES-style: an ephemeral P-256 key agreement with
// the recipient yields an AES-256-GCM key via HKDF-SHA256; the sender then
// signs the whole ciphertext structure with their long-term identity key.
type Envelope struct {
	EphemeralPub []byte // marshaled ephemeral ECDH public key
	Nonce        []byte // GCM nonce
	Ciphertext   []byte // sealed payload
	SenderSig    []byte // ECDSA signature over EphemeralPub||Nonce||Ciphertext
}

// SealEnvelope encrypts plaintext so only recipient can read it and signs
// the result as sender. rng may be nil to use crypto/rand.
func SealEnvelope(rng io.Reader, recipient *ecdsa.PublicKey, sender *id.Identity, plaintext []byte) (*Envelope, error) {
	if rng == nil {
		rng = rand.Reader
	}
	recipientECDH, err := recipient.ECDH()
	if err != nil {
		return nil, fmt.Errorf("secure: converting recipient key: %w", err)
	}
	eph, err := ecdh.P256().GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("secure: generating ephemeral key: %w", err)
	}
	shared, err := eph.ECDH(recipientECDH)
	if err != nil {
		return nil, fmt.Errorf("secure: ephemeral ECDH: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	key, err := hkdf.Key(sha256.New, shared, ephPub, envelopeCtx, aesKeyLen)
	if err != nil {
		return nil, fmt.Errorf("secure: deriving envelope key: %w", err)
	}
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("secure: reading nonce: %w", err)
	}
	ciphertext := aead.Seal(nil, nonce, plaintext, ephPub)

	sig, err := sender.Sign(envelopeTranscript(ephPub, nonce, ciphertext))
	if err != nil {
		return nil, fmt.Errorf("secure: signing envelope: %w", err)
	}
	return &Envelope{
		EphemeralPub: ephPub,
		Nonce:        nonce,
		Ciphertext:   ciphertext,
		SenderSig:    sig,
	}, nil
}

// OpenEnvelope verifies the sender's signature, recomputes the shared key
// with the recipient's private key, and decrypts the payload.
func OpenEnvelope(recipient *ecdsa.PrivateKey, senderPub *ecdsa.PublicKey, env *Envelope) ([]byte, error) {
	if env == nil {
		return nil, errors.New("secure: nil envelope")
	}
	if !id.Verify(senderPub, envelopeTranscript(env.EphemeralPub, env.Nonce, env.Ciphertext), env.SenderSig) {
		return nil, ErrEnvelopeSig
	}
	recipientECDH, err := recipient.ECDH()
	if err != nil {
		return nil, fmt.Errorf("secure: converting recipient key: %w", err)
	}
	ephPub, err := ecdh.P256().NewPublicKey(env.EphemeralPub)
	if err != nil {
		return nil, fmt.Errorf("secure: parsing ephemeral key: %w", err)
	}
	shared, err := recipientECDH.ECDH(ephPub)
	if err != nil {
		return nil, fmt.Errorf("secure: ECDH: %w", err)
	}
	key, err := hkdf.Key(sha256.New, shared, env.EphemeralPub, envelopeCtx, aesKeyLen)
	if err != nil {
		return nil, fmt.Errorf("secure: deriving envelope key: %w", err)
	}
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	plaintext, err := aead.Open(nil, env.Nonce, env.Ciphertext, env.EphemeralPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvelopeAuth, err)
	}
	return plaintext, nil
}

// Marshal serializes the envelope for embedding in a message payload.
func (e *Envelope) Marshal() []byte {
	out := make([]byte, 0, 8+len(e.EphemeralPub)+len(e.Nonce)+len(e.Ciphertext)+len(e.SenderSig))
	for _, field := range [][]byte{e.EphemeralPub, e.Nonce, e.Ciphertext, e.SenderSig} {
		out = append(out, byte(len(field)>>24), byte(len(field)>>16), byte(len(field)>>8), byte(len(field)))
		out = append(out, field...)
	}
	return out
}

// ParseEnvelope decodes a Marshal-ed envelope.
func ParseEnvelope(buf []byte) (*Envelope, error) {
	fields := make([][]byte, 4)
	for i := range fields {
		if len(buf) < 4 {
			return nil, errors.New("secure: truncated envelope")
		}
		n := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
		buf = buf[4:]
		if n < 0 || n > 1<<20 || len(buf) < n {
			return nil, errors.New("secure: malformed envelope field")
		}
		fields[i] = append([]byte(nil), buf[:n]...)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return nil, errors.New("secure: trailing envelope bytes")
	}
	return &Envelope{
		EphemeralPub: fields[0],
		Nonce:        fields[1],
		Ciphertext:   fields[2],
		SenderSig:    fields[3],
	}, nil
}

// envelopeTranscript is the byte string the sender signs.
func envelopeTranscript(ephPub, nonce, ciphertext []byte) []byte {
	out := make([]byte, 0, len(envelopeCtx)+len(ephPub)+len(nonce)+len(ciphertext))
	out = append(out, envelopeCtx...)
	out = append(out, ephPub...)
	out = append(out, nonce...)
	out = append(out, ciphertext...)
	return out
}
