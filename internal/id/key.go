package id

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// maxKeyTries bounds the draws GenerateKey makes. A uniform 32-byte draw
// misses the P-256 scalar range with probability about 2⁻³², so only a
// broken reader ever reaches the bound.
const maxKeyTries = 64

// GenerateKey draws a P-256 key from rng alone: each try reads exactly 32
// bytes and takes them as the scalar, retrying one outside [1, n−1]. The
// key is therefore a function of the reader's bytes, and the reader is
// left exactly 32·tries bytes on. crypto/ecdh's and crypto/ecdsa's own
// GenerateKey read one more byte at random (randutil.MaybeReadByte), which
// under a seeded reader shifts every later draw. Every key in the stack,
// under crypto/rand too, comes from here.
func GenerateKey(rng io.Reader) (*ecdh.PrivateKey, error) {
	var scalar [32]byte
	for range maxKeyTries {
		if _, err := io.ReadFull(rng, scalar[:]); err != nil {
			return nil, fmt.Errorf("id: reading key: %w", err)
		}
		if key, err := ecdh.P256().NewPrivateKey(scalar[:]); err == nil {
			return key, nil
		}
	}
	return nil, errors.New("id: reader yields no P-256 scalar")
}

// GenerateSigningKey is GenerateKey for ECDSA: the signing key is built
// from the same scalar and its public point.
func GenerateSigningKey(rng io.Reader) (*ecdsa.PrivateKey, error) {
	key, err := GenerateKey(rng)
	if err != nil {
		return nil, err
	}
	pub := key.PublicKey().Bytes() // 0x04 ‖ X ‖ Y
	return &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{
			Curve: elliptic.P256(),
			X:     new(big.Int).SetBytes(pub[1:33]),
			Y:     new(big.Int).SetBytes(pub[33:]),
		},
		D: new(big.Int).SetBytes(key.Bytes()),
	}, nil
}

// SignRand is the reader to hand an ECDSA signer that was given rng.
// crypto/rand.Reader, or nil, which selects it, signs hedged, as it always
// has. Any other reader is a seeded one, for the simulator and the
// benchmark, and gets nil, which crypto/ecdsa (and x509.CreateCertificate
// through it) answers with an RFC 6979 signature: a function of key and
// digest alone.
func SignRand(rng io.Reader) io.Reader {
	if rng == nil || rng == rand.Reader {
		return rand.Reader
	}
	return nil
}
