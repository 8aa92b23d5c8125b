package secure

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/hex"
	"testing"

	"sos/internal/id"
)

// Known-answer vectors for key derivation. They were produced by the
// commit that still derived keys with the module's own hand-rolled HKDF
// package, so passing here proves the standard library's crypto/hkdf
// yields the same bytes on every derivation path: session roots, legacy
// envelopes and prekey envelopes. The envelopes were sealed by that
// commit (their ephemeral keys and nonces are whatever crypto/rand gave
// it); opening them needs the exact AES key it derived.
const (
	// P-256 private scalars (SHA-256 of "sos-kat-alice", "sos-kat-bob",
	// "sos-kat-signed-prekey", "sos-kat-one-time-prekey").
	katScalarA       = "ad14be63ecb3bff07ad267af86e81e5d99077d7e6d674a6bd1ff43613fa3a7cc"
	katScalarB       = "f5245b85acdde6d437a925405c1b05d526ea151206f2b54513a6a19a0b0e4cec"
	katScalarSigned  = "7a88b2445af608c26f9051537a4b9ad8924efb3211136e65f273cda1fa106df5"
	katScalarOneTime = "3bab73384da2fc461f036135cc3a8b8b74c702fcae08131f313d66555aedf863"

	katContext   = "kat-handshake-context"
	katPlaintext = "known answer"

	// Alice's epoch-0 keys for a session with Bob under katContext; Bob's
	// are the same two, swapped.
	katSendKeyA = "816527c97de24d5fe7533f6ce89d2e2be2c4e0ea366083fb9055a576cf90814b"
	katRecvKeyA = "1e32d2e772c6a5c5fb8eb335c748933d8ff8e918078c6cfe9cdc4a9c05f6642c"

	// Alice → Bob, SealEnvelope, marshaled; and the AES key under it.
	katEnvelope    = "0000004104c50977f9c44e2d962f02872653a68dd7d991ad6c5d2ee526fc69150b93808249ff5394ece773271480c48b0f05ce9911a824b2f148d7c5e49a634bc9fcd09df10000000ce1498b8a7ba55627f8175f430000001c5136c6951306e5301d0d4146b971918f528744fa28257122938e5a32000000483046022100e7e909b35eba58da7c33d64d9c5bd9828355ead5b8a920d21dd7b7f896e929bb022100f81c852ce297ada6272adb3f7ff835b6f4706853f93a46d38c1a9d516e464a35"
	katEnvelopeKey = "efe8b9232cd4bb90bdf9663da758701cc3be139d52592cff5d8296183ea85e07"

	// Alice → Bob's bundle (signed prekey 1 + one-time prekey 2),
	// SealPrekeyEnvelope, marshaled; and the AES key under it.
	katPrekeyEnvelope    = "020000000100000002000000410427daeeff940472ad90a1cb991b1fa77dc1663b0ef706b9db93c217eb904ac879f331a066469f95982e85a559c354be301c6e243b8b7f3cd715e47f13ff2fac5c0000000c56bf3d598f72734b75f23b3d0000001c5a8c3f65ed73e6ba583cbd3d2da1140b6face519ac48b9977ff5cc220000004730450220132959ffc5be8d48e163b72398fed4369ee9ea3f50b2cd8ce07aeea8dca3436c022100c176ca7d557179edd5eb8af9a04a516450e3ad317e61cb1a18d54ea96b20760a"
	katPrekeyEnvelopeKey = "4ccdffb27b3abb433d5ff5e20a2b7be3b8eb2cc9cc4480bafcc889892eb5a1ce"
)

func katHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex in vector: %v", err)
	}
	return b
}

func katECDH(t *testing.T, scalar string) *ecdh.PrivateKey {
	t.Helper()
	k, err := ecdh.P256().NewPrivateKey(katHex(t, scalar))
	if err != nil {
		t.Fatalf("vector scalar: %v", err)
	}
	return k
}

// katECDSA turns a vector scalar into the ecdsa key the session and
// envelope APIs take, by way of PKCS #8 (the one conversion the standard
// library offers at this module's Go version).
func katECDSA(t *testing.T, scalar string) *ecdsa.PrivateKey {
	t.Helper()
	der, err := x509.MarshalPKCS8PrivateKey(katECDH(t, scalar))
	if err != nil {
		t.Fatal(err)
	}
	k, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	return k.(*ecdsa.PrivateKey)
}

// katOpensUnder checks that key is the AES-256-GCM key the vector's
// ciphertext was sealed under.
func katOpensUnder(t *testing.T, key string, nonce, ciphertext, aad []byte) {
	t.Helper()
	aead, err := newGCM(katHex(t, key))
	if err != nil {
		t.Fatal(err)
	}
	got, err := aead.Open(nil, nonce, ciphertext, aad)
	if err != nil || string(got) != katPlaintext {
		t.Fatalf("vector ciphertext does not open under the vector key: %q, %v", got, err)
	}
}

func TestKnownAnswerSessionKeys(t *testing.T) {
	a, b := katECDSA(t, katScalarA), katECDSA(t, katScalarB)
	sa, err := NewSession(a, &b.PublicKey, []byte(katContext))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSession(b, &a.PublicKey, []byte(katContext))
	if err != nil {
		t.Fatal(err)
	}
	send, recv := katHex(t, katSendKeyA), katHex(t, katRecvKeyA)
	if !bytes.Equal(sa.sendKey[:], send) || !bytes.Equal(sa.recvLive[0].key[:], recv) {
		t.Errorf("alice keys = %x / %x, want %x / %x", sa.sendKey, sa.recvLive[0].key, send, recv)
	}
	if !bytes.Equal(sb.sendKey[:], recv) || !bytes.Equal(sb.recvLive[0].key[:], send) {
		t.Errorf("bob keys = %x / %x, want %x / %x", sb.sendKey, sb.recvLive[0].key, recv, send)
	}
}

func TestKnownAnswerEnvelopeKey(t *testing.T) {
	a, b := katECDSA(t, katScalarA), katECDSA(t, katScalarB)
	env, err := ParseEnvelope(katHex(t, katEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	katOpensUnder(t, katEnvelopeKey, env.Nonce, env.Ciphertext, env.EphemeralPub)
	got, err := OpenEnvelope(b, &a.PublicKey, env)
	if err != nil || string(got) != katPlaintext {
		t.Fatalf("OpenEnvelope = %q, %v: derived key differs from the vector's", got, err)
	}
}

func TestKnownAnswerPrekeyEnvelopeKey(t *testing.T) {
	a := katECDSA(t, katScalarA)
	user := id.NewUserID("kat-bob")
	env, err := ParsePrekeyEnvelope(katHex(t, katPrekeyEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	katOpensUnder(t, katPrekeyEnvelopeKey, env.Nonce, env.Ciphertext, prekeyInfo(user, env.SignedID, env.OneTimeID))
	ps := &PrekeyStore{
		user:    user,
		signed:  &signedPrekey{id: 1, priv: katECDH(t, katScalarSigned)},
		oneTime: map[uint32]*ecdh.PrivateKey{2: katECDH(t, katScalarOneTime)},
	}
	got, err := OpenPrekeyEnvelope(ps, &a.PublicKey, env)
	if err != nil || string(got) != katPlaintext {
		t.Fatalf("OpenPrekeyEnvelope = %q, %v: derived key differs from the vector's", got, err)
	}
}
