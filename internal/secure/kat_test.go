package secure

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hkdf"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"testing"

	"sos/internal/id"
)

// Known-answer vectors for key derivation. They were produced by the
// commit that still derived keys with the module's own hand-rolled HKDF
// package, so passing here proves the standard library's crypto/hkdf
// yields the same bytes on every derivation path: session roots and
// bundle-sealed envelopes. That envelope was sealed by that commit (its
// ephemeral key and nonce are whatever crypto/rand gave it); opening it
// needs the exact AES key it derived. The long-term-key envelope
// (SignedID 0) was sealed by the commit that made it the same format; its
// test derives the key a second way instead.
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

	// Alice → Bob in the retired v1 layout, as the parent commit's
	// SealEnvelope marshaled it: refused as ErrLegacyEnvelope now.
	katEnvelopeV1 = "0000004104c50977f9c44e2d962f02872653a68dd7d991ad6c5d2ee526fc69150b93808249ff5394ece773271480c48b0f05ce9911a824b2f148d7c5e49a634bc9fcd09df10000000ce1498b8a7ba55627f8175f430000001c5136c6951306e5301d0d4146b971918f528744fa28257122938e5a32000000483046022100e7e909b35eba58da7c33d64d9c5bd9828355ead5b8a920d21dd7b7f896e929bb022100f81c852ce297ada6272adb3f7ff835b6f4706853f93a46d38c1a9d516e464a35"

	// Alice → Bob's certified long-term key (SignedID 0, no bundle),
	// SealEnvelope, marshaled; and the AES key under it.
	katEnvelope    = "020000000000000000000000410451181c00343cce69ffbc8001e3037e5a9b91b5785243cae96150915a0449d5b224ec6fd4c89faa981e8a417dcaa8d91331c24fe99759d0d99d20b79dc2358caf0000000c78ade7776bb54cb9e05044490000001c791ebc12a81c78aff46f39337ebf4875a96f92d4816bfa703f71757e0000004730450220653ab93b520d9497c8e929a7068c21c20fb81218493b0fe7e4831bfd7a5d5049022100c57f4c6c7d00d6116801fbc86b46b3aa1c488b58906baa0b69590001082764f7"
	katEnvelopeKey = "d1ae98ed99a51217b1bc1872d30117235f89d4ab673b92f3122e94085994ee13"

	// Alice → Bob's bundle (signed prekey 1 + one-time prekey 2),
	// sealed by the parent commit, marshaled; and the AES key under it.
	katPrekeyEnvelope    = "020000000100000002000000410427daeeff940472ad90a1cb991b1fa77dc1663b0ef706b9db93c217eb904ac879f331a066469f95982e85a559c354be301c6e243b8b7f3cd715e47f13ff2fac5c0000000c56bf3d598f72734b75f23b3d0000001c5a8c3f65ed73e6ba583cbd3d2da1140b6face519ac48b9977ff5cc220000004730450220132959ffc5be8d48e163b72398fed4369ee9ea3f50b2cd8ce07aeea8dca3436c022100c176ca7d557179edd5eb8af9a04a516450e3ad317e61cb1a18d54ea96b20760a"
	katPrekeyEnvelopeKey = "4ccdffb27b3abb433d5ff5e20a2b7be3b8eb2cc9cc4480bafcc889892eb5a1ce"
)

func katHex(t testing.TB, s string) []byte {
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
	user := id.NewUserID("kat-bob")
	env, err := ParseEnvelope(katHex(t, katEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	if env.SignedID != 0 || env.OneTimeID != 0 {
		t.Fatalf("vector names keys %d/%d, want the long-term key", env.SignedID, env.OneTimeID)
	}
	// The key, derived here with nothing of the package but the context
	// string: ECDH with the ephemeral key, HKDF-SHA256 salted by it, the
	// info "context · recipient · signed ID 0 · one-time ID 0".
	eph, err := ecdh.P256().NewPublicKey(env.EphemeralPub)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := katECDH(t, katScalarB).ECDH(eph)
	if err != nil {
		t.Fatal(err)
	}
	info := append(append([]byte(prekeyCtx), user[:]...), 0, 0, 0, 0, 0, 0, 0, 0)
	key, err := hkdf.Key(sha256.New, shared, env.EphemeralPub, string(info), 32)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(key) != katEnvelopeKey {
		t.Fatalf("independent derivation = %x, vector key %s", key, katEnvelopeKey)
	}
	katOpensUnder(t, katEnvelopeKey, env.Nonce, env.Ciphertext, info)
	ps := &PrekeyStore{user: user, ident: &id.Identity{User: user, Key: b}}
	got, err := OpenEnvelope(ps, &a.PublicKey, env)
	if err != nil || string(got) != katPlaintext {
		t.Fatalf("OpenEnvelope = %q, %v: derived key differs from the vector's", got, err)
	}
}

func TestKnownAnswerPrekeyEnvelopeKey(t *testing.T) {
	a := katECDSA(t, katScalarA)
	user := id.NewUserID("kat-bob")
	env, err := ParseEnvelope(katHex(t, katPrekeyEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	katOpensUnder(t, katPrekeyEnvelopeKey, env.Nonce, env.Ciphertext, envelopeInfo(user, env.SignedID, env.OneTimeID))
	ps := &PrekeyStore{
		user:    user,
		signed:  &signedPrekey{id: 1, priv: katECDH(t, katScalarSigned)},
		oneTime: map[uint32]*ecdh.PrivateKey{2: katECDH(t, katScalarOneTime)},
	}
	got, err := OpenEnvelope(ps, &a.PublicKey, env)
	if err != nil || string(got) != katPlaintext {
		t.Fatalf("OpenEnvelope = %q, %v: derived key differs from the vector's", got, err)
	}
}
