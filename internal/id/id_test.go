package id

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewUserIDStable(t *testing.T) {
	a := NewUserID("alice")
	b := NewUserID("alice")
	c := NewUserID("bob")
	if a != b {
		t.Error("same handle produced different identifiers")
	}
	if a == c {
		t.Error("different handles produced the same identifier")
	}
	if a.IsZero() {
		t.Error("derived identifier is zero")
	}
}

func TestUserIDStringRoundTrip(t *testing.T) {
	f := func(raw [UserIDLen]byte) bool {
		u := UserID(raw)
		parsed, err := ParseUserID(u.String())
		return err == nil && parsed == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUserIDStringLength(t *testing.T) {
	u := NewUserID("whoever")
	if got := len(u.String()); got != 16 {
		t.Errorf("display form length = %d, want 16", got)
	}
}

func TestParseUserIDRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "empty", give: ""},
		{name: "short", give: "AAAA"},
		{name: "long", give: "AAAAAAAAAAAAAAAAAAAAAAAAAAAA"},
		{name: "invalid alphabet", give: "????????????????"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseUserID(tt.give); err == nil {
				t.Errorf("ParseUserID(%q): want error, got nil", tt.give)
			}
		})
	}
}

func TestBytesIsACopy(t *testing.T) {
	u := NewUserID("alice")
	b := u.Bytes()
	b[0] ^= 0xff
	if bytes.Equal(b, u[:]) {
		t.Error("mutating Bytes() result affected the identifier")
	}
}

func TestSignVerify(t *testing.T) {
	ident, err := NewIdentity(NewUserID("alice"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	msg := []byte("hello opportunistic world")
	sig, err := ident.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !Verify(ident.Public(), msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(ident.Public(), append(msg, 'x'), sig) {
		t.Error("signature accepted over modified message")
	}
	if Verify(nil, msg, sig) {
		t.Error("nil key accepted a signature")
	}

	other, err := NewIdentity(NewUserID("mallory"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	if Verify(other.Public(), msg, sig) {
		t.Error("signature accepted under wrong key")
	}
}

// A crypto/rand identity signs hedged, so one message signed twice gives
// two signatures. A seeded identity is one key and signs RFC 6979, so
// equal seeds give equal keys and one message gives one signature.
func TestSeededIdentitySignsRepeatably(t *testing.T) {
	msg := []byte("one message, signed twice")
	signTwice := func(ident *Identity) ([]byte, []byte) {
		t.Helper()
		a, errA := ident.Sign(msg)
		b, errB := ident.Sign(msg)
		if errA != nil || errB != nil {
			t.Fatalf("Sign: %v, %v", errA, errB)
		}
		for _, sig := range [][]byte{a, b} {
			if !Verify(ident.Public(), msg, sig) {
				t.Fatal("signature does not verify")
			}
		}
		return a, b
	}

	live, err := NewIdentity(NewUserID("alice"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	if a, b := signTwice(live); bytes.Equal(a, b) {
		t.Error("crypto/rand identity signed one message twice to the same bytes")
	}

	seeded := func() *Identity {
		t.Helper()
		ident, err := NewIdentity(NewUserID("alice"), mrand.NewChaCha8([32]byte{7}))
		if err != nil {
			t.Fatalf("NewIdentity: %v", err)
		}
		return ident
	}
	x, y := seeded(), seeded()
	if !x.Key.Equal(y.Key) {
		t.Error("equal seeds gave different keys")
	}
	a, b := signTwice(x)
	if !bytes.Equal(a, b) {
		t.Error("seeded identity signed one message twice to different bytes")
	}
	if c, _ := signTwice(y); !bytes.Equal(a, c) {
		t.Error("identities from equal seeds signed one message differently")
	}
}

// GenerateKey takes exactly 32 bytes per try: a scalar past the group
// order is skipped, the next one is the key, and a reader that never
// yields a valid scalar is an error, not a hang.
func TestGenerateKeyRetriesOutOfRangeScalar(t *testing.T) {
	valid := bytes.Repeat([]byte{0x42}, 32)
	r := bytes.NewReader(append(bytes.Repeat([]byte{0xff}, 32), append(valid, 0x99)...))
	key, err := GenerateKey(r)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	if !bytes.Equal(key.Bytes(), valid) {
		t.Errorf("key scalar = %x, want the second draw %x", key.Bytes(), valid)
	}
	if r.Len() != 1 {
		t.Errorf("reader has %d bytes left, want 1 (two 32-byte draws)", r.Len())
	}
	if _, err := GenerateKey(bytes.NewReader(bytes.Repeat([]byte{0xff}, 32*maxKeyTries))); err == nil {
		t.Error("GenerateKey accepted a reader with no valid scalar")
	}
}

func TestSignatureTamperProperty(t *testing.T) {
	ident, err := NewIdentity(NewUserID("prop"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	rng := rand2()
	f := func(msg []byte) bool {
		sig, err := ident.Sign(msg)
		if err != nil {
			return false
		}
		if !Verify(ident.Public(), msg, sig) {
			return false
		}
		// Flip one random bit of the message; verification must fail.
		mutated := append([]byte(nil), msg...)
		if len(mutated) == 0 {
			mutated = []byte{0}
		}
		i := rng.IntN(len(mutated))
		mutated[i] ^= 1 << uint(rng.IntN(8))
		return !Verify(ident.Public(), mutated, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// rand2 returns a deterministic PRNG for test mutation choices.
func rand2() *mrand.Rand {
	return mrand.New(mrand.NewPCG(1, 2))
}
