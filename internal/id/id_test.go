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
