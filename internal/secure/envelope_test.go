package secure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"sos/internal/id"
	"sos/internal/wire"
)

// keySources seals one envelope from sender to ps's owner per key source:
// the long-term key (no bundle), a signed prekey alone, a signed prekey
// with a one-time prekey.
func keySources(t testing.TB, sender *id.Identity, ps *PrekeyStore) map[string]*Envelope {
	t.Helper()
	full, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	signedOnly := *full
	signedOnly.OneTimeID, signedOnly.OneTimePub = 0, nil
	out := make(map[string]*Envelope)
	for name, bundle := range map[string]*wire.PrekeyBundle{"long-term": nil, "signed-only": &signedOnly, "signed+one-time": full} {
		env, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), bundle, []byte("for "+name))
		if err != nil {
			t.Fatalf("SealEnvelope(%s): %v", name, err)
		}
		out[name] = env
	}
	return out
}

// TestEnvelopeKeySources: one format, one seal and one open serve all
// three key sources, and the ids that tell them apart cannot be rewritten
// — they are in the signed transcript and in the AEAD's additional data.
func TestEnvelopeKeySources(t *testing.T) {
	sender := newIdentity(t, "alice")
	ps := newPrekeyStore(t, "bob", PrekeyConfig{})
	signedID := ps.signed.id
	envs := keySources(t, sender, ps)
	cases := []struct {
		name     string
		signedID uint32 // the signed key the envelope names
		oneTime  bool   // whether it names a one-time key too
		rewrite  int    // byte offset of the id to rewrite …
		to       uint32 // … and a value that still resolves to a key
	}{
		{name: "long-term", rewrite: 1, to: signedID},
		{name: "signed-only", signedID: signedID, rewrite: 1, to: 0},
		{name: "signed+one-time", signedID: signedID, oneTime: true, rewrite: 5, to: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := envs[tc.name].Marshal()
			env, err := ParseEnvelope(buf)
			if err != nil {
				t.Fatalf("ParseEnvelope: %v", err)
			}
			if env.SignedID != tc.signedID || (env.OneTimeID != 0) != tc.oneTime {
				t.Fatalf("envelope names keys %d/%d", env.SignedID, env.OneTimeID)
			}
			if !bytes.Equal(env.Marshal(), buf) {
				t.Fatal("Marshal(ParseEnvelope(buf)) != buf")
			}

			// Rewrite one id in the marshaled bytes: the signature fails.
			forged := append([]byte(nil), buf...)
			binary.BigEndian.PutUint32(forged[tc.rewrite:], tc.to)
			fenv, err := ParseEnvelope(forged)
			if err != nil {
				t.Fatalf("ParseEnvelope(forged): %v", err)
			}
			if _, err := OpenEnvelope(ps, sender.Public(), fenv); !errors.Is(err, ErrEnvelopeSig) {
				t.Fatalf("rewritten id: err = %v, want ErrEnvelopeSig", err)
			}
			// Even re-signed (the sender itself re-attributing its
			// ciphertext to other key material), the AEAD refuses it.
			if fenv.SenderSig, err = sender.Sign(envelopeTranscript(fenv)); err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if _, err := OpenEnvelope(ps, sender.Public(), fenv); !errors.Is(err, ErrEnvelopeAuth) {
				t.Fatalf("rewritten id, re-signed: err = %v, want ErrEnvelopeAuth", err)
			}

			plain, err := OpenEnvelope(ps, sender.Public(), env)
			if err != nil || string(plain) != "for "+tc.name {
				t.Fatalf("OpenEnvelope = %q, %v", plain, err)
			}
			_, err = OpenEnvelope(ps, sender.Public(), env)
			if tc.oneTime && !errors.Is(err, ErrPrekeyUnknown) {
				t.Fatalf("second open of a one-time envelope: err = %v, want ErrPrekeyUnknown", err)
			}
			if !tc.oneTime && err != nil {
				t.Fatalf("second open: %v (only the seen-nonce set stops it)", err)
			}
		})
	}

	// The long-term key comes with no one-time key, and a bundle is only
	// sealed to for the user it names.
	env := envs["long-term"]
	env.OneTimeID = 7
	var err error
	if env.SenderSig, err = sender.Sign(envelopeTranscript(env)); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := OpenEnvelope(ps, sender.Public(), env); !errors.Is(err, ErrPrekeyUnknown) {
		t.Fatalf("long-term key with a one-time id: err = %v, want ErrPrekeyUnknown", err)
	}
	bundle, _ := ps.Bundle()
	if _, err := SealEnvelope(nil, sender, sender.User, ps.ident.Public(), bundle, nil); !errors.Is(err, ErrBundleSig) {
		t.Fatalf("bundle sealed to for another user: err = %v, want ErrBundleSig", err)
	}
}

// FuzzEnvelope fuzzes ParseEnvelope, which reads bytes any author can put
// in a direct message: it must never panic, must honour the per-field
// bound, and whatever it accepts must marshal back to the same bytes.
func FuzzEnvelope(f *testing.F) {
	sender, err := id.NewIdentity(id.NewUserID("alice"), nil)
	if err != nil {
		f.Fatal(err)
	}
	recipient, err := id.NewIdentity(id.NewUserID("bob"), nil)
	if err != nil {
		f.Fatal(err)
	}
	ps, err := NewPrekeyStore(recipient, recipient.User, PrekeyConfig{})
	if err != nil {
		f.Fatal(err)
	}
	for _, env := range keySources(f, sender, ps) {
		buf := env.Marshal()
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Add(katHex(f, katEnvelopeV1))
	f.Fuzz(func(t *testing.T, buf []byte) {
		env, err := ParseEnvelope(buf)
		if err != nil {
			if len(buf) > 0 && buf[0] == 0 && !errors.Is(err, ErrLegacyEnvelope) {
				t.Fatalf("v1 first byte: err = %v, want ErrLegacyEnvelope", err)
			}
			return
		}
		for _, field := range [][]byte{env.EphemeralPub, env.Nonce, env.Ciphertext, env.SenderSig} {
			if len(field) > maxEnvelopeField {
				t.Fatalf("field of %d bytes accepted", len(field))
			}
		}
		if !bytes.Equal(env.Marshal(), buf) {
			t.Fatal("Marshal(ParseEnvelope(buf)) != buf")
		}
	})
}
