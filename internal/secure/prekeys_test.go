package secure

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"testing"
	"time"

	"sos/internal/clock"
	"sos/internal/wire"
)

var prekeyEpoch0 = time.Unix(1700000000, 0)

// failReader yields entropy for n reads, then fails — for driving the
// pool-exhaustion and RNG-error paths deterministically.
type failReader struct {
	n int
}

func (r *failReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errors.New("entropy exhausted")
	}
	r.n--
	return rand.Reader.Read(p)
}

func newPrekeyStore(t *testing.T, handle string, cfg PrekeyConfig) *PrekeyStore {
	t.Helper()
	ident := newIdentity(t, handle)
	ps, err := NewPrekeyStore(ident, ident.User, cfg)
	if err != nil {
		t.Fatalf("NewPrekeyStore: %v", err)
	}
	return ps
}

func TestPrekeyBundleVerify(t *testing.T) {
	ident := newIdentity(t, "bob")
	ps, err := NewPrekeyStore(ident, ident.User, PrekeyConfig{})
	if err != nil {
		t.Fatalf("NewPrekeyStore: %v", err)
	}
	b, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if !VerifyBundle(ident.Public(), b) {
		t.Fatal("honest bundle failed verification")
	}
	if VerifyBundle(newIdentity(t, "eve").Public(), b) {
		t.Fatal("bundle verified against the wrong identity")
	}
	tampered := *b
	tampered.SignedID++
	if VerifyBundle(ident.Public(), &tampered) {
		t.Fatal("tampered bundle verified")
	}
	// ID 0 names the long-term key in an envelope: a bundle claiming it
	// is invalid even under its owner's signature.
	reserved := *b
	reserved.SignedID = 0
	if reserved.SignedSig, err = ident.Sign(prekeyTranscript(reserved.User, 0, reserved.SignedPub)); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if VerifyBundle(ident.Public(), &reserved) {
		t.Fatal("bundle with the reserved signed-prekey ID 0 verified")
	}
	if b.OneTimeID == 0 || len(b.OneTimePub) == 0 {
		t.Fatal("fresh store issued a bundle without a one-time prekey")
	}
}

func TestPrekeyEnvelopeRoundTripAndBurn(t *testing.T) {
	sender := newIdentity(t, "alice")
	ps := newPrekeyStore(t, "bob", PrekeyConfig{})
	owner := ps.ident.Public()
	b, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}

	env, err := SealEnvelope(nil, sender, ps.user, owner, b, []byte("for bob, once"))
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}
	plain, err := OpenEnvelope(ps, sender.Public(), env)
	if err != nil {
		t.Fatalf("OpenEnvelope: %v", err)
	}
	if string(plain) != "for bob, once" {
		t.Fatalf("OpenEnvelope = %q", plain)
	}
	// The authenticated open burned the one-time key: the same envelope
	// can never be opened again, even by its addressee.
	if _, err := OpenEnvelope(ps, sender.Public(), env); !errors.Is(err, ErrPrekeyUnknown) {
		t.Fatalf("second open: err = %v, want ErrPrekeyUnknown", err)
	}
	// A second envelope sealed to the already-consumed bundle is refused
	// too — no silent downgrade to signed-only.
	env2, err := SealEnvelope(nil, sender, ps.user, owner, b, []byte("again"))
	if err != nil {
		t.Fatalf("SealEnvelope(2): %v", err)
	}
	if _, err := OpenEnvelope(ps, sender.Public(), env2); !errors.Is(err, ErrPrekeyUnknown) {
		t.Fatalf("open against consumed one-time: err = %v, want ErrPrekeyUnknown", err)
	}
}

func TestPrekeyEnvelopeRejectsForgery(t *testing.T) {
	sender := newIdentity(t, "alice")
	mallory := newIdentity(t, "mallory")
	ps := newPrekeyStore(t, "bob", PrekeyConfig{})
	b, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	env, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), b, []byte("secret"))
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}
	// Claimed sender mismatch: signature check fails.
	if _, err := OpenEnvelope(ps, mallory.Public(), env); !errors.Is(err, ErrEnvelopeSig) {
		t.Fatalf("forged sender: err = %v, want ErrEnvelopeSig", err)
	}
	// A bundle that fails identity verification cannot be sealed to.
	bad := *b
	bad.SignedSig = append([]byte(nil), b.SignedSig...)
	bad.SignedSig[0] ^= 0x01
	if _, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), &bad, []byte("x")); !errors.Is(err, ErrBundleSig) {
		t.Fatalf("tampered bundle sealed: err = %v, want ErrBundleSig", err)
	}
	// Nil envelope.
	if _, err := OpenEnvelope(ps, sender.Public(), nil); err == nil {
		t.Fatal("nil envelope opened")
	}
}

func TestPrekeyExhaustionFallsBackToSignedOnly(t *testing.T) {
	sender := newIdentity(t, "alice")
	ps := newPrekeyStore(t, "bob", PrekeyConfig{})
	if ps.Remaining() != DefaultOneTimeBatch {
		t.Fatalf("Remaining = %d, want %d", ps.Remaining(), DefaultOneTimeBatch)
	}
	// Cut the entropy supply: replenishment can no longer mint keys.
	ps.mu.Lock()
	ps.rng = &failReader{}
	ps.mu.Unlock()

	// Drain the pool.
	for i := 0; i < DefaultOneTimeBatch; i++ {
		b, err := ps.Bundle()
		if err != nil {
			t.Fatalf("Bundle(%d): %v", i, err)
		}
		if b.OneTimeID == 0 {
			t.Fatalf("Bundle(%d) had no one-time key with %d remaining", i, ps.Remaining())
		}
	}
	if ps.Remaining() != 0 {
		t.Fatalf("Remaining after drain = %d, want 0", ps.Remaining())
	}

	// Exhausted: the bundle degrades to signed-only and still works.
	b, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle exhausted: %v", err)
	}
	if b.OneTimeID != 0 || b.OneTimePub != nil {
		t.Fatalf("exhausted bundle carries a one-time key: id %d", b.OneTimeID)
	}
	env, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), b, []byte("signed-only"))
	if err != nil {
		t.Fatalf("SealEnvelope signed-only: %v", err)
	}
	plain, err := OpenEnvelope(ps, sender.Public(), env)
	if err != nil {
		t.Fatalf("OpenEnvelope signed-only: %v", err)
	}
	if string(plain) != "signed-only" {
		t.Fatalf("OpenEnvelope = %q", plain)
	}
	// Signed-only envelopes reopen (nothing was burned) — the documented
	// weakness of the fallback.
	if _, err := OpenEnvelope(ps, sender.Public(), env); err != nil {
		t.Fatalf("signed-only reopen: %v", err)
	}

	// Entropy returns: the next bundle replenishes the pool.
	ps.mu.Lock()
	ps.rng = rand.Reader
	ps.mu.Unlock()
	b2, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle after recovery: %v", err)
	}
	if b2.OneTimeID == 0 {
		t.Fatal("pool did not replenish once entropy returned")
	}
}

func TestPrekeySignedRotationAndRetirement(t *testing.T) {
	sender := newIdentity(t, "alice")
	clk := clock.NewVirtual(prekeyEpoch0)
	rec := &StatsRecorder{}
	lifetime := DefaultSignedPrekeyLifetime
	ps := newPrekeyStore(t, "bob", PrekeyConfig{Clock: clk, Stats: rec})
	owner := ps.ident.Public()

	b1, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	envOld, err := SealEnvelope(nil, sender, ps.user, owner, b1, []byte("sealed before rotation"))
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}

	// Past the lifetime, Bundle rotates the signed prekey.
	clk.Advance(lifetime + time.Minute)
	b2, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle after lifetime: %v", err)
	}
	if b2.SignedID == b1.SignedID {
		t.Fatal("signed prekey did not rotate past its lifetime")
	}
	if got := rec.Read().Rotations; got != 1 {
		t.Fatalf("rotations stat = %d, want 1", got)
	}
	// The previous signed prekey stays openable for one more lifetime.
	plain, err := OpenEnvelope(ps, sender.Public(), envOld)
	if err != nil {
		t.Fatalf("open against previous signed prekey: %v", err)
	}
	if string(plain) != "sealed before rotation" {
		t.Fatalf("open = %q", plain)
	}

	// Seal another envelope to the long-retired generation: once the
	// previous key ages out, it is refused.
	envStale, err := SealEnvelope(nil, sender, ps.user, owner, b1, []byte("too late"))
	if err != nil {
		t.Fatalf("SealEnvelope stale: %v", err)
	}
	clk.Advance(2 * lifetime)
	if _, err := ps.Bundle(); err != nil { // issuing a bundle applies the clock
		t.Fatalf("Bundle: %v", err)
	}
	if _, err := OpenEnvelope(ps, sender.Public(), envStale); !errors.Is(err, ErrPrekeyUnknown) {
		t.Fatalf("open against retired signed prekey: err = %v, want ErrPrekeyUnknown", err)
	}
}

func TestPrekeyReplenishAtLowWater(t *testing.T) {
	ps := newPrekeyStore(t, "bob", PrekeyConfig{})
	// Issue down past the low-water mark; each Bundle that starts below
	// it refills the pool to a full batch first.
	refills, prev := 0, ps.Remaining()
	for i := 0; i < 2*DefaultOneTimeBatch; i++ {
		if _, err := ps.Bundle(); err != nil {
			t.Fatalf("Bundle(%d): %v", i, err)
		}
		r := ps.Remaining()
		if r < DefaultOneTimeLowWater-1 {
			t.Fatalf("pool fell to %d with working entropy", r)
		}
		if r > prev {
			refills++
		}
		prev = r
	}
	if refills == 0 {
		t.Fatalf("no refill in %d bundles", 2*DefaultOneTimeBatch)
	}
}

// TestPrekeyIssuedKeysAreCapped: a bundle per contact, as every LinkUp
// issues one, holds at most maxPeerBundles issued one-time keys plus the
// unissued batch. The newest bundle still opens; a key dropped past the
// cap refuses its envelope as a burned one does, never downgrading.
func TestPrekeyIssuedKeysAreCapped(t *testing.T) {
	sender := newIdentity(t, "alice")
	ps := newPrekeyStore(t, "bob", PrekeyConfig{})
	first, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	last := first
	for i := 1; i < 5000; i++ {
		if last, err = ps.Bundle(); err != nil {
			t.Fatalf("Bundle(%d): %v", i, err)
		}
	}
	ps.mu.Lock()
	held := len(ps.oneTime)
	ps.mu.Unlock()
	if held > maxPeerBundles+DefaultOneTimeBatch {
		t.Fatalf("5000 bundles hold %d one-time keys, want at most %d", held, maxPeerBundles+DefaultOneTimeBatch)
	}
	for _, c := range []struct {
		b    *wire.PrekeyBundle
		want error
	}{{last, nil}, {first, ErrPrekeyUnknown}} {
		env, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), c.b, []byte("hello"))
		if err != nil {
			t.Fatalf("SealEnvelope: %v", err)
		}
		if _, err := OpenEnvelope(ps, sender.Public(), env); !errors.Is(err, c.want) {
			t.Errorf("open against one-time key %d: err = %v, want %v", c.b.OneTimeID, err, c.want)
		}
	}
}

func TestPrekeyEnvelopeMarshalRoundTrip(t *testing.T) {
	sender := newIdentity(t, "alice")
	ps := newPrekeyStore(t, "bob", PrekeyConfig{})
	b, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	env, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), b, []byte("wire me"))
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}

	buf := env.Marshal()
	if buf[0] != envelopeVersion {
		t.Fatalf("marshaled envelope begins with %#x, want the version byte", buf[0])
	}

	got, err := ParseEnvelope(buf)
	if err != nil {
		t.Fatalf("ParseEnvelope: %v", err)
	}
	if got.SignedID != env.SignedID || got.OneTimeID != env.OneTimeID ||
		!bytes.Equal(got.EphemeralPub, env.EphemeralPub) ||
		!bytes.Equal(got.Nonce, env.Nonce) ||
		!bytes.Equal(got.Ciphertext, env.Ciphertext) ||
		!bytes.Equal(got.SenderSig, env.SenderSig) {
		t.Fatal("parsed envelope differs from the original")
	}
	// The parsed copy opens.
	if plain, err := OpenEnvelope(ps, sender.Public(), got); err != nil || string(plain) != "wire me" {
		t.Fatalf("open parsed envelope = %q, %v", plain, err)
	}

	// Truncation at every byte boundary is rejected, never mis-parsed.
	for i := 0; i < len(buf); i++ {
		if _, err := ParseEnvelope(buf[:i]); err == nil {
			t.Fatalf("truncation at %d parsed", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := ParseEnvelope(append(append([]byte(nil), buf...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestLegacyEnvelopeMarshalRoundTrip: the v1 layout (four length-prefixed
// fields, no version byte) is retired. A payload in it — the vector the
// parent commit's known-answer test opened — is refused by name at every
// length, never parsed as something else.
func TestLegacyEnvelopeMarshalRoundTrip(t *testing.T) {
	buf := katHex(t, katEnvelopeV1)
	for i := 1; i <= len(buf); i++ {
		if _, err := ParseEnvelope(buf[:i]); !errors.Is(err, ErrLegacyEnvelope) {
			t.Fatalf("v1 payload cut at %d: err = %v, want ErrLegacyEnvelope", i, err)
		}
	}
	if _, err := ParseEnvelope(nil); err == nil || errors.Is(err, ErrLegacyEnvelope) {
		t.Fatalf("empty payload: err = %v, want a plain truncation error", err)
	}
	if _, err := ParseEnvelope([]byte{envelopeVersion + 1, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown version byte parsed")
	}
}

func TestEnvelopeRejectsGarbageKeys(t *testing.T) {
	sender := newIdentity(t, "alice")
	recipient := newIdentity(t, "bob")
	ps := newPrekeyStore(t, "carol", PrekeyConfig{})
	b, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}

	env, err := SealEnvelope(nil, sender, recipient.User, recipient.Public(), nil, []byte("x"))
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}
	// An ephemeral key that is not a curve point fails before any AEAD
	// work — but only after the signature check, so re-sign the mangled
	// transcript to reach the parse.
	env.EphemeralPub = []byte("not a point")
	env.SenderSig, err = sender.Sign(envelopeTranscript(env))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := OpenEnvelope(storeFor(t, recipient), sender.Public(), env); err == nil {
		t.Fatal("envelope with a garbage ephemeral key opened")
	}

	penv, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), b, []byte("x"))
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}
	penv.EphemeralPub = []byte("not a point")
	penv.SenderSig, err = sender.Sign(envelopeTranscript(penv))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := OpenEnvelope(ps, sender.Public(), penv); err == nil {
		t.Fatal("prekey envelope with a garbage ephemeral key opened")
	}

	// A bundle whose signed prekey is not a curve point cannot be sealed
	// to, even when its signature verifies.
	bad := *b
	bad.SignedPub = []byte("not a point")
	bad.SignedSig, err = ps.ident.Sign(prekeyTranscript(bad.User, bad.SignedID, bad.SignedPub))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), &bad, []byte("x")); err == nil {
		t.Fatal("sealed to a bundle with a garbage signed prekey")
	}
	bad = *b
	bad.OneTimePub = []byte("not a point")
	if _, err := SealEnvelope(nil, sender, ps.user, ps.ident.Public(), &bad, []byte("x")); err == nil {
		t.Fatal("sealed to a bundle with a garbage one-time prekey")
	}
}

func TestSealFailsWithoutEntropy(t *testing.T) {
	sender := newIdentity(t, "alice")
	recipient := newIdentity(t, "bob")
	var dead io.Reader = &failReader{}
	if _, err := SealEnvelope(dead, sender, recipient.User, recipient.Public(), nil, []byte("x")); err == nil {
		t.Fatal("SealEnvelope succeeded without entropy")
	}
	ps := newPrekeyStore(t, "carol", PrekeyConfig{})
	b, err := ps.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if _, err := SealEnvelope(&failReader{}, sender, ps.user, ps.ident.Public(), b, []byte("x")); err == nil {
		t.Fatal("SealEnvelope succeeded without entropy")
	}
	// Entropy dies between the ephemeral key and the nonce.
	if _, err := SealEnvelope(&failReader{n: 1}, sender, ps.user, ps.ident.Public(), b, []byte("x")); err == nil {
		t.Fatal("SealEnvelope succeeded with entropy for one key only")
	}
	if _, err := NewPrekeyStore(sender, sender.User, PrekeyConfig{Rand: &failReader{}}); err == nil {
		t.Fatal("NewPrekeyStore succeeded without entropy")
	}
	if _, err := NewPrekeyStore(sender, sender.User, PrekeyConfig{Rand: &failReader{n: 1}}); err == nil {
		t.Fatal("NewPrekeyStore succeeded with entropy for the signed prekey only")
	}
}
