package secure

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sos/internal/id"
)

func newEndToEnd(t *testing.T, handle, dir string) *EndToEnd {
	t.Helper()
	e, err := NewEndToEnd(newIdentity(t, handle), PrekeyConfig{}, dir, ReplayOptions{noSync: true})
	if err != nil {
		t.Fatalf("NewEndToEnd: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEndToEndSealPicksTheKeySource walks one sender through the three key
// sources in the order a deployment meets them: a recipient never met is
// sealed to by its long-term key; once its bundle is held, by signed and
// one-time prekey, once; after that by the signed prekey alone, never by
// the spent one-time key again and never by the long-term key.
func TestEndToEndSealPicksTheKeySource(t *testing.T) {
	alice, bob := newEndToEnd(t, "alice", ""), newEndToEnd(t, "bob", "")
	seal := func(text string) (*Envelope, []byte) {
		t.Helper()
		buf, err := alice.Seal(bob.prekeys.ident.User, bob.prekeys.ident.Public(), []byte(text))
		if err != nil {
			t.Fatalf("Seal(%q): %v", text, err)
		}
		env, err := ParseEnvelope(buf)
		if err != nil {
			t.Fatalf("ParseEnvelope: %v", err)
		}
		return env, buf
	}

	env, neverMet := seal("never met")
	if env.SignedID != 0 || env.OneTimeID != 0 {
		t.Fatalf("no bundle held, yet sealed to prekeys %d/%d", env.SignedID, env.OneTimeID)
	}

	bundle, err := bob.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if bundle.OneTimeID == 0 {
		t.Fatal("fresh plane issued a bundle without a one-time prekey")
	}
	alice.Accept(bob.prekeys.ident.User, bundle)
	env, first := seal("met")
	if env.SignedID != bundle.SignedID || env.OneTimeID != bundle.OneTimeID {
		t.Fatalf("held bundle %d/%d, sealed to %d/%d", bundle.SignedID, bundle.OneTimeID, env.SignedID, env.OneTimeID)
	}
	env, second := seal("met again")
	if env.SignedID != bundle.SignedID || env.OneTimeID != 0 {
		t.Fatalf("second seal to one bundle named %d/%d, want %d/0", env.SignedID, env.OneTimeID, bundle.SignedID)
	}

	for _, buf := range [][]byte{neverMet, first, second} {
		if _, err := bob.Open(alice.prekeys.ident.Public(), buf); err != nil {
			t.Fatalf("Open: %v", err)
		}
		// At most once, whatever the key source: the signed-only and
		// long-term envelopes would reopen but for the seen-nonce set.
		if _, err := bob.Open(alice.prekeys.ident.Public(), buf); err == nil {
			t.Fatal("envelope opened twice")
		}
	}
	if _, err := bob.Open(alice.prekeys.ident.Public(), second); !errors.Is(err, ErrEnvelopeReplayed) {
		t.Fatalf("replayed signed-only envelope: err = %v, want ErrEnvelopeReplayed", err)
	}
	if got := bob.SeenNonces(); got != 3 {
		t.Fatalf("SeenNonces = %d, want 3", got)
	}
	if got := bob.PrekeysRemaining(); got != DefaultOneTimeBatch-1 {
		t.Fatalf("PrekeysRemaining = %d, want %d", got, DefaultOneTimeBatch-1)
	}

	if _, err := bob.Open(alice.prekeys.ident.Public(), katHex(t, katEnvelopeV1)); !errors.Is(err, ErrLegacyEnvelope) {
		t.Fatalf("v1 payload: err = %v, want ErrLegacyEnvelope", err)
	}
	if _, err := bob.Open(bob.prekeys.ident.Public(), neverMet); !errors.Is(err, ErrEnvelopeSig) {
		t.Fatalf("wrong sender: err = %v, want ErrEnvelopeSig", err)
	}
}

// TestEndToEndBundleTableIsBounded: a node that has met more than
// maxPeerBundles users keeps the newest maxPeerBundles bundles.
func TestEndToEndBundleTableIsBounded(t *testing.T) {
	e := newEndToEnd(t, "alice", "")
	bundle, err := e.Bundle()
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	const extra = 5
	peer := func(i int) id.UserID { return id.NewUserID(fmt.Sprintf("peer-%d", i)) }
	for i := 0; i < maxPeerBundles+extra; i++ {
		e.Accept(peer(i), bundle)
		e.Accept(peer(i), bundle) // a fresh bundle from a known peer takes no new slot
	}
	if got := len(e.peers); got != maxPeerBundles || len(e.ring) != maxPeerBundles {
		t.Fatalf("table holds %d bundles (ring %d), want %d", got, len(e.ring), maxPeerBundles)
	}
	if e.takeBundle(peer(maxPeerBundles+extra-1)) == nil {
		t.Fatal("the newest bundle was not kept")
	}
	if e.takeBundle(peer(extra-1)) != nil || e.takeBundle(peer(extra)) == nil {
		t.Fatal("eviction was not first-in first-out")
	}
	// Taking strips the one-time key from the table, in place.
	if b := e.takeBundle(peer(extra)); b == nil || b.OneTimeID != 0 || b.SignedID != bundle.SignedID {
		t.Fatalf("second take = %+v, want the signed prekey alone", b)
	}
	if got := len(e.peers); got != maxPeerBundles {
		t.Fatalf("taking changed the table size to %d", got)
	}
}

// TestEndToEndReplayAcrossRestart: with a directory, an envelope opened
// before a restart is still refused after it.
func TestEndToEndReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	alice := newEndToEnd(t, "alice", "")
	ident := newIdentity(t, "bob")
	open := func() *EndToEnd {
		t.Helper()
		e, err := NewEndToEnd(ident, PrekeyConfig{}, dir, ReplayOptions{noSync: true})
		if err != nil {
			t.Fatalf("NewEndToEnd: %v", err)
		}
		return e
	}
	bob := open()
	buf, err := alice.Seal(ident.User, ident.Public(), []byte("once"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := bob.Open(alice.prekeys.ident.Public(), buf); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := bob.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	bob = open()
	defer bob.Close()
	if got := bob.SeenNonces(); got != 1 {
		t.Fatalf("resumed %d nonces, want 1", got)
	}
	if _, err := bob.Open(alice.prekeys.ident.Public(), buf); !errors.Is(err, ErrEnvelopeReplayed) {
		t.Fatalf("replay after restart: err = %v, want ErrEnvelopeReplayed", err)
	}
}

func TestNewEndToEndFailures(t *testing.T) {
	ident := newIdentity(t, "alice")
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := NewEndToEnd(ident, PrekeyConfig{}, filepath.Join(file, "sub"), ReplayOptions{}); err == nil {
		t.Fatal("NewEndToEnd under a regular file succeeded")
	}
	if _, err := NewEndToEnd(ident, PrekeyConfig{Rand: &failReader{}}, t.TempDir(), ReplayOptions{}); err == nil {
		t.Fatal("NewEndToEnd succeeded without entropy")
	}
	entropy := &failReader{n: 1 << 20}
	e, err := NewEndToEnd(ident, PrekeyConfig{Rand: entropy}, "", ReplayOptions{})
	if err != nil {
		t.Fatalf("NewEndToEnd: %v", err)
	}
	defer e.Close()
	entropy.n = 0 // the plane seals with the reader its prekeys were minted from
	if _, err := e.Seal(ident.User, ident.Public(), nil); err == nil {
		t.Fatal("Seal succeeded without entropy")
	}
}
