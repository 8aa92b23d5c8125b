// Prekey bundles: forward secrecy for peers that are not online
// together. An Envelope sealed to the recipient's *long-term* identity
// key (SignedID 0) is all a sender can do for a recipient it never met,
// but a device captured months later retroactively opens every such
// envelope ever recorded for it. Prekeys fix that the X3DH way, sized down
// for SOS: each node publishes a bundle (wire.PrekeyBundle) — a
// medium-lived *signed prekey* (authenticated by the identity key, rotated
// on the clock) plus an optional *one-time prekey* (used once, then
// deleted) — and senders seal against those instead of the identity key.
// Deleting a consumed one-time key, and rotating the signed prekey,
// destroys the private half of the agreement: recorded envelopes become
// unopenable even with the identity key in hand. When the one-time pool is
// exhausted, sealing falls back to the signed prekey alone — weaker
// (replay of the same bundle is possible until it rotates) but still
// forward-secret across rotations, matching X3DH's own fallback.
package secure

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/wire"
)

// Prekey scheme constants, the same for every store: the signed prekey's
// lifetime, the one-time keys minted per replenish, and the unissued
// pool depth below which a Bundle call replenishes.
const (
	DefaultSignedPrekeyLifetime = 6 * time.Hour
	DefaultOneTimeBatch         = 32
	DefaultOneTimeLowWater      = 8
)

// Errors reported by the prekey scheme.
var (
	ErrBundleSig     = errors.New("secure: prekey bundle signature invalid")
	ErrPrekeyUnknown = errors.New("secure: envelope names an unknown or retired prekey")
)

// VerifyBundle checks a published bundle's signed-prekey signature against
// the owner's identity public key. The signed prekey is authenticated by
// that signature; the one-time prekey (ID 0 = absent, pool exhausted) is
// unauthenticated on its own but only ever used *together* with the signed
// one, as in X3DH. Signed-prekey ID 0 is reserved — in an envelope it
// names the long-term key — so no valid bundle carries it.
func VerifyBundle(owner *ecdsa.PublicKey, b *wire.PrekeyBundle) bool {
	return b.SignedID != 0 && id.Verify(owner, prekeyTranscript(b.User, b.SignedID, b.SignedPub), b.SignedSig)
}

// prekeyTranscript is the byte string the bundle owner signs: context,
// owner, signed-prekey ID, signed-prekey public point.
func prekeyTranscript(user id.UserID, signedID uint32, signedPub []byte) []byte {
	out := make([]byte, 0, len(prekeyCtx)+len(user)+4+len(signedPub))
	out = append(out, prekeyCtx...)
	out = append(out, user[:]...)
	out = binary.BigEndian.AppendUint32(out, signedID)
	return append(out, signedPub...)
}

// PrekeyConfig wires a PrekeyStore to its owner; the zero value selects
// the system clock and crypto/rand, and counts nothing.
type PrekeyConfig struct {
	Clock clock.Clock // nil = system clock
	Rand  io.Reader   // nil = crypto/rand
	Stats *StatsRecorder
}

// PrekeyStore holds one node's private prekey material: the current and
// previous signed prekeys (the previous stays openable for one lifetime
// after rotation, the prekey analogue of the session overlap window) and
// the one-time pool. Safe for concurrent use.
type PrekeyStore struct {
	mu    sync.Mutex
	ident *id.Identity
	user  id.UserID
	clk   clock.Clock
	rng   io.Reader
	rec   *StatsRecorder

	signed  *signedPrekey
	prev    *signedPrekey
	oneTime map[uint32]*ecdh.PrivateKey
	queue   []uint32 // unissued one-time IDs, handed out in order
	issued  []uint32 // issued one-time IDs, oldest first, at most maxPeerBundles
	nextID  uint32
}

type signedPrekey struct {
	id   uint32
	priv *ecdh.PrivateKey
	pub  []byte
	sig  []byte
	born time.Time
}

// NewPrekeyStore mints the initial signed prekey and one-time batch for
// ident's user.
func NewPrekeyStore(ident *id.Identity, user id.UserID, cfg PrekeyConfig) (*PrekeyStore, error) {
	ps := &PrekeyStore{
		ident:   ident,
		user:    user,
		clk:     cfg.Clock,
		rng:     cfg.Rand,
		rec:     cfg.Stats,
		oneTime: make(map[uint32]*ecdh.PrivateKey),
		nextID:  1,
	}
	if ps.clk == nil {
		ps.clk = clock.System()
	}
	if ps.rng == nil {
		ps.rng = rand.Reader
	}
	if err := ps.rotateSignedLocked(); err != nil {
		return nil, err
	}
	ps.prev = nil // the initial mint is not a rotation
	if err := ps.replenishLocked(); err != nil {
		return nil, err
	}
	return ps, nil
}

// rotateSignedLocked mints and signs a fresh signed prekey, demoting the
// current one to previous (and dropping the old previous — its private
// key becomes unreachable, which is the forward-secrecy event).
func (ps *PrekeyStore) rotateSignedLocked() error {
	priv, err := id.GenerateKey(ps.rng)
	if err != nil {
		return fmt.Errorf("secure: generating signed prekey: %w", err)
	}
	pub := priv.PublicKey().Bytes()
	sid := ps.nextID
	ps.nextID++
	sig, err := ps.ident.Sign(prekeyTranscript(ps.user, sid, pub))
	if err != nil {
		return fmt.Errorf("secure: signing prekey: %w", err)
	}
	ps.prev = ps.signed
	ps.signed = &signedPrekey{id: sid, priv: priv, pub: pub, sig: sig, born: ps.clk.Now()}
	return nil
}

// replenishLocked tops the unissued one-time pool back up to a full
// batch.
func (ps *PrekeyStore) replenishLocked() error {
	for len(ps.queue) < DefaultOneTimeBatch {
		priv, err := id.GenerateKey(ps.rng)
		if err != nil {
			return fmt.Errorf("secure: generating one-time prekey: %w", err)
		}
		oid := ps.nextID
		ps.nextID++
		ps.oneTime[oid] = priv
		ps.queue = append(ps.queue, oid)
	}
	return nil
}

// maybeRotateLocked applies clock-driven maintenance whenever a bundle is
// issued: rotates the signed prekey past its lifetime (counting into the
// rotations stat) and retires the previous one a further lifetime later.
func (ps *PrekeyStore) maybeRotateLocked() error {
	now := ps.clk.Now()
	if now.Sub(ps.signed.born) > DefaultSignedPrekeyLifetime {
		if err := ps.rotateSignedLocked(); err != nil {
			return err
		}
		bump(ps.rec, cRotations)
	}
	if ps.prev != nil && now.Sub(ps.prev.born) > 2*DefaultSignedPrekeyLifetime {
		ps.prev = nil
	}
	return nil
}

// Bundle issues a fresh bundle for a peer: the current signed prekey
// plus the next unissued one-time prekey. When the pool is exhausted
// (every minted key already issued and replenishment failed or was
// outpaced) the bundle carries the signed prekey alone.
func (ps *PrekeyStore) Bundle() (*wire.PrekeyBundle, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.maybeRotateLocked(); err != nil {
		return nil, err
	}
	if len(ps.queue) < DefaultOneTimeLowWater {
		_ = ps.replenishLocked() // cannot mint: issue what is left, then the signed prekey alone
	}
	b := &wire.PrekeyBundle{
		User:      ps.user,
		SignedID:  ps.signed.id,
		SignedPub: append([]byte(nil), ps.signed.pub...),
		SignedSig: append([]byte(nil), ps.signed.sig...),
	}
	if len(ps.queue) > 0 {
		b.OneTimeID = ps.queue[0]
		b.OneTimePub = ps.oneTime[b.OneTimeID].PublicKey().Bytes()
		ps.queue = ps.queue[1:]
		// A peer keeps only our latest bundle, and a node those of
		// maxPeerBundles peers: a reconnecting peer must not grow the pool.
		ps.issued = append(ps.issued, b.OneTimeID)
		if len(ps.issued) > maxPeerBundles {
			delete(ps.oneTime, ps.issued[0])
			ps.issued = ps.issued[1:]
		}
	}
	return b, nil
}

// Remaining reports the unissued one-time pool depth (the
// sos_secure_prekeys_remaining gauge).
func (ps *PrekeyStore) Remaining() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.queue)
}

// agreementKeys resolves the private keys an envelope names: signed ID 0
// is the long-term identity key (and admits no one-time key), anything
// else the current or previous signed prekey. A one-time ID that was
// consumed, dropped (Bundle) or never minted refuses the envelope rather
// than downgrading it to the signed key alone.
func (ps *PrekeyStore) agreementKeys(signedID, oneTimeID uint32) (signed, oneTime *ecdh.PrivateKey, err error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch {
	case signedID == 0 && oneTimeID == 0:
		if signed, err = ps.ident.Key.ECDH(); err != nil {
			return nil, nil, fmt.Errorf("secure: converting recipient key: %w", err)
		}
		return signed, nil, nil
	case signedID == 0: // the long-term key comes with no one-time key
	case ps.signed != nil && ps.signed.id == signedID:
		signed = ps.signed.priv
	case ps.prev != nil && ps.prev.id == signedID:
		signed = ps.prev.priv
	}
	if oneTimeID != 0 {
		oneTime = ps.oneTime[oneTimeID]
	}
	if signed == nil || (oneTimeID != 0 && oneTime == nil) {
		return nil, nil, fmt.Errorf("%w: signed %d, one-time %d", ErrPrekeyUnknown, signedID, oneTimeID)
	}
	return signed, oneTime, nil
}

// burnOneTime deletes a consumed one-time private key.
func (ps *PrekeyStore) burnOneTime(oneTimeID uint32) {
	ps.mu.Lock()
	delete(ps.oneTime, oneTimeID)
	ps.mu.Unlock()
}
