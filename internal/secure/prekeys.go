// Prekey bundles: forward secrecy for peers that are not online
// together. A plain Envelope encrypts to the recipient's *long-term*
// identity key, so a device captured months later retroactively opens
// every envelope ever recorded for it. Prekeys fix that the X3DH way,
// sized down for SOS: each node publishes a bundle — a medium-lived
// *signed prekey* (authenticated by the identity key, rotated on the
// clock) plus an optional *one-time prekey* (used once, then deleted) —
// and senders seal against those instead of the identity key. Deleting a
// consumed one-time key, and rotating the signed prekey, destroys the
// private half of the agreement: recorded envelopes become unopenable
// even with the identity key in hand. When the one-time pool is
// exhausted, sealing falls back to the signed prekey alone — weaker
// (replay of the same bundle is possible until it rotates) but still
// forward-secret across rotations, matching X3DH's own fallback.
package secure

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sos/internal/clock"
	"sos/internal/id"
)

// Prekey scheme constants.
const (
	prekeyCtx = "sos/prekey/v1"
	// PrekeyEnvelopeVersion is the first byte of a marshaled
	// PrekeyEnvelope. A legacy Envelope's marshal begins with the high
	// byte of its ephemeral-key length — always 0x00 — so the two formats
	// are distinguishable from the first byte.
	PrekeyEnvelopeVersion = 2

	DefaultSignedPrekeyLifetime = 6 * time.Hour
	DefaultOneTimeBatch         = 32
	DefaultOneTimeLowWater      = 8
)

// Errors reported by the prekey scheme.
var (
	ErrBundleSig     = errors.New("secure: prekey bundle signature invalid")
	ErrPrekeyUnknown = errors.New("secure: envelope names an unknown or retired prekey")
)

// PrekeyBundle is the public half a node publishes so peers can seal to
// it without a live handshake. The signed prekey is authenticated by the
// owner's identity key; the one-time prekey (ID 0 = absent, pool
// exhausted) is unauthenticated on its own but only ever used *together*
// with the signed one, as in X3DH.
type PrekeyBundle struct {
	User       id.UserID
	SignedID   uint32
	SignedPub  []byte // marshaled P-256 point
	SignedSig  []byte // identity signature over prekeyTranscript
	OneTimeID  uint32
	OneTimePub []byte
}

// Verify checks the bundle's signed-prekey signature against the owner's
// identity public key.
func (b *PrekeyBundle) Verify(owner *ecdsa.PublicKey) bool {
	return id.Verify(owner, prekeyTranscript(b.User, b.SignedID, b.SignedPub), b.SignedSig)
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

// PrekeyConfig tunes a PrekeyStore; the zero value selects every
// default.
type PrekeyConfig struct {
	Clock          clock.Clock   // nil = system clock
	Rand           io.Reader     // nil = crypto/rand
	SignedLifetime time.Duration // 0 = DefaultSignedPrekeyLifetime
	Batch          int           // one-time keys minted per replenish; 0 = DefaultOneTimeBatch
	LowWater       int           // replenish when unissued pool drops below; 0 = DefaultOneTimeLowWater
	Stats          *StatsRecorder
}

// PrekeyStore holds one node's private prekey material: the current and
// previous signed prekeys (the previous stays openable for one lifetime
// after rotation, the prekey analogue of the session overlap window) and
// the one-time pool. Safe for concurrent use.
type PrekeyStore struct {
	mu       sync.Mutex
	ident    *id.Identity
	user     id.UserID
	clk      clock.Clock
	rng      io.Reader
	lifetime time.Duration
	batch    int
	lowWater int
	rec      *StatsRecorder

	signed  *signedPrekey
	prev    *signedPrekey
	oneTime map[uint32]*ecdh.PrivateKey
	queue   []uint32 // unissued one-time IDs, handed out in order
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
		ident:    ident,
		user:     user,
		clk:      cfg.Clock,
		rng:      cfg.Rand,
		lifetime: cfg.SignedLifetime,
		batch:    cfg.Batch,
		lowWater: cfg.LowWater,
		rec:      cfg.Stats,
		oneTime:  make(map[uint32]*ecdh.PrivateKey),
		nextID:   1,
	}
	if ps.clk == nil {
		ps.clk = clock.System()
	}
	if ps.rng == nil {
		ps.rng = rand.Reader
	}
	if ps.lifetime <= 0 {
		ps.lifetime = DefaultSignedPrekeyLifetime
	}
	if ps.batch <= 0 {
		ps.batch = DefaultOneTimeBatch
	}
	if ps.lowWater <= 0 {
		ps.lowWater = DefaultOneTimeLowWater
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
	priv, err := ecdh.P256().GenerateKey(ps.rng)
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
	for len(ps.queue) < ps.batch {
		priv, err := ecdh.P256().GenerateKey(ps.rng)
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

// MaybeRotate applies clock-driven maintenance: rotates the signed
// prekey past its lifetime (counting into the rotations stat) and
// retires the previous one a further lifetime later. Bundle calls it
// implicitly.
func (ps *PrekeyStore) MaybeRotate() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.maybeRotateLocked()
}

func (ps *PrekeyStore) maybeRotateLocked() error {
	now := ps.clk.Now()
	if now.Sub(ps.signed.born) > ps.lifetime {
		if err := ps.rotateSignedLocked(); err != nil {
			return err
		}
		bump(ps.rec, cRotations)
	}
	if ps.prev != nil && now.Sub(ps.prev.born) > 2*ps.lifetime {
		ps.prev = nil
	}
	return nil
}

// Bundle issues a fresh bundle for a peer: the current signed prekey
// plus the next unissued one-time prekey. When the pool is exhausted
// (every minted key already issued and replenishment failed or was
// outpaced) the bundle carries the signed prekey alone.
func (ps *PrekeyStore) Bundle() (PrekeyBundle, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.maybeRotateLocked(); err != nil {
		return PrekeyBundle{}, err
	}
	if len(ps.queue) < ps.lowWater {
		if err := ps.replenishLocked(); err != nil && len(ps.queue) == 0 {
			// Exhausted and cannot mint: fall back to signed-only.
			return ps.signedOnlyLocked(), nil
		}
	}
	b := ps.signedOnlyLocked()
	if len(ps.queue) > 0 {
		oid := ps.queue[0]
		ps.queue = ps.queue[1:]
		b.OneTimeID = oid
		b.OneTimePub = ps.oneTime[oid].PublicKey().Bytes()
	}
	return b, nil
}

func (ps *PrekeyStore) signedOnlyLocked() PrekeyBundle {
	return PrekeyBundle{
		User:      ps.user,
		SignedID:  ps.signed.id,
		SignedPub: append([]byte(nil), ps.signed.pub...),
		SignedSig: append([]byte(nil), ps.signed.sig...),
	}
}

// Remaining reports the unissued one-time pool depth (the
// sos_secure_prekeys_remaining gauge).
func (ps *PrekeyStore) Remaining() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.queue)
}

// PrekeyEnvelope is an end-to-end sealed payload addressed to a prekey
// bundle rather than a long-term identity key. The key agreement
// combines the ephemeral key with the signed prekey and, when present,
// the one-time prekey; the recipient deletes a consumed one-time key, so
// the envelope cannot be reopened later even by the key's owner.
type PrekeyEnvelope struct {
	SignedID     uint32
	OneTimeID    uint32 // 0 = sealed against the signed prekey alone
	EphemeralPub []byte
	Nonce        []byte
	Ciphertext   []byte
	SenderSig    []byte
}

// SealPrekeyEnvelope verifies the bundle against its owner's identity
// key, then seals plaintext to it and signs the result as sender. rng
// may be nil to use crypto/rand.
func SealPrekeyEnvelope(rng io.Reader, owner *ecdsa.PublicKey, bundle *PrekeyBundle, sender *id.Identity, plaintext []byte) (*PrekeyEnvelope, error) {
	if rng == nil {
		rng = rand.Reader
	}
	if !bundle.Verify(owner) {
		return nil, ErrBundleSig
	}
	signedPub, err := ecdh.P256().NewPublicKey(bundle.SignedPub)
	if err != nil {
		return nil, fmt.Errorf("secure: parsing signed prekey: %w", err)
	}
	eph, err := ecdh.P256().GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("secure: generating ephemeral key: %w", err)
	}
	dh1, err := eph.ECDH(signedPub)
	if err != nil {
		return nil, fmt.Errorf("secure: prekey ECDH: %w", err)
	}
	secret := dh1
	if bundle.OneTimeID != 0 {
		oneTimePub, err := ecdh.P256().NewPublicKey(bundle.OneTimePub)
		if err != nil {
			return nil, fmt.Errorf("secure: parsing one-time prekey: %w", err)
		}
		dh2, err := eph.ECDH(oneTimePub)
		if err != nil {
			return nil, fmt.Errorf("secure: one-time ECDH: %w", err)
		}
		secret = append(secret, dh2...)
		Zeroize(dh2)
	}
	ephPub := eph.PublicKey().Bytes()
	info := prekeyInfo(bundle.User, bundle.SignedID, bundle.OneTimeID)
	key, err := hkdf.Key(sha256.New, secret, ephPub, string(info), aesKeyLen)
	Zeroize(secret)
	if err != nil {
		return nil, fmt.Errorf("secure: deriving prekey envelope key: %w", err)
	}
	aead, err := newGCM(key)
	Zeroize(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("secure: reading nonce: %w", err)
	}
	ciphertext := aead.Seal(nil, nonce, plaintext, info)
	sig, err := sender.Sign(prekeyEnvTranscript(bundle.SignedID, bundle.OneTimeID, ephPub, nonce, ciphertext))
	if err != nil {
		return nil, fmt.Errorf("secure: signing prekey envelope: %w", err)
	}
	return &PrekeyEnvelope{
		SignedID:     bundle.SignedID,
		OneTimeID:    bundle.OneTimeID,
		EphemeralPub: ephPub,
		Nonce:        nonce,
		Ciphertext:   ciphertext,
		SenderSig:    sig,
	}, nil
}

// OpenPrekeyEnvelope verifies the sender's signature, recomputes the
// agreement with the named prekeys, decrypts, and — on success —
// consumes the one-time prekey so the envelope can never be opened
// again.
func OpenPrekeyEnvelope(ps *PrekeyStore, senderPub *ecdsa.PublicKey, env *PrekeyEnvelope) ([]byte, error) {
	if env == nil {
		return nil, errors.New("secure: nil prekey envelope")
	}
	if !id.Verify(senderPub, prekeyEnvTranscript(env.SignedID, env.OneTimeID, env.EphemeralPub, env.Nonce, env.Ciphertext), env.SenderSig) {
		return nil, ErrEnvelopeSig
	}
	ephPub, err := ecdh.P256().NewPublicKey(env.EphemeralPub)
	if err != nil {
		return nil, fmt.Errorf("secure: parsing ephemeral key: %w", err)
	}

	ps.mu.Lock()
	var signed *signedPrekey
	switch {
	case ps.signed != nil && ps.signed.id == env.SignedID:
		signed = ps.signed
	case ps.prev != nil && ps.prev.id == env.SignedID:
		signed = ps.prev
	}
	var oneTime *ecdh.PrivateKey
	if signed != nil && env.OneTimeID != 0 {
		oneTime = ps.oneTime[env.OneTimeID]
		if oneTime == nil {
			signed = nil // consumed or never minted: refuse, do not downgrade
		}
	}
	ps.mu.Unlock()
	if signed == nil {
		return nil, fmt.Errorf("%w: signed %d, one-time %d", ErrPrekeyUnknown, env.SignedID, env.OneTimeID)
	}

	dh1, err := signed.priv.ECDH(ephPub)
	if err != nil {
		return nil, fmt.Errorf("secure: prekey ECDH: %w", err)
	}
	secret := dh1
	if oneTime != nil {
		dh2, err := oneTime.ECDH(ephPub)
		if err != nil {
			return nil, fmt.Errorf("secure: one-time ECDH: %w", err)
		}
		secret = append(secret, dh2...)
		Zeroize(dh2)
	}
	info := prekeyInfo(ps.user, env.SignedID, env.OneTimeID)
	key, err := hkdf.Key(sha256.New, secret, env.EphemeralPub, string(info), aesKeyLen)
	Zeroize(secret)
	if err != nil {
		return nil, fmt.Errorf("secure: deriving prekey envelope key: %w", err)
	}
	aead, err := newGCM(key)
	Zeroize(key)
	if err != nil {
		return nil, err
	}
	plaintext, err := aead.Open(nil, env.Nonce, env.Ciphertext, info)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvelopeAuth, err)
	}
	// Authenticated open succeeded: burn the one-time key. Its private
	// half becomes unreachable, so this envelope is now unopenable
	// forever — including by us.
	if env.OneTimeID != 0 {
		ps.mu.Lock()
		delete(ps.oneTime, env.OneTimeID)
		ps.mu.Unlock()
	}
	return plaintext, nil
}

// prekeyInfo is the HKDF info string and AEAD additional data: context,
// bundle owner, and both prekey IDs, so a ciphertext cannot be
// re-attributed to different key material.
func prekeyInfo(user id.UserID, signedID, oneTimeID uint32) []byte {
	out := make([]byte, 0, len(prekeyCtx)+len(user)+8)
	out = append(out, prekeyCtx...)
	out = append(out, user[:]...)
	out = binary.BigEndian.AppendUint32(out, signedID)
	return binary.BigEndian.AppendUint32(out, oneTimeID)
}

// prekeyEnvTranscript is the byte string the envelope sender signs.
func prekeyEnvTranscript(signedID, oneTimeID uint32, ephPub, nonce, ciphertext []byte) []byte {
	out := make([]byte, 0, len(prekeyCtx)+8+len(ephPub)+len(nonce)+len(ciphertext)+4)
	out = append(out, prekeyCtx...)
	out = append(out, "env"...)
	out = binary.BigEndian.AppendUint32(out, signedID)
	out = binary.BigEndian.AppendUint32(out, oneTimeID)
	out = append(out, ephPub...)
	out = append(out, nonce...)
	return append(out, ciphertext...)
}

// Marshal serializes the envelope: the version byte, both prekey IDs,
// then the four length-prefixed byte fields (the Envelope layout).
func (e *PrekeyEnvelope) Marshal() []byte {
	out := make([]byte, 0, 1+8+16+len(e.EphemeralPub)+len(e.Nonce)+len(e.Ciphertext)+len(e.SenderSig))
	out = append(out, PrekeyEnvelopeVersion)
	out = binary.BigEndian.AppendUint32(out, e.SignedID)
	out = binary.BigEndian.AppendUint32(out, e.OneTimeID)
	for _, field := range [][]byte{e.EphemeralPub, e.Nonce, e.Ciphertext, e.SenderSig} {
		out = binary.BigEndian.AppendUint32(out, uint32(len(field)))
		out = append(out, field...)
	}
	return out
}

// IsPrekeyEnvelope reports whether buf looks like a marshaled
// PrekeyEnvelope (as opposed to a legacy Envelope, whose first byte is
// always 0x00).
func IsPrekeyEnvelope(buf []byte) bool {
	return len(buf) > 0 && buf[0] == PrekeyEnvelopeVersion
}

// ParsePrekeyEnvelope decodes a Marshal-ed prekey envelope.
func ParsePrekeyEnvelope(buf []byte) (*PrekeyEnvelope, error) {
	if !IsPrekeyEnvelope(buf) {
		return nil, errors.New("secure: not a prekey envelope")
	}
	buf = buf[1:]
	if len(buf) < 8 {
		return nil, errors.New("secure: truncated prekey envelope")
	}
	env := &PrekeyEnvelope{
		SignedID:  binary.BigEndian.Uint32(buf),
		OneTimeID: binary.BigEndian.Uint32(buf[4:]),
	}
	buf = buf[8:]
	fields := make([][]byte, 4)
	for i := range fields {
		if len(buf) < 4 {
			return nil, errors.New("secure: truncated prekey envelope")
		}
		n := int(binary.BigEndian.Uint32(buf))
		buf = buf[4:]
		if n < 0 || n > 1<<20 || len(buf) < n {
			return nil, errors.New("secure: malformed prekey envelope field")
		}
		fields[i] = append([]byte(nil), buf[:n]...)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return nil, errors.New("secure: trailing prekey envelope bytes")
	}
	env.EphemeralPub, env.Nonce, env.Ciphertext, env.SenderSig = fields[0], fields[1], fields[2], fields[3]
	return env, nil
}
