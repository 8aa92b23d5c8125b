// Package secure implements the cryptography the SOS ad hoc manager uses
// to protect device-to-device traffic (paper §III-D, §IV): encrypted
// sessions between connected peers, and one end-to-end sealed envelope
// format for data that only a specific recipient may read (envelope.go;
// endtoend.go owns a node's state for that plane). Apple does not document
// Multipeer Connectivity's encryption, so — like the paper — SOS layers its
// own explicit cryptography: ECDH P-256 key agreement, HKDF-SHA256 key
// derivation, and AES-256-GCM authenticated encryption, all from the
// standard library.
//
// The layer is hardened for fleets rather than field studies: session
// keys rotate on a clock-driven epoch ratchet with secure wiping of
// expired material (epoch.go), the nonces of opened envelopes can persist
// across restarts in a bounded store (replay.go), and prekey bundles give
// asynchronous peers forward secrecy without a live handshake
// (prekeys.go). Time never comes from time.Now() here — every clock is
// injected, which is what makes the rotation and replay suites
// deterministic.
package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/hkdf"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"time"

	"sos/internal/clock"
	"sos/internal/obs/span"
)

// Session framing constants.
const (
	aesKeyLen  = 32
	gcmNonce   = 12
	sessionCtx = "sos/session/v2"
)

// Errors reported by session operations.
var (
	ErrReplay       = errors.New("secure: frame sequence replayed or out of order")
	ErrFrameShort   = errors.New("secure: frame too short")
	ErrSessionDone  = errors.New("secure: session closed")
	ErrSeqExhausted = errors.New("secure: send sequence space exhausted")
	ErrSeqJump      = errors.New("secure: frame sequence jumped past the forward window")
	ErrEpochSkew    = errors.New("secure: frame epoch ahead of the local clock bound")
	ErrEpochExpired = errors.New("secure: frame epoch retired past its overlap window")
)

// SessionConfig wires a session to its owner. The zero value is valid:
// wall clock, no stats, no tracer. Every session rotates its keys every
// DefaultRotationPeriod, keeps a superseded receive key for
// DefaultOverlapWindow, and bounds a forward sequence jump at
// DefaultMaxForwardJump.
type SessionConfig struct {
	// Clock drives epoch rotation. Nil selects the system clock; the
	// secure layer itself never calls time.Now().
	Clock clock.Clock
	// Stats, when set, counts this session's events into a recorder (a
	// node, a fleet, a test); nil counts nothing.
	Stats *StatsRecorder
	// Tracer, when set, records the session's key derivation as a
	// "secure.derive" span in its owner's flight recorder; nil records
	// nothing.
	Tracer *span.Tracer
}

// Session is one side of an established encrypted channel between two
// connected peers. Each direction runs its own forward-only key ratchet
// (see epoch.go): frames carry an epoch header naming the key they were
// sealed under plus a strictly increasing sequence number. A frame at or
// below the last accepted sequence is rejected (replay protection),
// forward jumps are tolerated up to DefaultMaxForwardJump (the first
// frame of a session is exempt: it establishes the position) — every
// sequence authenticates independently (nonce and AAD both bind epoch
// and sequence), so frames lost on a lossy radio skip the window forward
// instead of desynchronizing the channel.
//
// A session is not safe for concurrent use within one direction: callers
// must serialize Seal/AppendSeal calls among themselves and Open/
// OpenInPlace calls among themselves (the ad hoc manager does both —
// sends under the link's send mutex, opens on the endpoint's serial
// callback queue). The two directions may run concurrently.
type Session struct {
	clk      clock.Clock
	rec      *StatsRecorder
	closed   bool
	overhead int

	// Send direction: the ratchet, the current epoch's cached AEAD, and
	// the monotonically increasing sequence (never reset by rotation, so
	// the receiver's watermark survives epoch changes).
	sendChain *chain
	sendAEAD  cipher.AEAD
	sendKey   [aesKeyLen]byte
	sendEpoch uint32
	sendSeq   uint64
	sendStart time.Time
	sealsLeft int // seals until the next rotation clock check

	// Receive direction: the ratchet frontier plus the small set of live
	// epoch keys (current, its overlap predecessor, and at most one
	// clock-tolerated successor a peer sealed just ahead of us).
	recvChain *chain
	recvLive  []epochKey
	recvMax   uint32    // highest epoch an accepted frame has used
	recvSeen  time.Time // when recvMax was first accepted
	recvSeq   uint64    // next acceptable sequence lower bound
	recvAny   bool      // a frame has been accepted (jump bound armed)
	recvStart time.Time

	// Per-direction scratch, reused across calls so the per-frame AEAD
	// path allocates nothing in steady state. The nonces live here too:
	// passing a stack array through the AEAD interface would force it to
	// escape (one heap allocation per frame).
	sealAAD   []byte
	openAAD   []byte
	sealNonce [gcmNonce]byte
	openNonce [gcmNonce]byte
}

// epochKey is one live receive key.
type epochKey struct {
	epoch uint32
	aead  cipher.AEAD
	key   [aesKeyLen]byte
}

// NewSession derives directional key ratchets from an ECDH shared secret
// between the local private key and the remote public key, with default
// configuration. Both peers compute the same two root secrets; the
// lexicographic order of the marshaled public keys decides which root
// serves which direction, so the two sides agree without additional
// negotiation. The context binds the keys to a transcript (for SOS, the
// connection handshake nonces).
func NewSession(local *ecdsa.PrivateKey, remote *ecdsa.PublicKey, context []byte) (*Session, error) {
	return NewSessionWithConfig(local, remote, context, SessionConfig{})
}

// NewSessionWithConfig is NewSession with an explicit clock, stats and
// tracer.
func NewSessionWithConfig(local *ecdsa.PrivateKey, remote *ecdsa.PublicKey, context []byte, cfg SessionConfig) (*Session, error) {
	t := cfg.Tracer
	sp := t.Start(t.Track("secure"), "secure.derive")
	defer sp.End()
	localECDH, err := local.ECDH()
	if err != nil {
		return nil, fmt.Errorf("secure: converting local key: %w", err)
	}
	remoteECDH, err := remote.ECDH()
	if err != nil {
		return nil, fmt.Errorf("secure: converting remote key: %w", err)
	}
	shared, err := localECDH.ECDH(remoteECDH)
	if err != nil {
		return nil, fmt.Errorf("secure: ECDH: %w", err)
	}

	localPub := localECDH.PublicKey().Bytes()
	remotePub := remoteECDH.Bytes()
	first, second := localPub, remotePub
	localIsFirst := bytes.Compare(localPub, remotePub) < 0
	if !localIsFirst {
		first, second = remotePub, localPub
	}

	salt := append(append([]byte{}, first...), second...)
	okm, err := hkdf.Key(sha256.New, shared, salt, sessionCtx+string(context), 2*aesKeyLen)
	if err != nil {
		return nil, fmt.Errorf("secure: deriving session roots: %w", err)
	}
	firstRoot, secondRoot := okm[:aesKeyLen], okm[aesKeyLen:]
	sendRoot, recvRoot := firstRoot, secondRoot
	if !localIsFirst {
		sendRoot, recvRoot = secondRoot, firstRoot
	}

	s := &Session{
		clk:       cfg.Clock,
		rec:       cfg.Stats,
		sendChain: newChain(sendRoot),
		recvChain: newChain(recvRoot),
		sealsLeft: rotateCheckEvery,
		// Sized for frames without AAD: a first frame allocates nothing.
		sealAAD: make([]byte, 0, EpochHeaderLen),
		openAAD: make([]byte, 0, EpochHeaderLen),
	}
	Zeroize(okm)
	Zeroize(shared)
	if s.clk == nil {
		s.clk = clock.System()
	}
	now := s.clk.Now()
	s.sendStart, s.recvStart = now, now

	if err := s.installSendEpoch(0); err != nil {
		return nil, err
	}
	if _, err := s.recvKeyFor(0); err != nil {
		return nil, err
	}
	s.overhead = EpochHeaderLen + s.sendAEAD.Overhead()
	return s, nil
}

// installSendEpoch positions the send direction at epoch e: ratchets the
// chain, caches the epoch's AEAD, and wipes the previous raw key.
func (s *Session) installSendEpoch(e uint32) error {
	Zeroize(s.sendKey[:])
	s.sendKey = s.sendChain.keyAt(e)
	aead, err := newGCM(s.sendKey[:])
	if err != nil {
		return err
	}
	s.sendAEAD = aead
	s.sendEpoch = e
	return nil
}

// recvKeyFor returns the AEAD for epoch e, deriving and caching it when
// the ratchet has not yet produced it.
func (s *Session) recvKeyFor(e uint32) (cipher.AEAD, error) {
	for i := range s.recvLive {
		if s.recvLive[i].epoch == e {
			return s.recvLive[i].aead, nil
		}
	}
	if e < s.recvChain.epoch {
		// The ratchet has moved past this epoch and its key was wiped.
		return nil, fmt.Errorf("%w: epoch %d", ErrEpochExpired, e)
	}
	ek := epochKey{epoch: e, key: s.recvChain.keyAt(e)}
	aead, err := newGCM(ek.key[:])
	if err != nil {
		return nil, err
	}
	ek.aead = aead
	s.recvLive = append(s.recvLive, ek)
	return aead, nil
}

// retireRecvBefore wipes and drops every live receive key older than
// epoch e.
func (s *Session) retireRecvBefore(e uint32) {
	kept := s.recvLive[:0]
	for i := range s.recvLive {
		if s.recvLive[i].epoch >= e {
			kept = append(kept, s.recvLive[i])
		} else {
			Zeroize(s.recvLive[i].key[:])
			s.recvLive[i].aead = nil
		}
	}
	s.recvLive = kept
}

// epochAt computes the clock-driven epoch number for elapsed time since
// start. Sub saturates at the largest Duration (about 292 years), some 15
// million periods, so the epoch always fits a uint32.
func epochAt(now, start time.Time) uint32 {
	elapsed := now.Sub(start)
	if elapsed <= 0 {
		return 0
	}
	return uint32(elapsed / DefaultRotationPeriod)
}

// maybeRotate advances the send direction to the clock's current epoch,
// returning true when a rotation happened. Sealing checks the clock at
// most once per rotateCheckEvery frames to stay off the per-frame hot
// path; callers with long idle gaps (or deterministic tests) may force
// the check here.
func (s *Session) maybeRotate() (bool, error) {
	if s.closed {
		return false, ErrSessionDone
	}
	e := epochAt(s.clk.Now(), s.sendStart)
	if e <= s.sendEpoch {
		return false, nil
	}
	if err := s.installSendEpoch(e); err != nil {
		return false, err
	}
	bump(s.rec, cRotations)
	return true, nil
}

// Seal encrypts plaintext into a fresh frame bound to aad. Frames must be
// delivered to the peer in order. Hot paths should prefer AppendSeal with
// a reused buffer.
func (s *Session) Seal(plaintext, aad []byte) ([]byte, error) {
	return s.AppendSeal(nil, plaintext, aad)
}

// AppendSeal appends the sealed frame for plaintext to dst and returns
// the extended slice; with a pre-grown dst it performs no allocations.
func (s *Session) AppendSeal(dst, plaintext, aad []byte) ([]byte, error) {
	if s.closed {
		bump(s.rec, cSealFailures)
		return dst, ErrSessionDone
	}
	if s.sealsLeft--; s.sealsLeft <= 0 {
		s.sealsLeft = rotateCheckEvery
		if _, err := s.maybeRotate(); err != nil {
			bump(s.rec, cSealFailures)
			return dst, err
		}
	}
	if s.sendSeq == math.MaxUint64 {
		bump(s.rec, cSealFailures)
		return dst, ErrSeqExhausted
	}
	seq := s.sendSeq
	s.sendSeq++

	hdr := EpochHeader{Epoch: s.sendEpoch, Seq: seq}
	hdr.AppendEncode(s.sealNonce[:0])
	dst = hdr.AppendEncode(dst)
	s.sealAAD = hdr.AppendEncode(append(s.sealAAD[:0], aad...))
	bump(s.rec, cSeals)
	return s.sendAEAD.Seal(dst, s.sealNonce[:], plaintext, s.sealAAD), nil
}

// Open authenticates and decrypts a frame produced by the peer's Seal into
// a fresh copy of it; hot paths should prefer OpenInPlace.
func (s *Session) Open(frame, aad []byte) ([]byte, error) {
	return s.OpenInPlace(bytes.Clone(frame), aad)
}

// OpenInPlace is Open over frame itself: it allocates nothing, and the
// plaintext aliases frame, which the caller gives up whatever the outcome
// (one that fails authentication is left zeroed past its header).
func (s *Session) OpenInPlace(frame, aad []byte) ([]byte, error) {
	if s.closed {
		bump(s.rec, cOpenFailures)
		return nil, ErrSessionDone
	}
	hdr, body, err := ParseEpochHeader(frame)
	if err != nil {
		bump(s.rec, cOpenFailures)
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameShort, len(frame))
	}
	if hdr.Seq < s.recvSeq {
		bump(s.rec, cOpenFailures)
		bump(s.rec, cReplayRejected)
		return nil, fmt.Errorf("%w: got %d, want at least %d", ErrReplay, hdr.Seq, s.recvSeq)
	}
	// The forward-jump bound arms after the first accepted frame: the
	// opening frame establishes the position.
	if s.recvAny && hdr.Seq-s.recvSeq > DefaultMaxForwardJump {
		bump(s.rec, cOpenFailures)
		return nil, fmt.Errorf("%w: got %d, window ends at %d", ErrSeqJump, hdr.Seq, s.recvSeq+DefaultMaxForwardJump)
	}

	aead, err := s.acceptEpoch(hdr.Epoch)
	if err != nil {
		bump(s.rec, cOpenFailures)
		return nil, err
	}

	hdr.AppendEncode(s.openNonce[:0])
	s.openAAD = hdr.AppendEncode(append(s.openAAD[:0], aad...))
	plaintext, err := aead.Open(body[:0], s.openNonce[:], body, s.openAAD)
	if err != nil {
		bump(s.rec, cOpenFailures)
		return nil, fmt.Errorf("secure: opening frame %d: %w", hdr.Seq, err)
	}
	// Only an authenticated frame advances the window: a forged sequence
	// fails the tag check above and cannot burn future numbers.
	s.recvSeq = hdr.Seq + 1
	s.recvAny = true
	if hdr.Epoch > s.recvMax {
		// The peer rotated: adopt the new epoch, start its overlap
		// window, and retire everything older than its predecessor.
		prev := s.recvMax
		s.recvMax = hdr.Epoch
		s.recvSeen = s.clk.Now()
		s.retireRecvBefore(prev)
		bump(s.rec, cRotations)
	}
	bump(s.rec, cOpens)
	return plaintext, nil
}

// acceptEpoch vets a frame's claimed epoch against the rotation policy
// and returns the AEAD to open it with. Frames at the current receive
// epoch take the cached-key fast path with no clock read; older epochs
// are accepted only inside the overlap window after their successor was
// first seen; newer epochs are bounded one past the local clock's own
// epoch (skew tolerance), so a hostile header cannot force unbounded
// ratcheting.
func (s *Session) acceptEpoch(e uint32) (cipher.AEAD, error) {
	if e < s.recvMax {
		if s.clk.Now().Sub(s.recvSeen) > DefaultOverlapWindow {
			s.retireRecvBefore(s.recvMax)
			return nil, fmt.Errorf("%w: epoch %d after overlap of %d", ErrEpochExpired, e, s.recvMax)
		}
		return s.recvKeyFor(e)
	}
	if e > s.recvMax {
		local := epochAt(s.clk.Now(), s.recvStart)
		if e > local+1 {
			return nil, fmt.Errorf("%w: epoch %d, local %d", ErrEpochSkew, e, local)
		}
	}
	return s.recvKeyFor(e)
}

// Close renders the session unusable and wipes its key material.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.sendChain.wipe()
	s.recvChain.wipe()
	Zeroize(s.sendKey[:])
	s.sendAEAD = nil
	s.retireRecvBefore(math.MaxUint32)
	s.recvLive = nil
}

// newGCM builds an AES-256-GCM AEAD from a 32-byte key.
func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secure: creating AES cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secure: creating GCM: %w", err)
	}
	return aead, nil
}
