// Epoch-based key rotation for sessions. Long-lived links must not keep
// one AEAD key alive forever: a device lost mid-deployment, or a radio
// capture replayed later, should expose at most one bounded window of
// traffic. Each session direction therefore runs a forward-only key
// ratchet: epoch e's AEAD key is derived from chain key e, and advancing
// to epoch e+1 derives a fresh chain key and wipes the old one, so
// compromise of live key material never reveals earlier epochs.
//
// Epoch numbering is clock-driven (SessionConfig.Clock — never
// time.Now() directly), each side computing
// floor(elapsed/DefaultRotationPeriod) from its own session start. The two clocks need not agree: every frame
// carries its epoch in the header, the receiver derives the claimed
// epoch's key on demand (bounded one epoch ahead of its own clock), and
// an overlap window keeps the previous epoch's key alive briefly after a
// rotation so in-flight frames still open before the key is wiped.

package secure

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Rotation constants, the same for every session. The period bounds how
// much traffic one key can seal; the overlap bounds how long a
// superseded receive key stays usable (and unwiped) after its successor
// is first seen.
const (
	DefaultRotationPeriod = 10 * time.Minute
	DefaultOverlapWindow  = 30 * time.Second
	// DefaultMaxForwardJump bounds how far a frame's sequence may jump
	// past the last accepted one. Forward gaps are normal on a lossy
	// radio (dropped frames skip the window ahead), but an unbounded
	// jump lets a hostile peer burn the whole sequence space in one
	// frame; the bound tolerates a million lost frames.
	DefaultMaxForwardJump = 1 << 20
	// rotateCheckEvery is how many seals may pass between clock reads on
	// the send path. Rotation is checked off the per-frame hot path: the
	// clock is consulted at session creation, then at most once per this
	// many frames (and on every explicit maybeRotate call).
	rotateCheckEvery = 16
)

// EpochHeader is the plaintext prefix of every sealed session frame: the
// key epoch the frame was sealed under and its sequence number. Both are
// bound into the AEAD nonce and the additional data, so a frame cannot
// be replayed at another position or re-attributed to another epoch.
type EpochHeader struct {
	Epoch uint32
	Seq   uint64
}

// EpochHeaderLen is the encoded size of an EpochHeader.
const EpochHeaderLen = 4 + 8

// ErrHeaderShort reports a buffer too short to hold an EpochHeader.
var ErrHeaderShort = errors.New("secure: buffer short of an epoch header")

// AppendEncode appends the header's canonical encoding (big-endian
// epoch, then big-endian sequence) to dst.
func (h EpochHeader) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Epoch)
	return binary.BigEndian.AppendUint64(dst, h.Seq)
}

// ParseEpochHeader decodes the header from the front of buf and returns
// the remaining bytes.
func ParseEpochHeader(buf []byte) (EpochHeader, []byte, error) {
	if len(buf) < EpochHeaderLen {
		return EpochHeader{}, nil, fmt.Errorf("%w: %d bytes", ErrHeaderShort, len(buf))
	}
	return EpochHeader{
		Epoch: binary.BigEndian.Uint32(buf),
		Seq:   binary.BigEndian.Uint64(buf[4:]),
	}, buf[EpochHeaderLen:], nil
}

// Zeroize overwrites b with zeros so expired key material does not
// linger on the heap awaiting the collector. The compiler cannot elide
// the wipe: b escapes through the call.
func Zeroize(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Key-schedule labels. Chain keys ratchet forward with the chain label;
// each epoch's AEAD key branches off with the key label.
var (
	chainLabel = []byte("sos/session/chain/v1")
	keyLabel   = []byte("sos/session/key/v1")
)

// chain is one direction's forward-only key ratchet, positioned at the
// epoch its chain key derives.
type chain struct {
	epoch uint32
	ck    [sha256.Size]byte
}

// newChain seats a ratchet at epoch 0 over the direction's root secret.
func newChain(root []byte) *chain {
	c := &chain{}
	copy(c.ck[:], root)
	return c
}

// keyAt derives the AES key for epoch e >= the chain's position,
// advancing (and wiping) chain state past the epochs it walks through.
// After keyAt(e) returns, epochs before e can never be derived again
// from this chain — that is the forward-secrecy property.
func (c *chain) keyAt(e uint32) [aesKeyLen]byte {
	for c.epoch < e {
		next := prf(c.ck[:], chainLabel)
		Zeroize(c.ck[:])
		c.ck = next
		c.epoch++
	}
	out := prf(c.ck[:], keyLabel)
	var key [aesKeyLen]byte
	copy(key[:], out[:])
	Zeroize(out[:])
	return key
}

// wipe destroys the chain state.
func (c *chain) wipe() { Zeroize(c.ck[:]) }

// prf is HMAC-SHA256, the PRF the ratchet steps with.
func prf(key, label []byte) [sha256.Size]byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(label)
	var out [sha256.Size]byte
	mac.Sum(out[:0])
	return out
}
