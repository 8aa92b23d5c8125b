package secure

import (
	"crypto/ecdsa"
	"errors"
	"sync"

	"sos/internal/id"
	"sos/internal/wire"
)

// maxPeerBundles bounds the peers whose latest bundle an EndToEnd keeps.
const maxPeerBundles = 1024

// ErrEnvelopeReplayed reports an envelope this node has already opened.
var ErrEnvelopeReplayed = errors.New("secure: envelope replayed")

// EndToEnd is one node's end-to-end plane, and the one place that decides
// which key material seals a direct message: its own prekey store (what
// peers seal to), the latest vetted bundle of each peer met (what it seals
// to), and the seen-nonce set that makes every envelope open at most once.
// Safe for concurrent use.
type EndToEnd struct {
	prekeys *PrekeyStore // also this node's identity and entropy source
	replay  *ReplayStore

	// peers is the bundle table; ring lists its keys in insertion order
	// and next is the slot the next new peer takes, evicting first-in
	// first-out once ring is full.
	mu    sync.Mutex
	peers map[id.UserID]*wire.PrekeyBundle
	ring  []id.UserID
	next  int
}

// NewEndToEnd builds ident's plane: fresh prekeys, and the seen-nonce set
// under replayDir (empty = memory only).
func NewEndToEnd(ident *id.Identity, prekeys PrekeyConfig, replayDir string, replay ReplayOptions) (*EndToEnd, error) {
	rs, err := OpenReplayStore(replayDir, replay)
	if err != nil {
		return nil, err
	}
	ps, err := NewPrekeyStore(ident, ident.User, prekeys)
	if err != nil {
		rs.Close()
		return nil, err
	}
	return &EndToEnd{
		prekeys: ps,
		replay:  rs,
		peers:   make(map[id.UserID]*wire.PrekeyBundle),
	}, nil
}

// Bundle issues this node's current bundle for publishing to a peer.
func (e *EndToEnd) Bundle() (*wire.PrekeyBundle, error) { return e.prekeys.Bundle() }

// Accept remembers a peer's bundle, which the caller has vetted against
// the peer's certified key, replacing any earlier one.
func (e *EndToEnd) Accept(peer id.UserID, b *wire.PrekeyBundle) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, known := e.peers[peer]; !known {
		if len(e.ring) < maxPeerBundles {
			e.ring = append(e.ring, peer)
		} else {
			delete(e.peers, e.ring[e.next])
			e.ring[e.next] = peer
		}
		e.next = (e.next + 1) % maxPeerBundles
	}
	e.peers[peer] = b
}

// takeBundle returns the bundle held for a peer, nil when there is none,
// and strips its one-time component from the table so it is never sealed
// against twice (the recipient deletes the one-time private key on first
// open).
func (e *EndToEnd) takeBundle(peer id.UserID) *wire.PrekeyBundle {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.peers[peer]
	if b != nil && b.OneTimeID != 0 {
		stripped := *b
		stripped.OneTimeID, stripped.OneTimePub = 0, nil
		e.peers[peer] = &stripped
	}
	return b
}

// Seal seals plaintext for the user certified as (to, toKey) and returns
// the marshaled envelope. When a bundle of to's is held — published during
// any earlier encounter — the envelope is sealed to it: the recipient
// burns the one-time prekey on open, so capture of its device later cannot
// reopen the envelope. Only without one — a recipient never met, the
// paper's §III-D path — is it sealed to the long-term key. A held bundle
// that fails to seal is a fault to report, not a reason to give up forward
// secrecy quietly.
func (e *EndToEnd) Seal(to id.UserID, toKey *ecdsa.PublicKey, plaintext []byte) ([]byte, error) {
	env, err := SealEnvelope(e.prekeys.rng, e.prekeys.ident, to, toKey, e.takeBundle(to), plaintext)
	if err != nil {
		return nil, err
	}
	return env.Marshal(), nil
}

// Open parses and opens a marshaled envelope from the sender certified as
// senderPub, at most once: the nonce of an opened envelope is remembered
// (across restarts when the set is persistent), so the same envelope
// re-disseminated later is ErrEnvelopeReplayed.
func (e *EndToEnd) Open(senderPub *ecdsa.PublicKey, payload []byte) ([]byte, error) {
	env, err := ParseEnvelope(payload)
	if err != nil {
		return nil, err
	}
	plaintext, err := OpenEnvelope(e.prekeys, senderPub, env)
	if err != nil {
		return nil, err
	}
	if !e.replay.MarkNonce(env.Nonce) {
		return nil, ErrEnvelopeReplayed
	}
	return plaintext, nil
}

// PrekeysRemaining reports the unissued one-time prekey pool depth.
func (e *EndToEnd) PrekeysRemaining() int { return e.prekeys.Remaining() }

// SeenNonces reports how many opened-envelope nonces are remembered.
func (e *EndToEnd) SeenNonces() int { return e.replay.Len() }

// Close closes the seen-nonce set, surfacing any latched durability
// failure.
func (e *EndToEnd) Close() error { return e.replay.Close() }
