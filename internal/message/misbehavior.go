package message

import (
	"cmp"
	"slices"
	"time"

	"sos/internal/mpc"
)

// Misbehavior scoring: every peer accumulates a leaky score from
// protocol-abuse signals; crossing the threshold quarantines it — the
// link drops and re-admission backs off exponentially per strike. The
// signals are chosen so radio chaos cannot trip them. Packet loss on a
// sealed link fails *authentication* (a decryption failure, never
// scored), and no order, loss or duplication of authenticated summary
// frames is scored either: mergeAd makes a delta of any base at worst a
// gap that costs one SummaryPull. What is scored is what an honest
// manager never emits: a frame that authenticates and then fails to
// decode, a want-list past any honest sync, and full summaries, sent or
// pulled, beyond the token bucket.
const (
	// pointsGarbage scores an authenticated-undecodable frame
	// (adhoc.ErrPeerMisbehaved): the strongest signal, impossible to
	// produce by accident.
	pointsGarbage = 3
	// pointsOversized scores a Request totalling more sequence numbers
	// than wire.MaxBatchMessages, the limit cutRequests packs under so
	// that one Batch answers each Request.
	pointsOversized = 2
	// pointsFlood scores each full in-session advertisement received, or
	// SummaryPull served, beyond the per-peer token bucket.
	pointsFlood = 1

	// misbehaviorThreshold is the quarantine trip point.
	misbehaviorThreshold = 8.0
	// misbehaviorDecayPerSec forgives honest accidents: a peer at half
	// the threshold is clean again in a few seconds.
	misbehaviorDecayPerSec = 0.5

	// adBurst and adRefillPerSec shape the in-session advertisement
	// token bucket, charged per full summary received (chunk 0;
	// continuation chunks ride their stream's token, and deltas cost
	// O(changed entries), the class of the Batch frames they steer) and
	// per SummaryPull served, whose answer is a full. Honest managers
	// send a full at first contact, after PeerGone and in answer to a
	// SummaryPull, and pull at most once per gap and heartbeat — nowhere
	// near this sustained rate.
	adBurst        = 64.0
	adRefillPerSec = 16.0

	// quarantineBase is the first quarantine term; each further strike
	// doubles it up to quarantineCap.
	quarantineBase = 5 * time.Second
	quarantineCap  = 60 * time.Second
	// strikeForgiveness clears the strike history after a long clean
	// stretch.
	strikeForgiveness = 5 * time.Minute

	// maxScoreEntries bounds the scoreboard: an attacker cycling device
	// names cannot grow it without limit.
	maxScoreEntries = 4096
)

// peerScore is one peer's misbehavior ledger.
type peerScore struct {
	score    float64
	last     time.Time // last score update, for decay
	adTokens float64
	adLast   time.Time // last bucket refill
	strikes  uint32
	until    time.Time // quarantined while now < until
}

// scoreboard tracks misbehavior per peer. Callers hold the manager
// mutex.
type scoreboard struct {
	entries map[mpc.PeerID]*peerScore
}

// entry returns the peer's ledger, creating it inside the bound. When
// full, one scan (evict) frees at least half the unquarantined slots; if
// every slot is an active quarantine the newcomer is scored on a
// throwaway ledger — the attacker cannot flush existing quarantines by
// inventing names.
func (b *scoreboard) entry(peer mpc.PeerID, now time.Time) *peerScore {
	if b.entries == nil {
		b.entries = make(map[mpc.PeerID]*peerScore)
	}
	if e, ok := b.entries[peer]; ok {
		return e
	}
	if len(b.entries) >= maxScoreEntries {
		b.evict(now)
	}
	e := &peerScore{last: now, adTokens: adBurst, adLast: now}
	if len(b.entries) < maxScoreEntries {
		b.entries[peer] = e
	}
	return e
}

// evict drops every ledger that no longer matters (not quarantined, fully
// decayed and past strike forgiveness), then the weaker half of the other
// unquarantined ones, so a name-cycling flood pays one scan per
// maxScoreEntries/2 newcomers. Active quarantines are never evicted.
func (b *scoreboard) evict(now time.Time) {
	type ledger struct {
		peer  mpc.PeerID
		score float64
	}
	var rest []ledger
	for peer, e := range b.entries {
		switch {
		case now.Before(e.until):
		case e.decayed(now) <= 0 && now.Sub(e.last) > strikeForgiveness:
			delete(b.entries, peer)
		default:
			rest = append(rest, ledger{peer, e.decayed(now)})
		}
	}
	slices.SortFunc(rest, func(x, y ledger) int { return cmp.Compare(x.score, y.score) })
	for _, l := range rest[:(len(rest)+1)/2] {
		delete(b.entries, l.peer)
	}
}

// decayed returns the score after leaking since the last update.
func (e *peerScore) decayed(now time.Time) float64 {
	s := e.score - now.Sub(e.last).Seconds()*misbehaviorDecayPerSec
	if s < 0 {
		return 0
	}
	return s
}

// observe adds points to the peer's ledger and reports whether it just
// crossed into quarantine, with the term's end.
func (b *scoreboard) observe(peer mpc.PeerID, pts float64, now time.Time) (tripped bool, until time.Time) {
	e := b.entry(peer, now)
	if !now.Before(e.until) && e.until != (time.Time{}) && now.Sub(e.until) > strikeForgiveness {
		e.strikes = 0
	}
	e.score = e.decayed(now) + pts
	e.last = now
	if now.Before(e.until) || e.score < misbehaviorThreshold {
		return false, e.until
	}
	term := quarantineBase << min(e.strikes, 10)
	if term > quarantineCap {
		term = quarantineCap
	}
	e.strikes++
	e.until = now.Add(term)
	e.score = 0
	return true, e.until
}

// quarantined reports whether the peer is currently locked out.
func (b *scoreboard) quarantined(peer mpc.PeerID, now time.Time) bool {
	e, ok := b.entries[peer]
	return ok && now.Before(e.until)
}

// allowAd spends one advertisement token, reporting false once the
// peer's bucket runs dry — the flood signal.
func (b *scoreboard) allowAd(peer mpc.PeerID, now time.Time) bool {
	e := b.entry(peer, now)
	e.adTokens += now.Sub(e.adLast).Seconds() * adRefillPerSec
	if e.adTokens > adBurst {
		e.adTokens = adBurst
	}
	e.adLast = now
	if e.adTokens < 1 {
		return false
	}
	e.adTokens--
	return true
}
