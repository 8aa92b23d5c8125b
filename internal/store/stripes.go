// The striped summary index. A metro-scale store sees hundreds of
// thousands of authors, and the advertisement summary used to live in one
// map behind one mutex: every copy-on-write clone was a multi-MB
// allocation, and every reader serialized against every writer. The index
// here shards the dictionary and its change log by author-ID prefix —
// UserIDs are SHA-256-derived, so the first byte is uniform — into
// fixed-count lock-striped buckets. A snapshot hand-out arms copy-on-write
// on one stripe only, concurrent links syncing disjoint author ranges take
// disjoint locks, and the generation counter is published atomically after
// the owning stripe's record lands, so a reader that observes generation N
// is guaranteed to find record N in the logs.

package store

import (
	"sync"
	"sync/atomic"

	"sos/internal/id"
)

// SummaryStripeCount is the number of lock-striped summary buckets. An
// author's stripe is its UserID's first byte masked to this count, so the
// count must stay a power of two.
const SummaryStripeCount = 32

// maxStripeLog bounds each stripe's change log: when a log doubles the
// cap, the oldest half is forgotten and the index floor rises, making
// deltas from generations older than the remainder unanswerable
// (full-summary fallback). 1024 records per stripe keeps the worst-case
// delta (every stripe at its doubled high-water mark) well under the wire
// codec's MaxSummaryEntries.
const maxStripeLog = 1024

// stripeChange is one summary update in a stripe's bounded change log.
// Unlike the old single-log design, records carry their generation
// explicitly because a stripe only sees the subset of generations that
// touched it.
type stripeChange struct {
	gen    uint64
	author id.UserID
	seq    uint64
}

// summaryStripe is one lock-striped bucket of the advertisement
// dictionary: its author → latest-seq entries, the copy-on-write flag for
// handed-out snapshots, and the bucket's slice of the change log.
type summaryStripe struct {
	mu      sync.Mutex
	entries map[id.UserID]uint64
	out     bool
	log     []stripeChange
}

// summaryIndex is the sharded advertisement dictionary. Writers (bump) are
// serialized by the owning Store's mutex; readers take only the stripe
// locks they touch. gen and floor are atomics so Generation and the
// answerability check never contend with stripe traffic.
type summaryIndex struct {
	stripes [SummaryStripeCount]summaryStripe
	// gen is published *after* the record for that generation is appended
	// under its stripe lock, so gen=N implies record N is visible.
	gen atomic.Uint64
	// floor is the oldest generation the logs can still answer exactly;
	// it only rises (CAS-max) as stripe logs trim.
	floor atomic.Uint64
	// size is the total entry count across stripes.
	size atomic.Int64
	// clones counts copy-on-write stripe clones; lockWaits counts stripe
	// lock acquisitions that found the lock held.
	clones    atomic.Uint64
	lockWaits atomic.Uint64
}

// stripeOf maps an author to its bucket by UserID prefix.
func stripeOf(author id.UserID) int {
	return int(author[0]) & (SummaryStripeCount - 1)
}

// lock takes a stripe's mutex, counting contended acquisitions.
func (x *summaryIndex) lock(st *summaryStripe) {
	if !st.mu.TryLock() {
		x.lockWaits.Add(1)
		st.mu.Lock()
	}
}

// bump raises author's entry to seq, and is a no-op when the entry is
// already there or past it: entries are high-water marks. Callers must
// serialize bumps (the Store's write lock does); concurrent readers are
// safe. The generation is published only after the record is in the
// stripe log.
func (x *summaryIndex) bump(author id.UserID, seq uint64) {
	st := &x.stripes[stripeOf(author)]
	x.lock(st)
	if seq <= st.entries[author] {
		st.mu.Unlock()
		return
	}
	newGen := x.gen.Load() + 1
	if st.out {
		// A snapshot of this stripe is outstanding: clone before writing
		// so the hand-out stays immutable. Cloning one stripe, not the
		// whole dictionary, is the point of the sharding.
		cp := make(map[id.UserID]uint64, len(st.entries)+1)
		for a, v := range st.entries {
			cp[a] = v
		}
		st.entries = cp
		st.out = false
		x.clones.Add(1)
	}
	if st.entries == nil {
		st.entries = make(map[id.UserID]uint64)
	}
	if _, known := st.entries[author]; !known {
		x.size.Add(1)
	}
	st.entries[author] = seq
	st.log = append(st.log, stripeChange{gen: newGen, author: author, seq: seq})
	if len(st.log) >= 2*maxStripeLog {
		// Copy the tail into a fresh slice so the forgotten half's
		// backing memory is actually released, then raise the floor past
		// the newest forgotten record.
		forgotten := st.log[len(st.log)-maxStripeLog-1].gen
		tail := make([]stripeChange, maxStripeLog)
		copy(tail, st.log[len(st.log)-maxStripeLog:])
		st.log = tail
		x.raiseFloor(forgotten)
	}
	st.mu.Unlock()
	x.gen.Store(newGen)
}

// raiseFloor lifts the answerability floor to at least gen (CAS-max).
func (x *summaryIndex) raiseFloor(gen uint64) {
	for {
		cur := x.floor.Load()
		if cur >= gen || x.floor.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// changes returns the summary entries that changed in (sinceGen, gen];
// see Engine.Changes. Each stripe's log is walked newest-first so the
// first record seen per author is its latest sequence.
func (x *summaryIndex) changes(sinceGen uint64) (map[id.UserID]uint64, bool) {
	if sinceGen > x.gen.Load() || sinceGen < x.floor.Load() {
		return nil, false
	}
	// Unsized: a delta names an author or two, not 64.
	out := make(map[id.UserID]uint64)
	for i := range x.stripes {
		st := &x.stripes[i]
		x.lock(st)
		for j := len(st.log) - 1; j >= 0 && st.log[j].gen > sinceGen; j-- {
			rec := st.log[j]
			if _, seen := out[rec.author]; !seen {
				out[rec.author] = rec.seq
			}
		}
		st.mu.Unlock()
	}
	// A concurrent trim may have forgotten records the walk needed; the
	// floor rises before trimmed records vanish, so re-checking it after
	// the walk turns that race into an honest "unanswerable".
	if x.floor.Load() > sinceGen {
		return nil, false
	}
	return out, true
}

// summary merges every stripe into a fresh map owned by the caller. It
// never arms copy-on-write: the caller gets a private copy, and later
// bumps proceed clone-free.
func (x *summaryIndex) summary() map[id.UserID]uint64 {
	out := make(map[id.UserID]uint64, x.size.Load())
	for i := range x.stripes {
		st := &x.stripes[i]
		x.lock(st)
		for a, v := range st.entries {
			out[a] = v
		}
		st.mu.Unlock()
	}
	return out
}

// stripeSnapshot hands out stripe i's entry map as a shared immutable
// snapshot, arming copy-on-write on that stripe only. Callers must treat
// the map as read-only; it may be nil for an empty stripe.
func (x *summaryIndex) stripeSnapshot(i int) map[id.UserID]uint64 {
	st := &x.stripes[i]
	x.lock(st)
	m := st.entries
	if m != nil {
		st.out = true
	}
	st.mu.Unlock()
	return m
}

// seq returns author's entry, or 0 for an author never seen.
func (x *summaryIndex) seq(author id.UserID) uint64 {
	st := &x.stripes[stripeOf(author)]
	x.lock(st)
	defer st.mu.Unlock()
	return st.entries[author]
}

// generation returns the published summary-change counter.
func (x *summaryIndex) generation() uint64 { return x.gen.Load() }

// sizeNow returns the total entry count across stripes.
func (x *summaryIndex) sizeNow() int { return int(x.size.Load()) }
