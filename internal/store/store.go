// Package store implements the on-device message database AlleyOop Social
// writes every action to before dissemination (paper §V: "saves the action
// to the local database on the mobile device"). The store indexes messages
// by (author, sequence number), tracks the node's subscriptions, and
// produces the discovery summary — the UserID → latest-MessageNumber
// dictionary that the ad hoc manager advertises in plain text (§V-A).
//
// Storage is pluggable (see Engine): this file is the in-memory engine,
// which also serves as the index layer of the disk engine. The buffer is
// bounded — capacity quotas plus an eviction Policy decide what a full
// device drops — and evicted refs leave tombstones so a dropped message is
// neither re-requested from peers nor re-admitted, preventing fetch/evict
// churn. The advertisement summary is maintained incrementally: O(1) per
// Put with a generation counter, instead of a full rebuild per beacon.
package store

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/wire"
)

// Store is the in-memory storage engine: a thread-safe message database
// plus subscription registry for a single node. It satisfies Engine; the
// disk engine embeds it as its index.
type Store struct {
	mu     sync.RWMutex
	owner  id.UserID
	clk    clock.Clock
	policy Policy

	maxMessages int

	// byAuthor is the one index of held messages; count is its total.
	byAuthor map[id.UserID]map[uint64]*entry
	count    int
	// dropped holds eviction tombstones: refs once held and deliberately
	// dropped, excluded from Missing and rejected on re-Put.
	dropped map[id.UserID]map[uint64]bool
	// floor is, per author, the largest n with 1..n all held or
	// tombstoned, so Missing starts probing at n+1. Every Put and
	// tombstone advances it; forgetting tombstones, the one event that
	// un-accounts a sequence, resets it.
	floor map[id.UserID]uint64
	subs  map[id.UserID]bool
	// queue is the sentinel of the insertion queue policies scan for
	// victims: a ring linked through the entries, oldest at queue.next;
	// ties break toward the front.
	queue  entry
	ownSeq uint64

	// sum is the striped advertisement dictionary plus its per-stripe
	// bounded change logs (see stripes.go): per author, the high-water
	// mark of *seen* sequence numbers, which eviction never lowers. Bumps
	// are serialized by mu; reads take only the stripe locks they touch.
	sum summaryIndex

	bytes int
	stats Stats

	hookMu sync.Mutex
	hooks  []func(Eviction)
}

var _ Engine = (*Store)(nil)

// entry is one held message plus its eviction bookkeeping and its links
// in the insertion queue.
type entry struct {
	m          *msg.Message
	size       int
	stored     time.Time
	prev, next *entry
}

// New creates an unbounded in-memory store owned by the given user.
func New(owner id.UserID) *Store {
	return NewMemory(owner, Options{})
}

// NewMemory creates an in-memory store with explicit buffer options.
func NewMemory(owner id.UserID, opts Options) *Store {
	if opts.Clock == nil {
		opts.Clock = clock.System()
	}
	if opts.Policy == nil {
		opts.Policy = DropOldest()
	}
	s := &Store{
		owner:       owner,
		clk:         opts.Clock,
		policy:      opts.Policy,
		maxMessages: opts.MaxMessages,
		byAuthor:    make(map[id.UserID]map[uint64]*entry),
		dropped:     make(map[id.UserID]map[uint64]bool),
		floor:       make(map[id.UserID]uint64),
		subs:        make(map[id.UserID]bool),
	}
	s.queue.prev, s.queue.next = &s.queue, &s.queue
	return s
}

// Owner returns the user this store belongs to.
func (s *Store) Owner() id.UserID { return s.owner }

// NextSeq reserves and returns the next sequence number for messages
// authored by the store's owner.
func (s *Store) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ownSeq++
	return s.ownSeq
}

// Put inserts a message, returning true if it was new. Duplicate
// (author, seq) pairs — held or tombstoned — are ignored, which makes
// redundant epidemic deliveries idempotent and keeps evicted messages
// from churning back in. A new m is stored as is: the store takes
// ownership, and the caller must not mutate m afterwards (see
// msg.Message). When the insert pushes the buffer over quota, the
// eviction policy drops victims (never the owner's own messages) and
// registered OnEvict hooks observe each drop.
func (s *Store) Put(m *msg.Message) (bool, error) {
	if err := m.Validate(); err != nil {
		return false, fmt.Errorf("store: rejecting message: %w", err)
	}
	s.mu.Lock()
	ref := m.Ref()
	perAuthor := s.byAuthor[ref.Author]
	if perAuthor[ref.Seq] != nil || s.dropped[ref.Author][ref.Seq] {
		s.stats.Duplicates++
		s.mu.Unlock()
		return false, nil
	}
	e := &entry{m: m, size: messageSize(m), stored: s.clk.Now(), prev: s.queue.prev, next: &s.queue}
	if perAuthor == nil {
		perAuthor = make(map[uint64]*entry)
		s.byAuthor[ref.Author] = perAuthor
	}
	perAuthor[ref.Seq] = e
	e.prev.next, s.queue.prev = e, e
	s.count++
	s.bytes += e.size
	s.stats.Puts++
	s.sum.bump(ref.Author, ref.Seq)
	s.advanceFloorLocked(ref.Author)
	if ref.Author == s.owner && ref.Seq > s.ownSeq {
		s.ownSeq = ref.Seq
	}
	evs := s.enforceQuotaLocked()
	s.mu.Unlock()
	s.fire(evs)
	return true, nil
}

// Changes returns the summary entries that changed in (sinceGen, gen];
// see Engine.Changes. The per-stripe logs are consulted without taking
// the store's own lock.
func (s *Store) Changes(sinceGen uint64) (map[id.UserID]uint64, bool) {
	return s.sum.changes(sinceGen)
}

// enforceQuotaLocked drops policy-selected victims until the buffer fits
// its quota, returning the evictions for post-unlock hook delivery. The
// owner's own messages are never candidates; if only those remain, the
// buffer is allowed to exceed quota.
func (s *Store) enforceQuotaLocked() []Eviction {
	var evs []Eviction
	for s.overQuotaLocked() {
		victim := s.victimLocked()
		if victim == nil {
			break
		}
		evs = append(evs, s.removeLocked(victim, EvictCapacity))
	}
	return evs
}

func (s *Store) overQuotaLocked() bool {
	return s.maxMessages > 0 && s.count > s.maxMessages
}

// victimLocked picks the policy's best victim. Drop-oldest ranks by
// stored-at, which IS the insertion queue order, so the default policy
// takes the front-most foreign entry in O(1) amortized; other policies
// scan front-to-back with strict Less, which makes ties deterministic
// (the earlier-inserted candidate wins).
func (s *Store) victimLocked() *entry {
	if _, fifo := s.policy.(dropOldest); fifo {
		for e := s.queue.next; e != &s.queue; e = e.next {
			if e.m.Author != s.owner {
				return e
			}
		}
		return nil
	}
	var best *entry
	var bestMeta Entry
	for e := s.queue.next; e != &s.queue; e = e.next {
		if e.m.Author == s.owner {
			continue
		}
		meta := s.entryMetaLocked(e)
		if best == nil || s.policy.Less(meta, bestMeta) {
			best, bestMeta = e, meta
		}
	}
	return best
}

func (s *Store) entryMetaLocked(e *entry) Entry {
	return Entry{
		Ref:        e.m.Ref(),
		Created:    e.m.Created,
		StoredAt:   e.stored,
		Size:       e.size,
		Subscribed: s.subs[e.m.Author],
	}
}

// removeLocked drops a held entry, leaving a tombstone so the ref is
// neither re-requested nor re-admitted.
func (s *Store) removeLocked(e *entry, reason EvictReason) Eviction {
	ref := e.m.Ref()
	s.unlinkLocked(e)
	s.tombstoneLocked(ref)
	switch reason {
	case EvictExpired:
		s.stats.Expirations++
	default:
		s.stats.Evictions++
	}
	s.stats.EvictedBytes += uint64(e.size)
	return Eviction{Ref: ref, Reason: reason, Kind: e.m.Kind, Size: e.size}
}

// unlinkLocked takes a held entry out of the index and the insertion
// queue.
func (s *Store) unlinkLocked(e *entry) {
	perAuthor := s.byAuthor[e.m.Author]
	delete(perAuthor, e.m.Seq)
	if len(perAuthor) == 0 {
		delete(s.byAuthor, e.m.Author)
	}
	e.prev.next, e.next.prev = e.next, e.prev
	s.count--
	s.bytes -= e.size
}

// maxTombstonesPerAuthor bounds tombstone memory on long-running,
// quota-bounded relays: a busy node evicts continuously, and unbounded
// tombstones would eventually dwarf the buffer they protect. When an
// author's set doubles the cap, the lowest (oldest-content) half is
// forgotten — those refs become re-fetchable again, which is bounded
// churn rather than unbounded memory.
const maxTombstonesPerAuthor = 4096

func (s *Store) tombstoneLocked(ref msg.Ref) {
	perAuthor := s.dropped[ref.Author]
	if perAuthor == nil {
		perAuthor = make(map[uint64]bool)
		s.dropped[ref.Author] = perAuthor
	}
	perAuthor[ref.Seq] = true
	if len(perAuthor) >= 2*maxTombstonesPerAuthor {
		seqs := make([]uint64, 0, len(perAuthor))
		for seq := range perAuthor {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		for _, seq := range seqs[:len(seqs)-maxTombstonesPerAuthor] {
			delete(perAuthor, seq)
		}
		delete(s.floor, ref.Author) // forgotten refs are missing again
	}
	s.advanceFloorLocked(ref.Author)
}

// advanceFloorLocked raises author's floor over every sequence that is
// now accounted for: amortized O(1) per Put, since a floor only falls
// when tombstones are forgotten.
func (s *Store) advanceFloorLocked(author id.UserID) {
	held, tombs, floor := s.byAuthor[author], s.dropped[author], s.floor[author]
	n := floor
	for held[n+1] != nil || tombs[n+1] {
		n++
	}
	if n > floor {
		s.floor[author] = n
	}
}

// SweepExpired evicts every foreign message whose lifetime has ended
// under the eviction policy and returns the count. Non-expiring policies
// make this a constant-time no-op.
func (s *Store) SweepExpired() int {
	if !s.policy.Expires() {
		return 0
	}
	s.mu.Lock()
	now := s.clk.Now()
	var evs []Eviction
	for e := s.queue.next; e != &s.queue; {
		next := e.next
		if e.m.Author != s.owner && s.policy.Expired(s.entryMetaLocked(e), now) {
			evs = append(evs, s.removeLocked(e, EvictExpired))
		}
		e = next
	}
	s.mu.Unlock()
	s.fire(evs)
	return len(evs)
}

// OnEvict registers an eviction observer; see Engine.OnEvict.
func (s *Store) OnEvict(fn func(Eviction)) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// fire delivers evictions to the registered hooks outside the store lock.
func (s *Store) fire(evs []Eviction) {
	if len(evs) == 0 {
		return
	}
	s.hookMu.Lock()
	hooks := make([]func(Eviction), len(s.hooks))
	copy(hooks, s.hooks)
	s.hookMu.Unlock()
	for _, ev := range evs {
		for _, fn := range hooks {
			fn(ev)
		}
	}
}

// Get returns the held message with the given ref, shared and read-only.
func (s *Store) Get(ref msg.Ref) (*msg.Message, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.byAuthor[ref.Author][ref.Seq]
	if e == nil {
		return nil, false
	}
	return e.m, true
}

// Len returns the number of held messages.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// MaxSeq returns the highest sequence number seen for author, or 0.
func (s *Store) MaxSeq(author id.UserID) uint64 {
	return s.sum.seq(author)
}

// Summary returns the plain-text advertisement dictionary: for every
// author ever seen, the latest MessageNumber — exactly the key/value
// dictionary the paper's §V-A beacons carry. The map is a fresh merge of
// the stripes, owned by the caller; handing it out never arms
// copy-on-write, so later Puts stay clone-free.
func (s *Store) Summary() map[id.UserID]uint64 {
	return s.sum.summary()
}

// SummaryStripes returns the stripe count of the sharded summary; see
// Engine.SummaryStripes.
func (s *Store) SummaryStripes() int { return SummaryStripeCount }

// SummaryStripe returns stripe i of the summary as a shared immutable
// snapshot (copy-on-write on that stripe's next change); see
// Engine.SummaryStripe.
func (s *Store) SummaryStripe(i int) map[id.UserID]uint64 {
	return s.sum.stripeSnapshot(i)
}

// SummarySize returns the summary entry count without snapshotting.
func (s *Store) SummarySize() int {
	return s.sum.sizeNow()
}

// Generation returns the summary-change counter; see Engine.Generation.
func (s *Store) Generation() uint64 {
	return s.sum.generation()
}

// MaxMissing caps one Missing result: what a single wire.Want can carry
// (wire.MaxSeqsPerWant).
const MaxMissing = 65535

// Missing returns the lowest MaxMissing sequence numbers in [1, upto]
// that the store neither holds nor has evicted, in ascending order. A
// browsing node uses this to build its message request after seeing an
// advertisement. Only sequences past the author's floor are probed, so
// the cost is bounded by upto − floor and by what the store holds above
// the floor plus MaxMissing, whatever upto a peer claims.
func (s *Store) Missing(author id.UserID, upto uint64) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	held, tombs := s.byAuthor[author], s.dropped[author]
	var missing []uint64
	for seq := s.floor[author] + 1; seq <= upto && len(missing) < MaxMissing; seq++ {
		if held[seq] == nil && !tombs[seq] {
			missing = append(missing, seq)
		}
	}
	return missing
}

// Ahead keeps the entries past their author's floor; see Engine.Ahead.
func (s *Store) Ahead(dst, entries []wire.Entry) []wire.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range entries {
		if e.Seq > s.floor[e.Author] {
			dst = append(dst, e)
		}
	}
	return dst
}

// MessagesFrom returns the held messages by author with sequence number
// strictly greater than after, ordered by sequence, shared and read-only.
func (s *Store) MessagesFrom(author id.UserID, after uint64) []*msg.Message {
	s.mu.RLock()
	defer s.mu.RUnlock()
	perAuthor := s.byAuthor[author]
	if len(perAuthor) == 0 {
		return nil
	}
	seqs := make([]uint64, 0, len(perAuthor))
	for seq := range perAuthor {
		if seq > after {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	slices.Sort(seqs)
	out := make([]*msg.Message, 0, len(seqs))
	for _, seq := range seqs {
		out = append(out, perAuthor[seq].m)
	}
	return out
}

// Select returns specific held messages by (author, seq), shared and
// read-only; refs not held are skipped.
func (s *Store) Select(author id.UserID, seqs []uint64) []*msg.Message {
	s.mu.RLock()
	defer s.mu.RUnlock()
	perAuthor := s.byAuthor[author]
	out := make([]*msg.Message, 0, len(seqs))
	for _, seq := range seqs {
		if e, ok := perAuthor[seq]; ok {
			out = append(out, e.m)
		}
	}
	return out
}

// Authors returns every author with at least one held message.
func (s *Store) Authors() []id.UserID {
	s.mu.RLock()
	out := make([]id.UserID, 0, len(s.byAuthor))
	for author := range s.byAuthor {
		out = append(out, author)
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b id.UserID) int { return bytes.Compare(a[:], b[:]) })
	return out
}

// Subscribe records interest in a user's messages. Interest-based routing
// only requests and carries messages whose author the node subscribes to,
// and the subscription-priority eviction policy protects their messages.
func (s *Store) Subscribe(user id.UserID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[user] = true
}

// Unsubscribe removes interest in a user's messages.
func (s *Store) Unsubscribe(user id.UserID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, user)
}

// IsSubscribed reports whether the node subscribes to user.
func (s *Store) IsSubscribed(user id.UserID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.subs[user]
}

// Subscriptions returns the subscribed users in deterministic order.
func (s *Store) Subscriptions() []id.UserID {
	s.mu.RLock()
	out := make([]id.UserID, 0, len(s.subs))
	for u := range s.subs {
		out = append(out, u)
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b id.UserID) int { return bytes.Compare(a[:], b[:]) })
	return out
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Messages = s.count
	st.Bytes = s.bytes
	st.Generation = s.sum.generation()
	st.SummaryClones = s.sum.clones.Load()
	st.StripeLockWaits = s.sum.lockWaits.Load()
	return st
}

// Close releases the store. The in-memory engine has nothing to flush.
func (s *Store) Close() error { return nil }

// --- internal surface for the disk engine ---

// setQuota swaps the capacity bound and enforces it, used by the disk
// engine to disable the quota during log replay (so replayed history
// never re-evicts) and restore it afterwards.
func (s *Store) setQuota(maxMessages int) []Eviction {
	s.mu.Lock()
	s.maxMessages = maxMessages
	evs := s.enforceQuotaLocked()
	s.mu.Unlock()
	return evs
}

// applyEvict replays a logged eviction: remove the ref if held (without
// firing hooks or counting it as a fresh drop) and tombstone it.
func (s *Store) applyEvict(ref msg.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.byAuthor[ref.Author][ref.Seq]; e != nil {
		s.unlinkLocked(e)
	}
	s.tombstoneLocked(ref)
}

// live captures what a compaction must keep: the held messages in queue
// (arrival) order, the subscriptions, and the tombstones.
func (s *Store) live() (msgs []*msg.Message, subs []id.UserID, tombs []msg.Ref) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	msgs = make([]*msg.Message, 0, s.count)
	for e := s.queue.next; e != &s.queue; e = e.next {
		msgs = append(msgs, e.m)
	}
	for u := range s.subs {
		subs = append(subs, u)
	}
	for author, seqs := range s.dropped {
		for seq := range seqs {
			tombs = append(tombs, msg.Ref{Author: author, Seq: seq})
		}
	}
	return msgs, subs, tombs
}
