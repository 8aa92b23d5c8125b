// The storage engine contract. The paper's middleware "saves the action to
// the local database on the mobile device" before dissemination (§V); on a
// real device that database is a scarce, crash-prone resource, so the store
// layer is pluggable: Engine is the behavioral contract every backend must
// satisfy, and the package ships two — the in-memory Store (simulations,
// tests, throwaway nodes) and the disk-backed Disk (daemons that must
// survive restarts). The conformance suite in storetest runs both through
// identical assertions, including kill-and-reload crash recovery.

package store

import (
	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/obs/span"
	"sos/internal/wire"
)

// Engine is a node's message database plus subscription registry. All
// implementations are safe for concurrent use. An engine keeps one copy
// of each message: Put takes ownership of the message it is handed, and
// every read hands out that same message, which callers must treat as
// read-only (see msg.Message). SummaryStripe likewise returns a shared
// read-only snapshot (see its doc comment).
type Engine interface {
	// Owner returns the user this database belongs to.
	Owner() id.UserID
	// NextSeq reserves the next sequence number for owner-authored
	// messages. Reservations are not durable until the message is Put.
	NextSeq() uint64

	// Put inserts a message, returning true if it was new. Duplicate
	// (author, seq) pairs — including pairs the engine has already held
	// and evicted — are ignored, which keeps redundant epidemic
	// deliveries idempotent and prevents evicted messages from being
	// re-fetched in an endless churn loop. Put may evict other messages
	// to stay within the configured quota. A new message is kept as is,
	// so the caller must not mutate it afterwards.
	Put(m *msg.Message) (bool, error)
	// Get returns the held message with the given ref.
	Get(ref msg.Ref) (*msg.Message, bool)
	// Len returns the number of held messages.
	Len() int

	// MaxSeq returns the highest sequence number *seen* for author, or 0.
	// Eviction never lowers it: it is the high-water mark the discovery
	// summary advertises, not a guarantee of possession.
	MaxSeq(author id.UserID) uint64
	// Summary returns the advertisement dictionary (author → latest seen
	// MessageNumber, paper §V-A) as a fresh map owned by the caller,
	// merged from the engine's stripes. It never arms copy-on-write, so
	// it is safe to call on any store size without taxing later Puts —
	// but it is an O(authors) merge; hot paths that can work per-stripe
	// should use SummaryStripe, and callers that only need the
	// dictionary's size must use SummarySize.
	Summary() map[id.UserID]uint64
	// SummaryStripes returns the number of buckets the summary is
	// sharded into by author-ID prefix. The stripe of an author is
	// stable for the engine's lifetime, and every author appears in
	// exactly one stripe.
	SummaryStripes() int
	// SummaryStripe returns bucket i of the summary as a shared
	// immutable snapshot — copy-on-write lands on that stripe's next
	// change only, so a hand-out costs at most one stripe clone, not a
	// whole-dictionary clone. Callers must treat the map as read-only;
	// it may be nil for an empty stripe.
	SummaryStripe(i int) map[id.UserID]uint64
	// SummarySize returns len(Summary()) without building it.
	SummarySize() int
	// Generation returns a counter that increments whenever the summary
	// changes. The ad hoc layer re-advertises only when it moves.
	Generation() uint64
	// Changes returns the summary entries that changed in generations
	// (sinceGen, Generation()] — author → latest seen MessageNumber — and
	// ok=true when the engine retains enough change history to answer
	// exactly. ok=false (sinceGen older than the bounded change log, or
	// ahead of the current generation) means the caller must fall back to
	// the full Summary. The returned map is owned by the caller. This is
	// what delta advertisements are built from: steady-state sync traffic
	// scales with what changed, not with how many authors the store has
	// ever seen.
	Changes(sinceGen uint64) (map[id.UserID]uint64, bool)

	// Missing returns the sequence numbers in [1, upto] that the engine
	// neither holds nor has deliberately evicted, in ascending order
	// and at most the lowest MaxMissing of them: upto comes from a
	// peer's dictionary, so neither the result nor the work may scale
	// with it. The cost is bounded by upto minus the author's floor (the
	// largest n with 1..n all accounted for) and by the sequences the
	// engine holds above that floor plus MaxMissing.
	Missing(author id.UserID, upto uint64) []uint64
	// Ahead appends to dst, in order, the entries whose Seq is past the
	// engine's floor for their author, under one lock: exactly those for
	// which Missing(Author, Seq) is non-empty. dst may be entries[:0].
	Ahead(dst, entries []wire.Entry) []wire.Entry
	// MessagesFrom returns the held messages by author with seq > after,
	// ordered by sequence number.
	MessagesFrom(author id.UserID, after uint64) []*msg.Message
	// Select returns specific held messages; absent refs are skipped.
	Select(author id.UserID, seqs []uint64) []*msg.Message
	// Authors returns every author with at least one held message.
	Authors() []id.UserID

	// Subscribe records interest in a user's messages.
	Subscribe(user id.UserID)
	// Unsubscribe removes interest in a user's messages.
	Unsubscribe(user id.UserID)
	// IsSubscribed reports whether the node subscribes to user.
	IsSubscribed(user id.UserID) bool
	// Subscriptions returns the subscribed users in deterministic order.
	Subscriptions() []id.UserID

	// SweepExpired evicts every held message whose lifetime has ended
	// under the engine's eviction policy and returns the count. The
	// middleware sweeps before advertising and before serving, so a
	// policy with expiry (TTL) bounds what a node forwards.
	SweepExpired() int
	// OnEvict registers an additional eviction observer. Hooks fire
	// after the engine's internal lock is released, in registration
	// order, once per dropped message.
	OnEvict(fn func(Eviction))
	// Stats snapshots the engine's counters.
	Stats() Stats

	// Close flushes and releases the engine. Reads remain valid; writes
	// after Close fail on durable engines.
	Close() error
}

// EvictReason says why a message was dropped.
type EvictReason uint8

// Eviction reasons.
const (
	// EvictCapacity: the buffer exceeded its message quota and the
	// eviction policy chose this message as the victim.
	EvictCapacity EvictReason = iota + 1
	// EvictExpired: the message outlived the policy's lifetime (TTL).
	EvictExpired
)

// String names the reason for logs and metrics.
func (r EvictReason) String() string {
	switch r {
	case EvictCapacity:
		return "capacity"
	case EvictExpired:
		return "expired"
	default:
		return "unknown"
	}
}

// Eviction describes one dropped message.
type Eviction struct {
	Ref    msg.Ref
	Reason EvictReason
	// Kind is the dropped message's kind. Telemetry consumers use it to
	// tell workload drops (posts) from social-graph chatter after the
	// message itself is gone.
	Kind msg.Kind
	// Size is the bytes the drop freed (payload + signature +
	// certificate + bookkeeping overhead).
	Size int
}

// Stats counts storage-engine events. Counters are since-open: a durable
// engine that replays its log on open counts the replayed inserts as Puts.
type Stats struct {
	// Puts counts accepted inserts.
	Puts uint64
	// Duplicates counts rejected re-inserts (already held or already
	// evicted).
	Duplicates uint64
	// Evictions counts capacity-quota drops.
	Evictions uint64
	// Expirations counts lifetime (TTL) drops.
	Expirations uint64
	// EvictedBytes totals the bytes freed by drops of both kinds.
	EvictedBytes uint64
	// Messages and Bytes are the current buffer occupancy.
	Messages int
	Bytes    int
	// Generation is the current summary generation.
	Generation uint64
	// SummaryClones counts copy-on-write stripe clones forced by
	// outstanding SummaryStripe snapshots. Flat-lining this at scale is
	// the point of the striped index.
	SummaryClones uint64
	// StripeLockWaits counts summary-stripe lock acquisitions that found
	// the lock already held — contention between links syncing
	// overlapping author ranges.
	StripeLockWaits uint64
}

// Options tunes an engine. The zero value is an unbounded buffer with the
// drop-oldest policy (which then never fires).
type Options struct {
	// MaxMessages bounds the buffer in messages; 0 = unbounded.
	MaxMessages int
	// Policy selects the eviction policy; nil = DropOldest. Messages
	// authored by the store's owner are never evicted — a device always
	// keeps its own actions, matching the field study where old posts
	// stayed deliverable single-hop from their authors.
	Policy Policy
	// Clock drives stored-at timestamps and TTL expiry; nil = wall time.
	Clock clock.Clock

	// NoSync, for the disk engine only, skips the fsync after each
	// appended record. Faster, but a crash can lose the tail.
	NoSync bool
	// CompactBytes, for the disk engine only, is the log size that
	// triggers compaction; 0 selects a 1 MiB default. A store holding more
	// than this compacts each time its log doubles instead.
	CompactBytes int64
	// Tracer, when set, records store maintenance spans (disk
	// compaction) into the node's flight recorder. The memory engine
	// ignores it.
	Tracer *span.Tracer
}

// messageSize is the byte accounting for one stored message: the variable
// fields plus a fixed overhead for the struct and index entries.
func messageSize(m *msg.Message) int {
	const overhead = 64
	return len(m.Payload) + len(m.Sig) + len(m.CertDER) + overhead
}
