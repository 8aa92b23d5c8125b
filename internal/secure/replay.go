// The persistent replay store. The in-memory forward-sequence check in
// Session dies with the process: frames recorded before a restart would
// replay cleanly into a resumed session, and envelope nonces were never
// tracked at all. ReplayStore makes both survive restart on the record
// log the disk engine uses (internal/recordlog: CRC-framed appends,
// torn-tail truncation, atomic rewrite) while staying bounded: scopes are
// LRU-capped and nonces FIFO-capped, so a hostile peer minting scopes or
// nonces cannot grow the store without limit.
//
// Sequence floors persist ahead of acceptance: when a scope's committed
// sequence reaches the persisted horizon, the store durably raises the
// horizon a full stride *before* further frames are accepted past it.
// After a crash the floor therefore resumes at or above everything ever
// accepted — a replayed recording lands below the floor and is rejected
// — at the cost of a sender-side cursor skipping at most one stride of
// unused sequence numbers on restart.

package secure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"sos/internal/recordlog"
)

// Replay store bounds and defaults.
const (
	replayLogFile = "replay.log"

	// DefaultReplayStride is how far the persisted floor runs ahead of
	// the last committed sequence: one log append per stride sequences,
	// and at most one stride of sequence numbers skipped after restart.
	DefaultReplayStride = 64
	// DefaultMaxScopes bounds distinct replay scopes (per-peer,
	// per-direction); least-recently-committed scopes are evicted.
	DefaultMaxScopes = 1024
	// DefaultMaxNonces bounds remembered envelope nonces; the oldest are
	// forgotten first.
	DefaultMaxNonces = 4096

	maxReplayScope = 128 // bytes, scope name bound on the wire
	maxReplayNonce = 64  // bytes, nonce bound on the wire
	// maxReplayBody bounds one record body in the log.
	maxReplayBody = maxReplayScope + maxReplayNonce + 16

	replayCompactBytes = 1 << 18
)

// ReplayRecord type tags in the log.
const (
	ReplayRecFloor byte = 1 // a scope's persisted sequence horizon
	ReplayRecNonce byte = 2 // an envelope nonce marked as seen
)

// ErrRecordMalformed marks a log record whose body does not decode.
var ErrRecordMalformed = errors.New("secure: malformed replay record")

// ReplayRecord is one entry in the replay store's log. Floor
// records carry a scope, the epoch it had reached (diagnostic only), and
// the new sequence horizon; nonce records carry the nonce bytes.
type ReplayRecord struct {
	Type  byte
	Scope string // floor records
	Epoch uint32 // floor records
	Floor uint64 // floor records
	Nonce []byte // nonce records
}

// AppendBody appends the record's body encoding to dst; the log frames
// it under r.Type.
func (r ReplayRecord) AppendBody(dst []byte) []byte {
	switch r.Type {
	case ReplayRecFloor:
		dst = binary.AppendUvarint(dst, uint64(len(r.Scope)))
		dst = append(dst, r.Scope...)
		dst = binary.BigEndian.AppendUint32(dst, r.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, r.Floor)
	case ReplayRecNonce:
		dst = binary.AppendUvarint(dst, uint64(len(r.Nonce)))
		dst = append(dst, r.Nonce...)
	}
	return dst
}

// DecodeReplayBody parses one record body read back from the log. The
// bytes come from disk, so every length is checked against the body and
// the store's bounds; anything else is ErrRecordMalformed.
func DecodeReplayBody(typ byte, body []byte) (ReplayRecord, error) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n > uint64(len(body)-w) {
		return ReplayRecord{}, fmt.Errorf("%w: length prefix", ErrRecordMalformed)
	}
	field, rest := body[w:w+int(n)], body[w+int(n):]
	switch typ {
	case ReplayRecFloor:
		if n > maxReplayScope || len(rest) != 12 {
			return ReplayRecord{}, fmt.Errorf("%w: floor body", ErrRecordMalformed)
		}
		return ReplayRecord{
			Type:  typ,
			Scope: string(field),
			Epoch: binary.BigEndian.Uint32(rest[:4]),
			Floor: binary.BigEndian.Uint64(rest[4:]),
		}, nil
	case ReplayRecNonce:
		if n > maxReplayNonce || len(rest) != 0 {
			return ReplayRecord{}, fmt.Errorf("%w: nonce body", ErrRecordMalformed)
		}
		return ReplayRecord{Type: typ, Nonce: append([]byte{}, field...)}, nil
	default:
		return ReplayRecord{}, fmt.Errorf("%w: unknown type %d", ErrRecordMalformed, typ)
	}
}

// ReplayOptions tunes a replay store; the zero value selects every
// default.
type ReplayOptions struct {
	Stride    uint64 // persist-ahead distance; 0 = DefaultReplayStride
	MaxScopes int    // scope LRU bound; 0 = DefaultMaxScopes
	MaxNonces int    // nonce FIFO bound; 0 = DefaultMaxNonces
	NoSync    bool   // skip fsync on appends (tests, lab fleets)
	// Stats, when set, counts the store's replay rejections (MarkNonce
	// hits) into a recorder.
	Stats *StatsRecorder
}

// ReplayStore is the bounded, optionally persistent replay state for one
// node: per-scope sequence floors for sessions and a seen-nonce set for
// envelopes. All methods are safe for concurrent use. Commit and
// MarkNonce cannot return errors, so a record that could not be made
// durable latches in the log and surfaces on Close.
type ReplayStore struct {
	mu     sync.Mutex
	log    *recordlog.Log // nil = memory only
	stride uint64
	maxSc  int
	maxNon int
	rec    *StatsRecorder
	closed bool

	scopes map[string]*replayScope
	tick   uint64 // LRU clock for scope eviction
	nonces map[string]struct{}
	order  []string // nonce FIFO
	buf    []byte   // record body scratch
}

type replayScope struct {
	last    uint64 // next acceptable sequence (in memory)
	horizon uint64 // persisted floor, always >= last
	epoch   uint32
	touched uint64
}

// OpenReplayStore opens (or creates) the replay state under dir,
// replaying the existing log and truncating any torn tail. An empty dir
// yields a memory-only store with identical semantics minus persistence.
func OpenReplayStore(dir string, opts ReplayOptions) (*ReplayStore, error) {
	rs := &ReplayStore{
		stride: opts.Stride,
		maxSc:  opts.MaxScopes,
		maxNon: opts.MaxNonces,
		rec:    opts.Stats,
		scopes: make(map[string]*replayScope),
		nonces: make(map[string]struct{}),
	}
	if rs.stride == 0 {
		rs.stride = DefaultReplayStride
	}
	if rs.maxSc <= 0 {
		rs.maxSc = DefaultMaxScopes
	}
	if rs.maxNon <= 0 {
		rs.maxNon = DefaultMaxNonces
	}
	if dir == "" {
		return rs, nil
	}
	log, err := recordlog.Open(filepath.Join(dir, replayLogFile), maxReplayBody, opts.NoSync, rs.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("secure: opening replay store: %w", err)
	}
	rs.log = log
	return rs, nil
}

// applyRecord folds one record read back from the log into memory. It
// runs only inside OpenReplayStore, before the store is shared, so it
// takes no lock.
func (rs *ReplayStore) applyRecord(typ byte, body []byte) error {
	rec, err := DecodeReplayBody(typ, body)
	if err != nil {
		return err
	}
	switch rec.Type {
	case ReplayRecFloor:
		sc := rs.scopeLocked(rec.Scope)
		if rec.Floor > sc.horizon {
			sc.horizon = rec.Floor
		}
		if rec.Floor > sc.last {
			sc.last = rec.Floor
		}
		if rec.Epoch > sc.epoch {
			sc.epoch = rec.Epoch
		}
	case ReplayRecNonce:
		rs.markNonceLocked(string(rec.Nonce))
	}
	return nil
}

// scopeLocked fetches (or creates) a scope, touching its LRU stamp and
// evicting the stalest scope past the bound.
func (rs *ReplayStore) scopeLocked(name string) *replayScope {
	rs.tick++
	if sc, ok := rs.scopes[name]; ok {
		sc.touched = rs.tick
		return sc
	}
	if len(rs.scopes) >= rs.maxSc {
		var oldest string
		var min uint64 = ^uint64(0)
		for n, sc := range rs.scopes {
			if sc.touched < min {
				min, oldest = sc.touched, n
			}
		}
		delete(rs.scopes, oldest)
	}
	sc := &replayScope{touched: rs.tick}
	rs.scopes[name] = sc
	return sc
}

// markNonceLocked inserts a nonce, evicting FIFO past the bound; reports
// whether the nonce was fresh.
func (rs *ReplayStore) markNonceLocked(key string) bool {
	if _, seen := rs.nonces[key]; seen {
		return false
	}
	if len(rs.nonces) >= rs.maxNon {
		delete(rs.nonces, rs.order[0])
		rs.order = rs.order[1:]
	}
	rs.nonces[key] = struct{}{}
	rs.order = append(rs.order, key)
	return true
}

// appendLocked makes one record durable and compacts when the log
// outgrows its threshold.
func (rs *ReplayStore) appendLocked(rec ReplayRecord) {
	if rs.log == nil {
		return
	}
	rs.buf = rec.AppendBody(rs.buf[:0])
	if rs.log.Append(rec.Type, rs.buf) == nil && rs.log.Overgrown(replayCompactBytes) {
		rs.compactLocked()
	}
}

// compactLocked rewrites the log to one floor record per live scope and
// one record per remembered nonce, oldest first. Floor records are
// idempotent maxima, so whichever of the old and new log a crash leaves
// replays to the same state.
func (rs *ReplayStore) compactLocked() {
	_ = rs.log.Rewrite(func(put func(typ byte, body []byte)) error { // latched in the log
		for name, sc := range rs.scopes {
			rs.buf = ReplayRecord{Type: ReplayRecFloor, Scope: name, Epoch: sc.epoch, Floor: sc.horizon}.AppendBody(rs.buf[:0])
			put(ReplayRecFloor, rs.buf)
		}
		for _, key := range rs.order {
			rs.buf = ReplayRecord{Type: ReplayRecNonce, Nonce: []byte(key)}.AppendBody(rs.buf[:0])
			put(ReplayRecNonce, rs.buf)
		}
		return nil
	})
}

// Len reports how many replay scopes and envelope nonces the store
// holds: what a daemon logs as resumed after opening it.
func (rs *ReplayStore) Len() (scopes, nonces int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.scopes), len(rs.nonces)
}

// Scope returns a handle binding sessions to one named replay scope
// (SOS uses "recv/<peer>" and "send/<peer>" per node). Handles are cheap
// and may be recreated freely; state lives in the store.
func (rs *ReplayStore) Scope(name string) *ReplayHandle {
	if len(name) > maxReplayScope {
		name = name[:maxReplayScope]
	}
	return &ReplayHandle{rs: rs, name: name}
}

// MarkNonce records an envelope nonce, returning true when it was fresh
// and false when it was already seen (a replay). Oversized nonces are
// truncated to the store bound before comparison.
func (rs *ReplayStore) MarkNonce(nonce []byte) bool {
	if len(nonce) > maxReplayNonce {
		nonce = nonce[:maxReplayNonce]
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return false
	}
	fresh := rs.markNonceLocked(string(nonce))
	if fresh {
		rs.appendLocked(ReplayRecord{Type: ReplayRecNonce, Nonce: nonce})
	} else {
		bump(rs.rec, cReplayRejected)
	}
	return fresh
}

// Close flushes and closes the log; any latched durability failure
// surfaces here.
func (rs *ReplayStore) Close() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.closed = true
	if rs.log == nil {
		return nil
	}
	return rs.log.Close()
}

// ReplayHandle binds one replay scope for a session: the receive
// direction uses Floor as its initial accept watermark and Commits every
// accepted sequence; a send direction uses the same pair to resume its
// cursor past everything it ever sealed.
type ReplayHandle struct {
	rs   *ReplayStore
	name string
}

// Floor returns the persisted sequence horizon: the lowest sequence a
// resumed session may use or accept.
func (h *ReplayHandle) Floor() uint64 {
	h.rs.mu.Lock()
	defer h.rs.mu.Unlock()
	return h.rs.scopeLocked(h.name).horizon
}

// Commit records that seq was accepted (or sealed) in this scope. The
// persisted horizon is raised by a full stride whenever the committed
// sequence reaches it, so durability costs one append per stride
// sequences — off the per-frame hot path — while restart still resumes
// at or above everything committed.
func (h *ReplayHandle) Commit(epoch uint32, seq uint64) {
	h.rs.mu.Lock()
	defer h.rs.mu.Unlock()
	if h.rs.closed {
		return
	}
	sc := h.rs.scopeLocked(h.name)
	if seq+1 > sc.last {
		sc.last = seq + 1
	}
	if epoch > sc.epoch {
		sc.epoch = epoch
	}
	if sc.last > sc.horizon {
		sc.horizon = sc.last + h.rs.stride
		h.rs.appendLocked(ReplayRecord{Type: ReplayRecFloor, Scope: h.name, Epoch: sc.epoch, Floor: sc.horizon})
	}
}
