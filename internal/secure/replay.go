// The persistent replay store. The in-memory forward-sequence check in
// Session dies with the process: frames recorded before a restart would
// replay cleanly into a resumed session, and envelope nonces were never
// tracked at all. ReplayStore makes both survive restart with the disk
// engine's durability idiom (CRC-framed append log, torn-tail truncation,
// rewrite-style compaction) while staying bounded: scopes are LRU-capped
// and nonces FIFO-capped, so a hostile peer minting scopes or nonces
// cannot grow the store without limit.
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
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
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

	replayCompactBytes = 1 << 18
)

// ReplayRecord type tags in the append log.
const (
	ReplayRecFloor byte = 1 // a scope's persisted sequence horizon
	ReplayRecNonce byte = 2 // an envelope nonce marked as seen
)

// Errors reported by the replay store.
var (
	ErrReplayClosed    = errors.New("secure: replay store closed")
	ErrRecordMalformed = errors.New("secure: malformed replay record")
)

// ReplayRecord is one entry in the replay store's append log. Floor
// records carry a scope, the epoch it had reached (diagnostic only), and
// the new sequence horizon; nonce records carry the nonce bytes.
type ReplayRecord struct {
	Type  byte
	Scope string // floor records
	Epoch uint32 // floor records
	Floor uint64 // floor records
	Nonce []byte // nonce records
}

// AppendEncode appends the record's framed encoding — type, uvarint body
// length, body, CRC-32 over all of it — to dst.
func (r ReplayRecord) AppendEncode(dst []byte) []byte {
	var body []byte
	switch r.Type {
	case ReplayRecFloor:
		body = binary.AppendUvarint(body, uint64(len(r.Scope)))
		body = append(body, r.Scope...)
		body = binary.BigEndian.AppendUint32(body, r.Epoch)
		body = binary.BigEndian.AppendUint64(body, r.Floor)
	case ReplayRecNonce:
		body = binary.AppendUvarint(body, uint64(len(r.Nonce)))
		body = append(body, r.Nonce...)
	}
	start := len(dst)
	dst = append(dst, r.Type)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// DecodeReplayRecord reads one framed record from r, returning the record
// and the number of bytes consumed. io.EOF at a record boundary means a
// clean end; any torn or corrupt frame returns ErrRecordMalformed (or an
// unexpected-EOF wrap), after which the caller truncates.
func DecodeReplayRecord(br *bufio.Reader) (ReplayRecord, int64, error) {
	head, err := br.ReadByte()
	if err != nil {
		return ReplayRecord{}, 0, err // io.EOF: clean boundary
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return ReplayRecord{}, 1, fmt.Errorf("%w: length: %v", ErrRecordMalformed, err)
	}
	if n > maxReplayScope+maxReplayNonce+16 {
		return ReplayRecord{}, 1, fmt.Errorf("%w: body of %d bytes", ErrRecordMalformed, n)
	}
	frame := []byte{head}
	frame = binary.AppendUvarint(frame, n)
	consumed := int64(len(frame))
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return ReplayRecord{}, consumed, fmt.Errorf("%w: body: %v", ErrRecordMalformed, err)
	}
	consumed += int64(n)
	frame = append(frame, body...)
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return ReplayRecord{}, consumed, fmt.Errorf("%w: checksum: %v", ErrRecordMalformed, err)
	}
	consumed += 4
	if binary.BigEndian.Uint32(sum[:]) != crc32.ChecksumIEEE(frame) {
		return ReplayRecord{}, consumed, fmt.Errorf("%w: checksum mismatch", ErrRecordMalformed)
	}

	rec := ReplayRecord{Type: head}
	bb := bytes.NewReader(body)
	switch head {
	case ReplayRecFloor:
		sl, err := binary.ReadUvarint(bb)
		if err != nil || sl > maxReplayScope || int(sl) > bb.Len() {
			return ReplayRecord{}, consumed, fmt.Errorf("%w: scope length", ErrRecordMalformed)
		}
		scope := make([]byte, sl)
		io.ReadFull(bb, scope)
		rec.Scope = string(scope)
		var fixed [12]byte
		if _, err := io.ReadFull(bb, fixed[:]); err != nil || bb.Len() != 0 {
			return ReplayRecord{}, consumed, fmt.Errorf("%w: floor body", ErrRecordMalformed)
		}
		rec.Epoch = binary.BigEndian.Uint32(fixed[:4])
		rec.Floor = binary.BigEndian.Uint64(fixed[4:])
	case ReplayRecNonce:
		nl, err := binary.ReadUvarint(bb)
		if err != nil || nl > maxReplayNonce || int(nl) != bb.Len() {
			return ReplayRecord{}, consumed, fmt.Errorf("%w: nonce length", ErrRecordMalformed)
		}
		rec.Nonce = make([]byte, nl)
		io.ReadFull(bb, rec.Nonce)
	default:
		return ReplayRecord{}, consumed, fmt.Errorf("%w: unknown type %d", ErrRecordMalformed, head)
	}
	return rec, consumed, nil
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
// envelopes. All methods are safe for concurrent use.
type ReplayStore struct {
	mu     sync.Mutex
	dir    string // "" = memory only
	log    *os.File
	bytes  int64
	stride uint64
	maxSc  int
	maxNon int
	noSync bool
	rec    *StatsRecorder
	closed bool
	// latched first durability failure; Commit and MarkNonce cannot
	// return errors, so it surfaces on Close (the disk-engine idiom).
	appendErr error

	scopes map[string]*replayScope
	tick   uint64 // LRU clock for scope eviction
	nonces map[string]struct{}
	order  []string // nonce FIFO
	buf    []byte   // append scratch
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
		dir:    dir,
		stride: opts.Stride,
		maxSc:  opts.MaxScopes,
		maxNon: opts.MaxNonces,
		noSync: opts.NoSync,
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
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("secure: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, replayLogFile)
	if err := rs.replayLogFile(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("secure: opening replay log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("secure: stating replay log: %w", err)
	}
	rs.log, rs.bytes = f, st.Size()
	return rs, nil
}

// replayLogFile loads the log at path into memory, truncating after the
// first torn or corrupt record (a crash mid-append must not poison the
// store).
func (rs *ReplayStore) replayLogFile(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("secure: opening replay log: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var good int64
	for {
		rec, n, err := DecodeReplayRecord(br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			tf, terr := os.OpenFile(path, os.O_WRONLY, 0o600)
			if terr != nil {
				return fmt.Errorf("secure: truncating replay log: %w", terr)
			}
			defer tf.Close()
			return tf.Truncate(good)
		}
		good += n
		rs.applyLocked(rec) // single-threaded during open
	}
}

// applyLocked folds one decoded record into memory.
func (rs *ReplayStore) applyLocked(rec ReplayRecord) {
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

// appendLocked frames and durably writes one record; failures latch.
func (rs *ReplayStore) appendLocked(rec ReplayRecord) {
	if rs.log == nil || rs.appendErr != nil {
		return
	}
	rs.buf = rec.AppendEncode(rs.buf[:0])
	if _, err := rs.log.Write(rs.buf); err != nil {
		rs.appendErr = fmt.Errorf("secure: appending replay record: %w", err)
		return
	}
	if !rs.noSync {
		if err := rs.log.Sync(); err != nil {
			rs.appendErr = fmt.Errorf("secure: syncing replay log: %w", err)
			return
		}
	}
	rs.bytes += int64(len(rs.buf))
	if rs.bytes >= replayCompactBytes {
		rs.compactLocked()
	}
}

// compactLocked rewrites the log to one floor record per live scope and
// one record per remembered nonce: write a temp file, fsync, rename over
// the log, reopen for append. Floor records are idempotent maxima, so a
// crash at any point leaves a log that replays to the same state.
func (rs *ReplayStore) compactLocked() {
	path := filepath.Join(rs.dir, replayLogFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		rs.appendErr = fmt.Errorf("secure: compacting replay log: %w", err)
		return
	}
	var out []byte
	for name, sc := range rs.scopes {
		out = ReplayRecord{Type: ReplayRecFloor, Scope: name, Epoch: sc.epoch, Floor: sc.horizon}.AppendEncode(out)
	}
	for _, key := range rs.order {
		out = ReplayRecord{Type: ReplayRecNonce, Nonce: []byte(key)}.AppendEncode(out)
	}
	if _, err := f.Write(out); err == nil {
		err = f.Sync()
	}
	if err := errors.Join(err, f.Close()); err != nil {
		os.Remove(tmp)
		rs.appendErr = fmt.Errorf("secure: writing compacted replay log: %w", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		rs.appendErr = fmt.Errorf("secure: swapping replay log: %w", err)
		return
	}
	rs.log.Close()
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		rs.appendErr = fmt.Errorf("secure: reopening replay log: %w", err)
		rs.log = nil
		return
	}
	rs.log = nf
	rs.bytes = int64(len(out))
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
	if rs.closed {
		return rs.appendErr
	}
	rs.closed = true
	if rs.log != nil {
		if err := rs.log.Sync(); err != nil && rs.appendErr == nil {
			rs.appendErr = fmt.Errorf("secure: syncing replay log: %w", err)
		}
		if err := rs.log.Close(); err != nil && rs.appendErr == nil {
			rs.appendErr = err
		}
	}
	return rs.appendErr
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
