// The persistent replay store. A session needs nothing remembered for
// it: its keys are bound to the two nonces of its own handshake, so a
// frame recorded on one link cannot authenticate on any other, before or
// after a restart, and the in-memory sequence watermark in Session covers
// the link it was recorded on. An end-to-end envelope has no handshake:
// the one thing that stops a recorded envelope opening twice is the
// receiver remembering its nonce. ReplayStore is that memory, kept across
// restarts on the record log the disk engine uses (internal/recordlog:
// CRC-framed appends, torn-tail truncation, atomic rewrite) and bounded:
// nonces are FIFO-capped, so a hostile peer minting envelopes cannot grow
// the store without limit.

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

	// DefaultMaxNonces bounds the envelope nonces every store remembers;
	// the oldest are forgotten first.
	DefaultMaxNonces = 4096

	maxReplayScope = 128 // bytes, scope name bound of a retired floor record
	maxReplayNonce = 64  // bytes, nonce bound on the wire
	// maxReplayBody bounds one record body in the log.
	maxReplayBody = maxReplayScope + maxReplayNonce + 16

	replayCompactBytes = 1 << 18
)

// Record type tags in the log. Type 1 was a session scope's persisted
// sequence floor; it is retired and stays unassigned. A log that still
// holds floor records loads: they are bounds-checked and skipped, and the
// next compaction drops them.
const (
	recRetiredFloor byte = 1
	ReplayRecNonce  byte = 2 // an envelope nonce marked as seen
)

// ErrRecordMalformed marks a log record whose body does not decode.
var ErrRecordMalformed = errors.New("secure: malformed replay record")

// appendNonceBody appends a nonce record's body encoding to dst; the log
// frames it under ReplayRecNonce.
func appendNonceBody(dst, nonce []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(nonce)))
	return append(dst, nonce...)
}

// decodeReplayBody parses one record body read back from the log and
// returns the nonce a nonce record carries (aliasing body); a well-formed
// record of the retired floor type decodes to nothing. The bytes come
// from disk, so every length is checked against the body and the store's
// bounds; anything else is ErrRecordMalformed.
func decodeReplayBody(typ byte, body []byte) ([]byte, error) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n > uint64(len(body)-w) {
		return nil, fmt.Errorf("%w: length prefix", ErrRecordMalformed)
	}
	field, rest := body[w:w+int(n)], body[w+int(n):]
	switch typ {
	case recRetiredFloor: // scope · epoch (4) · floor (8)
		if n > maxReplayScope || len(rest) != 12 {
			return nil, fmt.Errorf("%w: floor body", ErrRecordMalformed)
		}
		return nil, nil
	case ReplayRecNonce:
		if n > maxReplayNonce || len(rest) != 0 {
			return nil, fmt.Errorf("%w: nonce body", ErrRecordMalformed)
		}
		return field, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrRecordMalformed, typ)
	}
}

// ReplayOptions tunes a replay store; the zero value syncs every append
// and counts nothing.
type ReplayOptions struct {
	// noSync skips the fsync after each append. Every node syncs; the
	// package's tests turn it off.
	noSync bool
	// Stats, when set, counts the store's replay rejections (MarkNonce
	// hits) into a recorder.
	Stats *StatsRecorder
}

// ReplayStore is the bounded, optionally persistent set of envelope
// nonces one node has opened. All methods are safe for concurrent use.
// MarkNonce cannot return an error, so a record that could not be made
// durable latches in the log and surfaces on Close.
type ReplayStore struct {
	mu     sync.Mutex
	log    *recordlog.Log // nil = memory only
	rec    *StatsRecorder
	closed bool

	nonces map[string]struct{}
	order  []string // nonce FIFO
	buf    []byte   // record body scratch
}

// OpenReplayStore opens (or creates) the replay state under dir,
// replaying the existing log and truncating any torn tail. An empty dir
// yields a memory-only store with identical semantics minus persistence.
func OpenReplayStore(dir string, opts ReplayOptions) (*ReplayStore, error) {
	rs := &ReplayStore{
		rec:    opts.Stats,
		nonces: make(map[string]struct{}),
	}
	if dir == "" {
		return rs, nil
	}
	log, err := recordlog.Open(filepath.Join(dir, replayLogFile), maxReplayBody, opts.noSync, rs.applyRecord)
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
	nonce, err := decodeReplayBody(typ, body)
	if err != nil {
		return err
	}
	if typ == ReplayRecNonce {
		rs.markNonceLocked(string(nonce))
	}
	return nil
}

// markNonceLocked inserts a nonce, evicting FIFO past the bound; reports
// whether the nonce was fresh.
func (rs *ReplayStore) markNonceLocked(key string) bool {
	if _, seen := rs.nonces[key]; seen {
		return false
	}
	if len(rs.nonces) >= DefaultMaxNonces {
		delete(rs.nonces, rs.order[0])
		rs.order = rs.order[1:]
	}
	rs.nonces[key] = struct{}{}
	rs.order = append(rs.order, key)
	return true
}

// compactLocked rewrites the log to one record per remembered nonce,
// oldest first, so a reload rebuilds the same FIFO.
func (rs *ReplayStore) compactLocked() {
	_ = rs.log.Rewrite(func(put func(typ byte, body []byte)) error { // latched in the log
		for _, key := range rs.order {
			rs.buf = appendNonceBody(rs.buf[:0], []byte(key))
			put(ReplayRecNonce, rs.buf)
		}
		return nil
	})
}

// Len reports how many envelope nonces the store holds: what a daemon
// logs as resumed after opening it.
func (rs *ReplayStore) Len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.nonces)
}

// MarkNonce records an envelope nonce, returning true when it was fresh
// and false when it was already seen (a replay). Oversized nonces are
// truncated to the store bound before comparison. A fresh nonce is
// appended to the log, which is compacted when it outgrows its threshold.
func (rs *ReplayStore) MarkNonce(nonce []byte) bool {
	if len(nonce) > maxReplayNonce {
		nonce = nonce[:maxReplayNonce]
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return false
	}
	if !rs.markNonceLocked(string(nonce)) {
		bump(rs.rec, cReplayRejected)
		return false
	}
	if rs.log != nil {
		rs.buf = appendNonceBody(rs.buf[:0], nonce)
		if rs.log.Append(ReplayRecNonce, rs.buf) == nil && rs.log.Overgrown(replayCompactBytes) {
			rs.compactLocked()
		}
	}
	return true
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
