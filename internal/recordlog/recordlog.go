// Package recordlog is the one crash-safe record log under both durable
// stores: the disk engine's store.log (internal/store) and the replay
// store's replay.log (internal/secure). A log is a single append-only
// file of framed records,
//
//	type (1 byte) · uvarint body length · body · CRC-32 (IEEE, big-endian)
//
// with the checksum over everything before it. Open replays the file and
// truncates it after the last intact record, so a crash mid-append costs
// that record and nothing else; Append makes one record durable; Rewrite
// replaces the whole file atomically, which is how callers compact. The
// package owns the frame and the file discipline and nothing more: what a
// body means, and what the live state is when compacting, stay with the
// caller. A Log is not safe for concurrent use; callers serialize.
package recordlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Errors reported by the log.
var (
	// ErrCorrupt marks a frame that is torn, oversized, or fails its
	// checksum.
	ErrCorrupt = errors.New("recordlog: corrupt record")
	// ErrClosed is returned by writes to a closed log.
	ErrClosed = errors.New("recordlog: log closed")
)

// appendFrame appends one framed record to dst.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ReadFrame reads one framed record, returning its type, body, and
// encoded size. io.EOF means a clean end at a record boundary; a frame
// that is truncated, claims a body over maxBody, or fails its checksum is
// ErrCorrupt. The checksum covers the header bytes exactly as read.
func ReadFrame(br *bufio.Reader, maxBody uint64) (typ byte, body []byte, n int64, err error) {
	var hdr [1 + binary.MaxVarintLen64]byte
	if hdr[0], err = br.ReadByte(); err != nil {
		return 0, nil, 0, err
	}
	h := 1
	for more := true; more; h++ {
		if h == len(hdr) {
			return 0, nil, 0, fmt.Errorf("%w: length overflows", ErrCorrupt)
		}
		if hdr[h], err = br.ReadByte(); err != nil {
			return 0, nil, 0, fmt.Errorf("%w: length: %v", ErrCorrupt, err)
		}
		more = hdr[h] >= 0x80
	}
	size, k := binary.Uvarint(hdr[1:h])
	if k != h-1 || size > maxBody {
		return 0, nil, 0, fmt.Errorf("%w: body of %d bytes", ErrCorrupt, size)
	}
	body = make([]byte, size)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: body: %v", ErrCorrupt, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: checksum: %v", ErrCorrupt, err)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:h]), crc32.IEEETable, body)
	if crc != binary.BigEndian.Uint32(sum[:]) {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return hdr[0], body, int64(h) + int64(size) + 4, nil
}

// Log is one open record log.
type Log struct {
	path   string
	f      *os.File // nil once closed
	size   int64
	live   int64 // size the last Rewrite left; 0 before the first
	noSync bool
	// err latches the first durability failure. Callers' write paths
	// often cannot return errors (a subscription, an eviction hook, a
	// committed sequence), so the log refuses every later write and
	// reports the failure again from Close instead of pretending it is
	// still durable.
	err error
	buf []byte // frame scratch
}

// Open opens (or creates) the log at path and hands every intact record,
// in order, to apply. The replay stops at the first frame that is torn or
// corrupt, or whose body apply refuses, and the file is truncated there:
// what a crash left half-written must not poison later appends. Bodies
// over maxBody are corruption, not data. With noSync, Append skips its
// fsync (tests, lab fleets).
func Open(path string, maxBody uint64, noSync bool, apply func(typ byte, body []byte) error) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return nil, fmt.Errorf("recordlog: creating %s: %w", filepath.Dir(path), err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("recordlog: opening log: %w", err)
	}
	br := bufio.NewReader(f)
	var good int64
	for {
		typ, body, n, err := ReadFrame(br, maxBody)
		if err != nil || apply(typ, body) != nil {
			break
		}
		good += n
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("recordlog: truncating torn tail of %s: %w", path, err)
	}
	return &Log{path: path, f: f, size: good, noSync: noSync}, nil
}

// Size returns the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Overgrown reports whether the log is due a Rewrite: it has reached
// threshold, and twice what the last Rewrite left. The second condition
// keeps compaction amortized once the live state alone passes the
// threshold — without it every append would rewrite the whole file.
func (l *Log) Overgrown(threshold int64) bool {
	return l.size >= max(threshold, 2*l.live)
}

// Append frames one record, writes it, and fsyncs unless the log was
// opened with noSync.
func (l *Log) Append(typ byte, body []byte) error {
	if err := l.refusal(); err != nil {
		return err
	}
	l.buf = appendFrame(l.buf[:0], typ, body)
	_, err := l.f.Write(l.buf)
	if err == nil && !l.noSync {
		err = l.f.Sync()
	}
	if err != nil {
		return l.latch(fmt.Errorf("recordlog: appending to %s: %w", l.path, err))
	}
	l.size += int64(len(l.buf))
	return nil
}

// Rewrite atomically replaces the log with the records emit puts: they go
// to a temp file beside the log, which is fsynced (whatever the append
// policy), renamed over the log, and made durable by an fsync of the
// directory. A crash at any point leaves the old log or the new one,
// whole; an error from emit abandons the rewrite with the old log in
// place. Any failure latches like a failed append.
func (l *Log) Rewrite(emit func(put func(typ byte, body []byte)) error) error {
	if err := l.refusal(); err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o600)
	if err != nil {
		return l.latch(fmt.Errorf("recordlog: rewriting %s: %w", l.path, err))
	}
	bw := bufio.NewWriter(f)
	var size int64
	err = emit(func(typ byte, body []byte) {
		l.buf = appendFrame(l.buf[:0], typ, body)
		_, _ = bw.Write(l.buf) // a bufio.Writer's error is sticky: Flush reports it
		size += int64(len(l.buf))
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return l.latch(fmt.Errorf("recordlog: rewriting %s: %w", l.path, err))
	}
	// The renamed file is the log now, and f is already open on it.
	l.f.Close()
	l.f, l.size, l.live = f, size, size
	dir, err := os.Open(filepath.Dir(l.path))
	if err == nil {
		err = errors.Join(dir.Sync(), dir.Close())
	}
	if err != nil {
		return l.latch(fmt.Errorf("recordlog: syncing directory of %s: %w", l.path, err))
	}
	return nil
}

// Close syncs and closes the log and reports the latched failure, if
// any; calling it again reports the same.
func (l *Log) Close() error {
	if l.f != nil {
		if err := errors.Join(l.f.Sync(), l.f.Close()); err != nil {
			l.latch(fmt.Errorf("recordlog: closing %s: %w", l.path, err))
		}
		l.f = nil
	}
	return l.err
}

// refusal is why the log takes no more writes, if it does not: it is
// closed, or an earlier write failed.
func (l *Log) refusal() error {
	if l.f == nil {
		return ErrClosed
	}
	return l.err
}

// latch records the first durability failure and returns err.
func (l *Log) latch(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}
