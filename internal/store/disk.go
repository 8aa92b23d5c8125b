// The disk-backed storage engine: the paper's "local database on the
// mobile device" made durable. State lives in one file, store.log, a
// record log (internal/recordlog) with one record per mutation. On open
// the engine replays the log, which truncates any torn tail left by a
// crash, so a daemon killed mid-write resumes with every acknowledged
// message intact. When the log outgrows its threshold the engine compacts
// it: the log is rewritten, atomically, to the records of the live state
// alone.

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/obs/span"
	"sos/internal/recordlog"
)

const (
	logFile = "store.log"

	defaultCompactBytes = 1 << 20

	// maxEncodedMessage bounds one record body; anything larger is
	// corruption, not data.
	maxEncodedMessage = msg.MaxPayload * 2
)

// Record types in the log.
const (
	recPut   byte = 1 // body: encoded message
	recSub   byte = 2 // body: 10-byte user id
	recUnsub byte = 3 // body: 10-byte user id
	recEvict byte = 4 // body: 10-byte author + uvarint seq
)

// ErrCorrupt marks a log record whose body does not decode.
var ErrCorrupt = errors.New("store: corrupt record")

// Disk is the durable storage engine. It embeds the in-memory Store as
// its index — every read goes straight to memory — and shadows each
// mutation with a log record. Subscribe, Unsubscribe, and eviction hooks
// cannot return errors, so a record of theirs that could not be made
// durable latches in the log and is reported by the next Put and by
// Close — the engine refuses to pretend it is still durable.
type Disk struct {
	*Store
	dir          string
	compactBytes int64
	tracer       *span.Tracer
	track        uint64

	logMu sync.Mutex
	log   *recordlog.Log
}

var _ Engine = (*Disk)(nil)

// OpenDisk opens (or creates) the durable store in dir for owner,
// replaying any existing log. Quota enforcement starts only after replay,
// so restart never re-litigates historical evictions; if the configured
// quota is tighter than the restored state, the overflow is evicted (and
// logged) immediately, oldest arrival first.
func OpenDisk(dir string, owner id.UserID, opts Options) (*Disk, error) {
	// Before the log was compacted in place, compaction moved the state
	// into a second file; loading the log alone would silently drop it.
	snap := filepath.Join(dir, "store.snap")
	if _, err := os.Stat(snap); err == nil {
		return nil, fmt.Errorf("store: %s is a snapshot from an older on-disk format, which this version does not read", snap)
	}
	maxMessages, maxBytes := opts.MaxMessages, opts.MaxBytes
	opts.MaxMessages, opts.MaxBytes = 0, 0
	mem := NewMemory(owner, opts)

	log, err := recordlog.Open(filepath.Join(dir, logFile), maxEncodedMessage, opts.NoSync, mem.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		Store:        mem,
		dir:          dir,
		compactBytes: opts.CompactBytes,
		tracer:       opts.Tracer,
		log:          log,
	}
	if d.compactBytes <= 0 {
		d.compactBytes = defaultCompactBytes
	}
	if d.tracer != nil {
		d.track = d.tracer.Track("store")
	}

	// From here on, evictions must reach the log before anything else
	// observes them.
	mem.OnEvict(d.logEviction)
	for _, ev := range mem.setQuota(maxMessages, maxBytes) {
		d.logEviction(ev)
	}
	return d, nil
}

// Dir returns the engine's storage directory.
func (d *Disk) Dir() string { return d.dir }

// Put inserts a message and makes it durable; see Engine.Put. Quota
// evictions triggered by the insert are logged (via the eviction hook)
// before the insert's own record.
func (d *Disk) Put(m *msg.Message) (bool, error) {
	added, err := d.Store.Put(m)
	if err != nil || !added {
		return added, err
	}
	// If the insert itself was immediately evicted by quota, its eviction
	// record is already in the log ahead of us; replay tombstones the ref
	// first and rejects this put record as a duplicate, which reproduces
	// the in-memory outcome exactly.
	buf, err := m.Encode()
	if err != nil {
		return true, fmt.Errorf("store: encoding %s for log: %w", m.Ref(), err)
	}
	if err := d.append(recPut, buf); err != nil {
		return true, fmt.Errorf("store: logging %s: %w", m.Ref(), err)
	}
	return true, nil
}

// Subscribe records interest durably.
func (d *Disk) Subscribe(user id.UserID) {
	d.Store.Subscribe(user)
	_ = d.append(recSub, user[:]) // latched in the log; see Disk
}

// Unsubscribe removes interest durably.
func (d *Disk) Unsubscribe(user id.UserID) {
	d.Store.Unsubscribe(user)
	_ = d.append(recUnsub, user[:]) // latched in the log; see Disk
}

// Close flushes and closes the log; reads stay valid, writes fail. Any
// earlier silent durability failure (a Subscribe or eviction record that
// could not be appended) is reported here.
func (d *Disk) Close() error {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.Close()
}

// logEviction is the hook that shadows in-memory drops in the log.
func (d *Disk) logEviction(ev Eviction) {
	_ = d.append(recEvict, evictBody(ev.Ref)) // latched in the log; see Disk
}

func evictBody(ref msg.Ref) []byte {
	body := make([]byte, 0, len(ref.Author)+binary.MaxVarintLen64)
	body = append(body, ref.Author[:]...)
	return binary.AppendUvarint(body, ref.Seq)
}

// append makes one record durable and compacts when the log outgrows its
// threshold.
func (d *Disk) append(typ byte, body []byte) error {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if err := d.log.Append(typ, body); err != nil {
		return err
	}
	if !d.log.Overgrown(d.compactBytes) {
		return nil
	}
	return d.compactLocked()
}

// compactLocked rewrites the log to the live state: one put per held
// message in arrival order — the order drop-oldest evicts in, so a reload
// under a tighter quota drops what the running engine would have — then
// the subscriptions and the tombstones. Records appended while the state
// was being captured land after the rewrite and replay idempotently.
func (d *Disk) compactLocked() error {
	sp := d.tracer.Start(d.track, "store.compact")
	sp.Attr("logBytes", uint64(d.log.Size()))
	defer sp.End()
	msgs, subs, tombs := d.Store.live()
	sp.Attr("records", uint64(len(msgs)+len(subs)+len(tombs)))
	return d.log.Rewrite(func(put func(typ byte, body []byte)) error {
		for _, m := range msgs {
			buf, err := m.Encode()
			if err != nil {
				return fmt.Errorf("store: encoding %s for log: %w", m.Ref(), err)
			}
			put(recPut, buf)
		}
		for _, u := range subs {
			put(recSub, u[:])
		}
		for _, ref := range tombs {
			put(recEvict, evictBody(ref))
		}
		return nil
	})
}

// applyRecord replays one log record into the index.
func (s *Store) applyRecord(typ byte, body []byte) error {
	switch typ {
	case recPut:
		m, err := msg.Decode(body)
		if err != nil {
			return err
		}
		_, err = s.Put(m)
		return err
	case recSub, recUnsub:
		var u id.UserID
		if len(body) != len(u) {
			return fmt.Errorf("%w: subscription record length %d", ErrCorrupt, len(body))
		}
		copy(u[:], body)
		if typ == recSub {
			s.Subscribe(u)
		} else {
			s.Unsubscribe(u)
		}
		return nil
	case recEvict:
		var author id.UserID
		if len(body) < len(author)+1 {
			return fmt.Errorf("%w: eviction record length %d", ErrCorrupt, len(body))
		}
		copy(author[:], body)
		seq, n := binary.Uvarint(body[len(author):])
		if n <= 0 || len(author)+n != len(body) {
			return fmt.Errorf("%w: eviction record seq", ErrCorrupt)
		}
		s.applyEvict(msg.Ref{Author: author, Seq: seq})
		return nil
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
	}
}
