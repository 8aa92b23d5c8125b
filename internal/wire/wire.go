// Package wire defines the frames SOS peers exchange and their binary
// encoding: the plain-text discovery hint (Advertisement, paper §V-A), the
// certificate-exchange handshake that establishes an encrypted connection
// (Figs. 2b, 3a, 3b), and the in-session protocol the message manager
// drives: the authenticated Summary (type byte 11), requests and batches.
// The message manager "translates messages between the routing manager
// and ad hoc manager in a common format for both layers to interpret"
// (paper §III-C); this package is that common format.
//
// Encoding is append-oriented: AppendEncode writes a frame into a
// caller-supplied buffer so the contact hot path (advertise → request →
// batch, hundreds of frames per encounter) runs without per-frame
// allocations. Encode remains the convenience wrapper that allocates, and
// Buffer/GetBuffer provide a pool for callers that encode in a loop.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sos/internal/id"
	"sos/internal/msg"
)

// Type identifies a frame on the wire.
type Type uint8

// Frame types. Advertisements travel outside sessions in plain text; all
// other frames travel inside an established encrypted session.
const (
	TypeAdvertisement Type = iota + 1
	TypeHello
	TypeHelloAck
	TypeHelloFin
	TypeRequest
	TypeBatch
	_ // 7 is retired (it acknowledged a Batch) and stays unassigned
	TypeBye
	TypeSummaryPull
	TypePrekeyBundle
	TypeSummary
)

var typeNames = [...]string{
	TypeAdvertisement: "advertisement", TypeHello: "hello", TypeHelloAck: "hello-ack",
	TypeHelloFin: "hello-fin", TypeRequest: "request", TypeBatch: "batch", TypeBye: "bye",
	TypeSummaryPull: "summary-pull", TypePrekeyBundle: "prekey-bundle", TypeSummary: "summary",
}

// String names the frame type for logs.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Codec limits keep a single frame bounded. MaxSummaryEntries sizes the
// in-session Summary, whose frames ride streams bounded by MaxStreamFrame;
// MaxHintEntries sizes the discovery hint, which must fit one radio
// advertisement (netmedium.MaxBeaconAd) and which anyone in range can
// forge, so both codec ends refuse a longer one.
//
// MaxBatchMessages is also a protocol limit: the most sequence numbers one
// Request may total across its wants, so that one Batch answers it. A
// requester packs its Requests under it and a server refuses and scores
// one over it, so both sides must read the same constant.
const (
	MaxSummaryEntries = 1 << 17
	MaxHintEntries    = 32
	MaxWants          = 4096
	MaxSeqsPerWant    = 65535
	MaxBatchMessages  = 1024
	MaxCert           = 1 << 16
	MaxSchemeData     = 1 << 13
	NonceLen          = 16
	MaxPrekeyPub      = 256
	maxSig            = 1 << 12
	maxName           = 255
)

// Errors reported by the codec.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrOversize  = errors.New("wire: field exceeds limit")
	ErrBadType   = errors.New("wire: unknown frame type")
	ErrTrailing  = errors.New("wire: trailing bytes")
	ErrEmptyWant = errors.New("wire: request carries no sequence numbers")
	ErrBadDelta  = errors.New("wire: delta summary base not before generation")
	ErrBadChunk  = errors.New("wire: chunked summary cannot be a delta")
	ErrUnsorted  = errors.New("wire: summary entries not in strictly ascending author order")
)

// Frame is any decodable SOS frame.
type Frame interface {
	Type() Type
}

// Advertisement is the plain-text discovery hint (paper §V-A): the
// advertising peer's display name, its summary generation, and at most
// MaxHintEntries entries of its summary dictionary (author UserID →
// latest MessageNumber held) — the whole dictionary when it fits, else
// the most recently changed authors. It only tells a browsing peer
// whether a connection is worth making; it is unauthenticated, so
// nothing learned from it is trusted after that.
type Advertisement struct {
	Peer    string
	Gen     uint64
	Summary map[id.UserID]uint64
}

// Type implements Frame.
func (*Advertisement) Type() Type { return TypeAdvertisement }

// Entry is one summary entry: an author and the latest MessageNumber held.
type Entry struct {
	Author id.UserID
	Seq    uint64
}

// AppendEntries appends dict's entries to dst, in map order.
func AppendEntries(dst []Entry, dict map[id.UserID]uint64) []Entry {
	for author, seq := range dict {
		dst = append(dst, Entry{author, seq})
	}
	return dst
}

// SortEntries sorts entries by author, the order Summary.Entries holds.
// Authors are hashes, so it sorts in place by their leading bytes first,
// one bucket pass per byte, and compares only within buckets too small
// for a pass to pay: a full summary chunk sorts about four times faster
// than by comparison alone.
func SortEntries(entries []Entry) { sortFrom(entries, 0) }

// sortFrom sorts entries that agree on their authors' first b bytes.
func sortFrom(entries []Entry, b int) {
	if len(entries) <= 24 || b == id.UserIDLen {
		slices.SortFunc(entries, byAuthor)
		return
	}
	var count, next [256]int
	for i := range entries {
		count[entries[i].Author[b]]++
	}
	for v, start := 0, 0; v < 256; v++ {
		next[v], start = start, start+count[v]
	}
	// Swap each entry into its bucket (in place when it is there already)
	// until bucket v is full; it ends where v+1 starts.
	for v, end := 0, 0; v < 256; v++ {
		for end += count[v]; next[v] < end; {
			d := entries[next[v]].Author[b]
			entries[next[v]], entries[next[d]] = entries[next[d]], entries[next[v]]
			next[d]++
		}
	}
	for v, start := 0, 0; v < 256; v++ {
		sortFrom(entries[start:start+count[v]], b+1)
		start += count[v]
	}
}

func byAuthor(x, y Entry) int { return bytes.Compare(x.Author[:], y.Author[:]) }

// Summary is the authenticated in-session summary exchange: the sender's
// dictionary at generation Gen. It travels inside a session, whose link
// already knows the peer, so it names none. BaseGen selects the encoding:
//
//   - BaseGen == 0: Entries is the complete dictionary at Gen (a "full"
//     summary).
//   - BaseGen > 0: Entries is a delta — the authors whose entry changed
//     since generation BaseGen, at their current value (so it may carry
//     a change newer than Gen). BaseGen == Gen with no entries is the
//     empty delta, a heartbeat and scheme-gossip refresh.
//
// Entries are monotone high-water marks, so a receiver merges every
// delta into its cached view raise-only, whatever its base; only a full
// summary replaces the view. A base at or below the generation the view
// has reached is an overlap; a base above it is a gap, and the receiver
// asks for a full summary (SummaryPull).
//
// A large full summary is *chunked*: Chunk numbers the slice of the
// dictionary this frame carries and More says whether further slices
// follow at the same Gen (Chunk 0 without More is a single-frame full
// summary). The slices partition the dictionary and arrive in order on
// the session, so a receiver may plan after any prefix: chunk 0 replaces
// the view, the rest merge into it. The codec refuses a chunked delta,
// and a base past Gen, on both ends.
//
// Entries is in strictly ascending author order (SortEntries), its one
// form: both codec ends refuse any other, duplicate authors included.
//
// SchemeData is an opaque blob the active routing scheme may piggyback
// (PRoPHET gossips its delivery-predictability table this way).
type Summary struct {
	Gen        uint64
	BaseGen    uint64
	Chunk      uint32
	More       bool
	Entries    []Entry
	SchemeData []byte
}

// Type implements Frame.
func (*Summary) Type() Type { return TypeSummary }

// IsDelta reports whether the summary is a delta against an earlier
// generation rather than a complete dictionary.
func (s *Summary) IsDelta() bool { return s.BaseGen != 0 }

// isChunked reports whether the summary is one slice of a chunked
// full-summary stream rather than a complete dictionary in one frame.
func (s *Summary) isChunked() bool { return s.Chunk != 0 || s.More }

// check enforces the cross-field rules both codec ends apply.
func (s *Summary) check() error {
	if s.BaseGen > s.Gen {
		return fmt.Errorf("%w: base %d, generation %d", ErrBadDelta, s.BaseGen, s.Gen)
	}
	if s.isChunked() && s.IsDelta() {
		return fmt.Errorf("%w: chunk %d, base %d", ErrBadChunk, s.Chunk, s.BaseGen)
	}
	return nil
}

// Hello opens the connection handshake: the initiator's certificate plus a
// fresh nonce.
type Hello struct {
	CertDER []byte
	Nonce   [NonceLen]byte
}

// Type implements Frame.
func (*Hello) Type() Type { return TypeHello }

// HelloAck answers a Hello: the responder's certificate, its own nonce,
// and a signature over the handshake transcript proving the responder
// controls the certified key.
type HelloAck struct {
	CertDER []byte
	Nonce   [NonceLen]byte
	Sig     []byte
}

// Type implements Frame.
func (*HelloAck) Type() Type { return TypeHelloAck }

// HelloFin completes the handshake with the initiator's transcript
// signature. It is the first frame sent inside the encrypted session.
type HelloFin struct {
	Sig []byte
}

// Type implements Frame.
func (*HelloFin) Type() Type { return TypeHelloFin }

// Want asks for specific messages by one author. A Want must carry at
// least one sequence number; the codec rejects empty want lists on both
// encode and decode so a peer can never be made to plan against them.
type Want struct {
	Author id.UserID
	Seqs   []uint64
}

// Request lists every message the requester wants from the peer, built by
// comparing the peer's advertisement against the local store and the
// active routing scheme's interest predicate.
type Request struct {
	Wants []Want
}

// Type implements Frame.
func (*Request) Type() Type { return TypeRequest }

// Batch carries requested messages, each with the originator's certificate
// attached unless the receiver has it already (paper Fig. 3b; message.onRequest).
type Batch struct {
	Msgs []*msg.Message
}

// Type implements Frame.
func (*Batch) Type() Type { return TypeBatch }

// Bye announces a graceful disconnect.
type Bye struct{}

// Type implements Frame.
func (*Bye) Type() Type { return TypeBye }

// SummaryPull asks the peer to re-send a full (non-delta) Summary. A
// receiver sends it when a delta Summary arrives whose BaseGen is ahead
// of its cached view — a generation gap, e.g. after a lost frame, or
// after the receiver restarted while the sender kept its per-peer sync
// state.
type SummaryPull struct{}

// Type implements Frame.
func (*SummaryPull) Type() Type { return TypeSummaryPull }

// PrekeyBundle publishes the sender's current prekey material inside an
// established session (see internal/secure: signed prekey authenticated
// by the sender's identity key, plus an optional one-time prekey — ID 0
// means the one-time pool is exhausted). Peers cache it so they can seal
// forward-secret envelopes to the sender later, without a live
// handshake.
type PrekeyBundle struct {
	User       id.UserID
	SignedID   uint32
	SignedPub  []byte
	SignedSig  []byte
	OneTimeID  uint32
	OneTimePub []byte
}

// Type implements Frame.
func (*PrekeyBundle) Type() Type { return TypePrekeyBundle }

// Buffer is a pooled encode buffer. The contact hot path encodes and
// seals hundreds of frames per encounter; pooling the backing arrays
// keeps that path allocation-free in steady state.
type Buffer struct {
	B []byte
}

// maxPooledBuffer bounds what Free returns to the pool, so one giant
// batch does not pin megabytes forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 1024)} }}

// GetBuffer takes a buffer from the pool. Call Free when done.
func GetBuffer() *Buffer { return bufPool.Get().(*Buffer) }

// Free resets the buffer and returns it to the pool. The caller must not
// touch b.B afterwards.
func (b *Buffer) Free() {
	if cap(b.B) > maxPooledBuffer {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}

// entryPool recycles Summary entry slices as *[]Entry: Release puts back
// a pointer to the frame's own Entries field, which allocates nothing. It
// keeps no more than a maxPooledBuffer-byte frame carries, not 2^17.
var entryPool sync.Pool

const maxPooledEntries = maxPooledBuffer / (id.UserIDLen + 8)

// Release gives a decoded Summary's entries to the next Decode; nothing
// may read f afterwards. Other frames pool nothing.
func Release(f Frame) {
	if s, ok := f.(*Summary); ok && cap(s.Entries) > 0 && cap(s.Entries) <= maxPooledEntries {
		entryPool.Put(&s.Entries)
	}
}

// Encode serializes any frame as a type byte followed by its body into a
// fresh slice. Hot paths should prefer AppendEncode with a reused buffer.
func Encode(f Frame) ([]byte, error) {
	return AppendEncode(nil, f)
}

// AppendEncode appends the frame's encoding to dst and returns the
// extended slice. With a pre-grown dst it performs no allocations.
func AppendEncode(dst []byte, f Frame) ([]byte, error) {
	switch fr := f.(type) {
	case *Advertisement:
		return appendAdvertisement(dst, fr)
	case *Summary:
		return appendSummary(dst, fr)
	case *Hello:
		return appendHello(dst, fr)
	case *HelloAck:
		return appendHelloAck(dst, fr)
	case *HelloFin:
		if len(fr.Sig) > maxSig {
			return dst, fmt.Errorf("%w: signature %d bytes", ErrOversize, len(fr.Sig))
		}
		dst = append(dst, byte(TypeHelloFin))
		return appendBytes16(dst, fr.Sig), nil
	case *Request:
		return appendRequest(dst, fr)
	case *Batch:
		return appendBatch(dst, fr)
	case *Bye:
		return append(dst, byte(TypeBye)), nil
	case *SummaryPull:
		return append(dst, byte(TypeSummaryPull)), nil
	case *PrekeyBundle:
		return appendPrekeyBundle(dst, fr)
	default:
		return dst, fmt.Errorf("%w: %T", ErrBadType, f)
	}
}

// Decode parses a frame produced by Encode.
//
// Decode copies every variable-length field out of buf with one
// exception: the messages of a Batch alias buf (see msg.DecodeShared), so
// a caller that retains them past buf's lifetime must copy them first.
// The SOS stack keeps only the copy message.Manager makes of each
// verified message (msg.Message.Retain), so the alias never escapes a
// frame callback. A Summary's entries fill a slice Release gave back.
func Decode(buf []byte) (Frame, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrTruncated)
	}
	typ, body := Type(buf[0]), buf[1:]
	switch typ {
	case TypeAdvertisement:
		return decodeAdvertisement(body)
	case TypeHello:
		return decodeHello(body)
	case TypeHelloAck:
		return decodeHelloAck(body)
	case TypeHelloFin:
		r := &reader{buf: body}
		return finish(&HelloFin{Sig: r.bytes16(maxSig)}, r)
	case TypeRequest:
		return decodeRequest(body)
	case TypeBatch:
		return decodeBatch(body)
	case TypeBye:
		return finish(&Bye{}, &reader{buf: body})
	case TypeSummaryPull:
		return finish(&SummaryPull{}, &reader{buf: body})
	case TypePrekeyBundle:
		return decodePrekeyBundle(body)
	case TypeSummary:
		return decodeSummary(body)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
}

func appendAdvertisement(dst []byte, a *Advertisement) ([]byte, error) {
	if len(a.Peer) > maxName {
		return dst, fmt.Errorf("%w: peer name %d bytes", ErrOversize, len(a.Peer))
	}
	if len(a.Summary) > MaxHintEntries {
		return dst, fmt.Errorf("%w: %d hint entries", ErrOversize, len(a.Summary))
	}
	var scratch [MaxHintEntries]Entry // the hint's entries, sorted on the stack
	entries := AppendEntries(scratch[:0], a.Summary)
	SortEntries(entries)
	dst = append(dst, byte(TypeAdvertisement), byte(len(a.Peer)))
	dst = append(dst, a.Peer...)
	return appendEntries(binary.BigEndian.AppendUint64(dst, a.Gen), entries)
}

func decodeAdvertisement(body []byte) (Frame, error) {
	r := &reader{buf: body}
	name := r.raw(int(r.byte()))
	a := &Advertisement{Peer: string(name), Gen: r.uint64()}
	var scratch [MaxHintEntries]Entry
	if entries := r.entries(scratch[:0], MaxHintEntries); r.err == nil {
		a.Summary = make(map[id.UserID]uint64, len(entries))
		for _, e := range entries {
			a.Summary[e.Author] = e.Seq
		}
	}
	return finish(a, r)
}

func appendSummary(dst []byte, s *Summary) ([]byte, error) {
	if len(s.Entries) > MaxSummaryEntries {
		return dst, fmt.Errorf("%w: %d summary entries", ErrOversize, len(s.Entries))
	}
	if len(s.SchemeData) > MaxSchemeData {
		return dst, fmt.Errorf("%w: %d scheme-data bytes", ErrOversize, len(s.SchemeData))
	}
	if err := s.check(); err != nil {
		return dst, err
	}
	dst = append(dst, byte(TypeSummary))
	dst = binary.BigEndian.AppendUint64(dst, s.Gen)
	dst = binary.BigEndian.AppendUint64(dst, s.BaseGen)
	dst = binary.BigEndian.AppendUint32(dst, s.Chunk)
	more := byte(0)
	if s.More {
		more = 1
	}
	dst, err := appendEntries(append(dst, more), s.Entries)
	if err != nil {
		return dst, err
	}
	return appendBytes16(dst, s.SchemeData), nil
}

func decodeSummary(body []byte) (Frame, error) {
	r := &reader{buf: body}
	s := &Summary{Gen: r.uint64(), BaseGen: r.uint64(), Chunk: r.uint32()}
	more := r.byte()
	if r.err == nil {
		if more > 1 {
			// Only 0 and 1 are canonical; anything else would break the
			// Encode ∘ Decode identity the fuzzer enforces.
			return nil, fmt.Errorf("%w: more flag %d", ErrOversize, more)
		}
		s.More = more == 1
		if err := s.check(); err != nil {
			return nil, err
		}
	}
	var dst []Entry
	pooled, _ := entryPool.Get().(*[]Entry)
	if pooled != nil {
		dst = (*pooled)[:0]
	}
	if s.Entries = r.entries(dst, MaxSummaryEntries); len(s.Entries) == 0 && pooled != nil {
		s.Entries = nil // as an empty list always decoded; the slice stays pooled
		entryPool.Put(pooled)
	}
	s.SchemeData = r.bytes16(MaxSchemeData)
	return finish(s, r)
}

// appendEntries appends an entry list as both summary frames carry it, a
// count then (author, seq) pairs, refusing any but ascending authors.
func appendEntries(dst []byte, entries []Entry) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for i, e := range entries {
		if i > 0 && byAuthor(entries[i-1], e) >= 0 {
			return dst, fmt.Errorf("%w: entry %d", ErrUnsorted, i)
		}
		dst = append(dst, e.Author[:]...)
		dst = binary.BigEndian.AppendUint64(dst, e.Seq)
	}
	return dst, nil
}

func appendHello(dst []byte, h *Hello) ([]byte, error) {
	if len(h.CertDER) > MaxCert {
		return dst, fmt.Errorf("%w: certificate %d bytes", ErrOversize, len(h.CertDER))
	}
	dst = append(dst, byte(TypeHello))
	dst = appendBytes32(dst, h.CertDER)
	return append(dst, h.Nonce[:]...), nil
}

func decodeHello(body []byte) (Frame, error) {
	r := &reader{buf: body}
	h := &Hello{CertDER: r.bytes32(MaxCert)}
	r.array(h.Nonce[:])
	return finish(h, r)
}

func appendHelloAck(dst []byte, h *HelloAck) ([]byte, error) {
	if len(h.CertDER) > MaxCert {
		return dst, fmt.Errorf("%w: certificate %d bytes", ErrOversize, len(h.CertDER))
	}
	if len(h.Sig) > maxSig {
		return dst, fmt.Errorf("%w: signature %d bytes", ErrOversize, len(h.Sig))
	}
	dst = append(dst, byte(TypeHelloAck))
	dst = appendBytes32(dst, h.CertDER)
	dst = append(dst, h.Nonce[:]...)
	return appendBytes16(dst, h.Sig), nil
}

func decodeHelloAck(body []byte) (Frame, error) {
	r := &reader{buf: body}
	h := &HelloAck{CertDER: r.bytes32(MaxCert)}
	r.array(h.Nonce[:])
	h.Sig = r.bytes16(maxSig)
	return finish(h, r)
}

func appendRequest(dst []byte, q *Request) ([]byte, error) {
	if len(q.Wants) > MaxWants {
		return dst, fmt.Errorf("%w: %d wants", ErrOversize, len(q.Wants))
	}
	dst = append(dst, byte(TypeRequest))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(q.Wants)))
	for _, w := range q.Wants {
		if len(w.Seqs) == 0 {
			return dst, fmt.Errorf("%w: want for %s", ErrEmptyWant, w.Author)
		}
		if len(w.Seqs) > MaxSeqsPerWant {
			return dst, fmt.Errorf("%w: %d seqs for %s", ErrOversize, len(w.Seqs), w.Author)
		}
		dst = append(dst, w.Author[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(w.Seqs)))
		for _, seq := range w.Seqs {
			dst = binary.BigEndian.AppendUint64(dst, seq)
		}
	}
	return dst, nil
}

func decodeRequest(body []byte) (Frame, error) {
	r := &reader{buf: body}
	n := int(r.uint32())
	if r.err == nil && n > MaxWants {
		return nil, fmt.Errorf("%w: %d wants", ErrOversize, n)
	}
	q := &Request{Wants: make([]Want, 0, boundedCap(n))}
	for i := 0; i < n && r.err == nil; i++ {
		var w Want
		r.userID(&w.Author)
		seqCount := int(r.uint32())
		if r.err == nil && seqCount > MaxSeqsPerWant {
			return nil, fmt.Errorf("%w: %d seqs", ErrOversize, seqCount)
		}
		// Reject empty want lists before planning ever sees them; a want
		// that asks for nothing is either a broken or hostile encoder.
		if r.err == nil && seqCount == 0 {
			return nil, fmt.Errorf("%w: want %d for %s", ErrEmptyWant, i, w.Author)
		}
		w.Seqs = make([]uint64, 0, boundedCap(seqCount))
		for j := 0; j < seqCount && r.err == nil; j++ {
			w.Seqs = append(w.Seqs, r.uint64())
		}
		q.Wants = append(q.Wants, w)
	}
	return finish(q, r)
}

func appendBatch(dst []byte, b *Batch) ([]byte, error) {
	if len(b.Msgs) > MaxBatchMessages {
		return dst, fmt.Errorf("%w: %d messages in batch", ErrOversize, len(b.Msgs))
	}
	dst = append(dst, byte(TypeBatch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Msgs)))
	for _, m := range b.Msgs {
		// Reserve the length prefix, append the message in place, then
		// backfill — no per-message intermediate buffer.
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		var err error
		dst, err = m.AppendEncode(dst)
		if err != nil {
			return dst, fmt.Errorf("wire: encoding batch message: %w", err)
		}
		binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst, nil
}

func decodeBatch(body []byte) (Frame, error) {
	r := &reader{buf: body}
	n := int(r.uint32())
	if r.err == nil && n > MaxBatchMessages {
		return nil, fmt.Errorf("%w: %d messages in batch", ErrOversize, n)
	}
	b := &Batch{Msgs: make([]*msg.Message, 0, boundedCap(n))}
	for i := 0; i < n && r.err == nil; i++ {
		size := int(r.uint32())
		raw := r.raw(size)
		if r.err != nil {
			break
		}
		// DecodeShared: the message fields alias the frame buffer (see the
		// Decode doc comment); the receiver copies what it keeps.
		m, err := msg.DecodeShared(raw)
		if err != nil {
			return nil, fmt.Errorf("wire: decoding batch message %d: %w", i, err)
		}
		b.Msgs = append(b.Msgs, m)
	}
	return finish(b, r)
}

func appendPrekeyBundle(dst []byte, b *PrekeyBundle) ([]byte, error) {
	if len(b.SignedPub) > MaxPrekeyPub || len(b.OneTimePub) > MaxPrekeyPub {
		return dst, fmt.Errorf("%w: prekey points %d/%d bytes", ErrOversize, len(b.SignedPub), len(b.OneTimePub))
	}
	if len(b.SignedSig) > maxSig {
		return dst, fmt.Errorf("%w: prekey signature %d bytes", ErrOversize, len(b.SignedSig))
	}
	dst = append(dst, byte(TypePrekeyBundle))
	dst = append(dst, b.User[:]...)
	dst = binary.BigEndian.AppendUint32(dst, b.SignedID)
	dst = appendBytes16(dst, b.SignedPub)
	dst = appendBytes16(dst, b.SignedSig)
	dst = binary.BigEndian.AppendUint32(dst, b.OneTimeID)
	return appendBytes16(dst, b.OneTimePub), nil
}

func decodePrekeyBundle(body []byte) (Frame, error) {
	r := &reader{buf: body}
	b := &PrekeyBundle{}
	r.userID(&b.User)
	b.SignedID = r.uint32()
	b.SignedPub = r.bytes16(MaxPrekeyPub)
	b.SignedSig = r.bytes16(maxSig)
	b.OneTimeID = r.uint32()
	b.OneTimePub = r.bytes16(MaxPrekeyPub)
	return finish(b, r)
}

// finish returns f if the reader consumed its buffer exactly.
func finish[F Frame](f F, r *reader) (Frame, error) {
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf))
	}
	return f, nil
}

// boundedCap caps pre-allocation driven by attacker-supplied element
// counts: collections grow on demand past it, so a hostile count claim
// costs the attacker frame bytes, not our memory. Entry lists, of fixed
// width, are checked against the bytes left instead (reader.entries).
func boundedCap(n int) int {
	return min(n, 64)
}

// appendBytes16 appends a 2-byte length prefix plus the bytes.
func appendBytes16(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// appendBytes32 appends a 4-byte length prefix plus the bytes.
func appendBytes32(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// reader is a cursor with sticky errors over a frame body.
type reader struct {
	buf []byte
	err error
}

func (r *reader) raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf) < n {
		r.err = fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, len(r.buf))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) array(dst []byte) {
	if b := r.raw(len(dst)); b != nil {
		copy(dst, b)
	}
}

func (r *reader) userID(dst *id.UserID) {
	r.array(dst[:])
}

func (r *reader) byte() byte {
	if b := r.raw(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) uint32() uint32 {
	if b := r.raw(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) uint64() uint64 {
	if b := r.raw(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *reader) bytes16(limit int) []byte {
	n := 0
	if b := r.raw(2); b != nil {
		n = int(binary.BigEndian.Uint16(b))
	}
	return r.sized(n, limit)
}

func (r *reader) bytes32(limit int) []byte { return r.sized(int(r.uint32()), limit) }

// entries appends an entry list to dst, refusing a count over limit or
// past the bytes left before dst grows, and an author out of order.
func (r *reader) entries(dst []Entry, limit int) []Entry {
	n := int(r.uint32())
	switch {
	case r.err != nil:
		return nil
	case n > limit:
		r.err = fmt.Errorf("%w: %d summary entries (limit %d)", ErrOversize, n, limit)
	case n*(id.UserIDLen+8) > len(r.buf):
		r.err = fmt.Errorf("%w: %d summary entries in %d bytes", ErrTruncated, n, len(r.buf))
	case cap(dst)-len(dst) < n:
		dst = append(make([]Entry, 0, len(dst)+n), dst...)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var e Entry
		r.userID(&e.Author)
		if e.Seq = r.uint64(); i > 0 && byAuthor(dst[len(dst)-1], e) >= 0 {
			r.err = fmt.Errorf("%w: entry %d", ErrUnsorted, i)
		}
		dst = append(dst, e)
	}
	return dst
}

// sized reads an n-byte field, copying it out so decoded frames (other
// than Batch messages) never alias the input buffer.
func (r *reader) sized(n, limit int) []byte {
	if r.err != nil {
		return nil
	}
	if n > limit {
		r.err = fmt.Errorf("%w: length %d (limit %d)", ErrOversize, n, limit)
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.raw(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
