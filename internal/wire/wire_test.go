package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"sos/internal/id"
	"sos/internal/msg"
)

var (
	alice = id.NewUserID("alice")
	bob   = id.NewUserID("bob")
)

func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	buf, err := Encode(f)
	if err != nil {
		t.Fatalf("Encode(%T): %v", f, err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%T): %v", f, err)
	}
	return got
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{
		TypeAdvertisement: "advertisement",
		TypeHello:         "hello",
		TypeHelloAck:      "hello-ack",
		TypeHelloFin:      "hello-fin",
		TypeRequest:       "request",
		TypeBatch:         "batch",
		TypeBye:           "bye",
		TypeSummaryPull:   "summary-pull",
		TypePrekeyBundle:  "prekey-bundle",
		TypeSummary:       "summary",
		retiredType:       "type(7)",
		Type(200):         "type(200)",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestAdvertisementRoundTrip(t *testing.T) {
	give := &Advertisement{
		Peer:    "bobs-iphone",
		Gen:     40,
		Summary: map[id.UserID]uint64{alice: 12, bob: 3},
	}
	got := roundTrip(t, give)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

func TestAdvertisementEmptySummary(t *testing.T) {
	give := &Advertisement{Peer: "fresh-device", Summary: map[id.UserID]uint64{}}
	got := roundTrip(t, give).(*Advertisement)
	if got.Peer != give.Peer || len(got.Summary) != 0 {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

// authorsDict is an n-author summary dictionary.
func authorsDict(n int) map[id.UserID]uint64 {
	dict := make(map[id.UserID]uint64, n)
	for i := 0; i < n; i++ {
		dict[id.NewUserID(fmt.Sprintf("u%d", i))] = uint64(i + 1)
	}
	return dict
}

// assertDeterministic encodes f ten times and fails unless every
// encoding is the same.
func assertDeterministic(t *testing.T, f Frame) {
	t.Helper()
	first, err := Encode(f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := 0; i < 10; i++ {
		again, err := Encode(f)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("%s encoding is not deterministic", f.Type())
		}
	}
}

func TestAdvertisementDeterministicEncoding(t *testing.T) {
	assertDeterministic(t, &Advertisement{Peer: "p", Summary: authorsDict(5)})
}

func TestSummaryDeterministicEncoding(t *testing.T) {
	assertDeterministic(t, &Summary{Gen: 9, Entries: entriesOf(authorsDict(5)), SchemeData: []byte("x")})
}

// TestAdvertisementHintBound: the hint carries at most MaxHintEntries
// entries, and both codec ends refuse one more.
func TestAdvertisementHintBound(t *testing.T) {
	full := &Advertisement{Peer: "p", Gen: 1, Summary: authorsDict(MaxHintEntries)}
	raw := roundTrip(t, full)
	if got := raw.(*Advertisement); len(got.Summary) != MaxHintEntries {
		t.Errorf("a %d-entry hint decoded to %d entries", MaxHintEntries, len(got.Summary))
	}
	over := &Advertisement{Peer: "p", Gen: 1, Summary: authorsDict(MaxHintEntries + 1)}
	if _, err := Encode(over); !errors.Is(err, ErrOversize) {
		t.Errorf("encoding a %d-entry hint: %v, want ErrOversize", MaxHintEntries+1, err)
	}
	if _, err := Decode(oversizeHint()); !errors.Is(err, ErrOversize) {
		t.Errorf("decoding a %d-entry hint: %v, want ErrOversize", MaxHintEntries+1, err)
	}
}

// oversizeHint hand-builds a well-formed hint of MaxHintEntries+1
// entries, which Encode refuses to produce.
func oversizeHint() []byte {
	raw := []byte{byte(TypeAdvertisement), 1, 'p'}
	raw = binary.BigEndian.AppendUint64(raw, 1)
	raw, _ = appendEntries(raw, entriesOf(authorsDict(MaxHintEntries+1)))
	return raw
}

// entriesOf is dict in the order a Summary carries it.
func entriesOf(dict map[id.UserID]uint64) []Entry {
	entries := AppendEntries(nil, dict)
	SortEntries(entries)
	return entries
}

func TestSummaryRoundTrip(t *testing.T) {
	give := &Summary{Gen: 40, Entries: entriesOf(map[id.UserID]uint64{alice: 12, bob: 3}), SchemeData: []byte("gossip")}
	got := roundTrip(t, give).(*Summary)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
	if got.IsDelta() || got.isChunked() {
		t.Error("a single-frame full summary reads as a delta or a chunk")
	}
	// A summary big beyond any hint is what the in-session frame is for.
	big := &Summary{Gen: 41, Entries: entriesOf(authorsDict(4 * MaxHintEntries))}
	if got := roundTrip(t, big).(*Summary); len(got.Entries) != len(big.Entries) {
		t.Errorf("a %d-entry summary decoded to %d entries", len(big.Entries), len(got.Entries))
	}
}

// The delta and chunk tests below exercise the in-session Summary; they
// keep the names they had when one Advertisement frame did both jobs.

func TestAdvertisementDeltaRoundTrip(t *testing.T) {
	give := &Summary{
		Gen:     120,
		BaseGen: 117,
		Entries: []Entry{{alice, 12}},
	}
	got := roundTrip(t, give).(*Summary)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
	if !got.IsDelta() {
		t.Error("IsDelta() = false for a delta summary")
	}
}

func TestAdvertisementEmptyDeltaRoundTrip(t *testing.T) {
	// BaseGen == Gen is the empty delta: a pure scheme-gossip refresh.
	give := &Summary{Gen: 9, BaseGen: 9, SchemeData: []byte("x")}
	got := roundTrip(t, give).(*Summary)
	if got.Gen != 9 || got.BaseGen != 9 || len(got.Entries) != 0 || string(got.SchemeData) != "x" {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

// Offsets into an encoded Summary: type byte, gen, base, chunk, more flag.
const (
	sumGenAt   = 1
	sumBaseAt  = 9
	sumChunkAt = 17
	sumMoreAt  = 21
)

func TestAdvertisementRejectsBadDelta(t *testing.T) {
	// A base ahead of the generation is nonsense on both codec sides.
	bad := &Summary{Gen: 3, BaseGen: 7}
	if _, err := Encode(bad); !errors.Is(err, ErrBadDelta) {
		t.Errorf("encoding BaseGen > Gen: %v, want ErrBadDelta", err)
	}
	good, err := Encode(&Summary{Gen: 7, BaseGen: 3})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Swap the gen/base fields so the frame claims base 7 over gen 3.
	binary.BigEndian.PutUint64(good[sumGenAt:], 3)
	binary.BigEndian.PutUint64(good[sumBaseAt:], 7)
	if _, err := Decode(good); !errors.Is(err, ErrBadDelta) {
		t.Errorf("decoding BaseGen > Gen: %v, want ErrBadDelta", err)
	}
}

func TestAdvertisementChunkedRoundTrip(t *testing.T) {
	// A three-chunk full-summary stream: first chunk (Chunk 0, More),
	// middle chunk, and a final chunk that drops More.
	stream := []*Summary{
		{Gen: 40, More: true, Entries: []Entry{{alice, 12}}, SchemeData: []byte("gossip")},
		{Gen: 40, Chunk: 1, More: true, Entries: []Entry{{bob, 3}}},
		{Gen: 40, Chunk: 2},
	}
	for i, give := range stream {
		got := roundTrip(t, give).(*Summary)
		if !reflect.DeepEqual(got, give) {
			t.Errorf("chunk %d round trip = %+v, want %+v", i, got, give)
		}
	}
	if !stream[0].isChunked() || !stream[2].isChunked() {
		t.Error("isChunked() = false for stream members")
	}
	// The plain single-frame full summary is the zero value of both fields.
	if (&Summary{Gen: 40}).isChunked() {
		t.Error("isChunked() = true for a plain full summary")
	}
}

func TestAdvertisementRejectsChunkedDelta(t *testing.T) {
	// Chunking and deltas are mutually exclusive on both codec sides.
	for _, bad := range []*Summary{
		{Gen: 7, BaseGen: 3, More: true},
		{Gen: 7, BaseGen: 3, Chunk: 1},
	} {
		if _, err := Encode(bad); !errors.Is(err, ErrBadChunk) {
			t.Errorf("encoding chunked delta %+v: %v, want ErrBadChunk", bad, err)
		}
	}
	// Decode side: take a valid delta and stamp a chunk number into it.
	raw, err := Encode(&Summary{Gen: 7, BaseGen: 3, Entries: []Entry{{alice, 1}}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	binary.BigEndian.PutUint32(raw[sumChunkAt:], 1)
	if _, err := Decode(raw); !errors.Is(err, ErrBadChunk) {
		t.Errorf("decoding a chunked delta: %v, want ErrBadChunk", err)
	}
}

func TestAdvertisementRejectsNonCanonicalMore(t *testing.T) {
	raw, err := Encode(&Summary{Gen: 7, Entries: []Entry{{alice, 1}}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw[sumMoreAt] = 2 // more flag must be 0 or 1
	if _, err := Decode(raw); err == nil {
		t.Error("decode accepted a non-canonical more flag")
	}
}

// rawSummary hand-builds a full summary at generation 7 carrying entries
// exactly as given, in whatever order: what a broken or hostile encoder
// could put on the wire.
func rawSummary(entries []Entry) []byte {
	raw := []byte{byte(TypeSummary)}
	raw = binary.BigEndian.AppendUint64(raw, 7)
	raw = append(raw, make([]byte, 8+4+1)...) // base, chunk, more
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(entries)))
	for _, e := range entries {
		raw = binary.BigEndian.AppendUint64(append(raw, e.Author[:]...), e.Seq)
	}
	return appendBytes16(raw, nil)
}

// TestSummaryRefusesNonCanonicalEntries: entries in strictly ascending
// author order are the one form a Summary has, so both codec ends refuse
// any other, and an author named twice with them.
func TestSummaryRefusesNonCanonicalEntries(t *testing.T) {
	lo, hi := alice, bob
	if byAuthor(Entry{Author: lo}, Entry{Author: hi}) > 0 {
		lo, hi = hi, lo
	}
	for _, tc := range []struct {
		name    string
		entries []Entry
	}{
		{"out of order", []Entry{{hi, 1}, {lo, 2}}},
		{"duplicate author", []Entry{{lo, 1}, {lo, 2}}},
		{"duplicate after a sorted run", []Entry{{lo, 1}, {hi, 2}, {hi, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Encode(&Summary{Gen: 7, Entries: tc.entries}); !errors.Is(err, ErrUnsorted) {
				t.Errorf("Encode: %v, want ErrUnsorted", err)
			}
			if _, err := Decode(rawSummary(tc.entries)); !errors.Is(err, ErrUnsorted) {
				t.Errorf("Decode: %v, want ErrUnsorted", err)
			}
		})
	}
	if _, err := Decode(rawSummary([]Entry{{lo, 1}, {hi, 2}})); err != nil {
		t.Errorf("Decode of the sorted list: %v", err)
	}
}

// TestSummaryEntryCountPastBodyRefused: a count the frame's bytes cannot
// hold is refused before the entry slice is allocated, so a hostile claim
// costs the receiver nothing sized by the claim.
func TestSummaryEntryCountPastBodyRefused(t *testing.T) {
	raw := rawSummary([]Entry{{alice, 1}})
	countAt := sumMoreAt + 1
	binary.BigEndian.PutUint32(raw[countAt:], MaxSummaryEntries)
	if _, err := Decode(raw); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode: %v, want ErrTruncated", err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		_, _ = Decode(raw)
	}
	runtime.ReadMemStats(&after)
	// The claim would take MaxSummaryEntries × 24 B = 3 MiB; the frame
	// struct and the error are all that may be left.
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 512 {
		t.Errorf("refusing a %d-entry claim allocated %d B per decode, want at most 512", MaxSummaryEntries, perRun)
	}
}

func TestSummaryPullRoundTrip(t *testing.T) {
	got := roundTrip(t, &SummaryPull{})
	if _, ok := got.(*SummaryPull); !ok {
		t.Errorf("round trip = %T, want *SummaryPull", got)
	}
	if _, err := Decode([]byte{byte(TypeSummaryPull), 0}); err == nil {
		t.Error("summary-pull with trailing bytes accepted")
	}
}

func TestRequestRejectsEmptyWant(t *testing.T) {
	give := &Request{Wants: []Want{{Author: alice}}}
	if _, err := Encode(give); err == nil {
		t.Error("encode accepted a want with no seqs")
	}
	// Hand-build the rejected encoding: one want, zero seqs.
	buf := []byte{byte(TypeRequest), 0, 0, 0, 1}
	buf = append(buf, alice[:]...)
	buf = append(buf, 0, 0, 0, 0)
	if _, err := Decode(buf); err == nil {
		t.Error("decode accepted a want with no seqs")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	give := &Hello{CertDER: []byte("cert-bytes")}
	copy(give.Nonce[:], "0123456789abcdef")
	got := roundTrip(t, give)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	give := &HelloAck{CertDER: []byte("cert"), Sig: []byte("signature")}
	copy(give.Nonce[:], "fedcba9876543210")
	got := roundTrip(t, give)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

func TestHelloFinRoundTrip(t *testing.T) {
	give := &HelloFin{Sig: []byte("fin-signature")}
	got := roundTrip(t, give)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	give := &Request{Wants: []Want{
		{Author: alice, Seqs: []uint64{1, 2, 9}},
		{Author: bob, Seqs: []uint64{4}},
	}}
	got := roundTrip(t, give)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

func TestEmptyRequestRoundTrip(t *testing.T) {
	give := &Request{}
	got := roundTrip(t, give).(*Request)
	if len(got.Wants) != 0 {
		t.Errorf("round trip = %+v, want empty", got)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	m1 := &msg.Message{
		Author: alice, Seq: 1, Kind: msg.KindPost,
		Created: time.Unix(0, 1491472800000000000).UTC(),
		Payload: []byte("hello"), Sig: []byte("sig"), CertDER: []byte("cert"), Hops: 1,
	}
	m2 := &msg.Message{
		Author: bob, Seq: 2, Kind: msg.KindFollow,
		Created: time.Unix(0, 1491472900000000000).UTC(),
		Subject: alice, Sig: []byte("s2"),
	}
	give := &Batch{Msgs: []*msg.Message{m1, m2}}
	got := roundTrip(t, give)
	if !reflect.DeepEqual(got, give) {
		t.Errorf("round trip = %+v, want %+v", got, give)
	}
}

// retiredType is the type byte that acknowledged a Batch until the summary
// delta took over that job. It stays unassigned: a frame carrying it is
// undecodable, which inside a session is authenticated garbage.
const retiredType Type = 7

// retiredFrame is a well-formed frame of the retired type as old peers
// encoded it: a count and one (author, seq) reference.
func retiredFrame(author id.UserID, seq uint64) []byte {
	buf := []byte{byte(retiredType), 0, 0, 0, 1}
	buf = append(buf, author[:]...)
	return binary.BigEndian.AppendUint64(buf, seq)
}

// TestFrameTypeBytes pins the wire value of every frame type: retiring a
// frame must not renumber the ones after it.
func TestFrameTypeBytes(t *testing.T) {
	want := map[Type]uint8{
		TypeAdvertisement: 1,
		TypeHello:         2,
		TypeHelloAck:      3,
		TypeHelloFin:      4,
		TypeRequest:       5,
		TypeBatch:         6,
		TypeBye:           8,
		TypeSummaryPull:   9,
		TypePrekeyBundle:  10,
		TypeSummary:       11,
	}
	for typ, b := range want {
		if uint8(typ) != b {
			t.Errorf("%s = %d on the wire, want %d", typ, uint8(typ), b)
		}
	}
}

func TestRetiredTypeRejected(t *testing.T) {
	for _, give := range [][]byte{{byte(retiredType)}, retiredFrame(alice, 3)} {
		if f, err := Decode(give); !errors.Is(err, ErrBadType) {
			t.Errorf("Decode(% x) = %v, %v; want ErrBadType", give, f, err)
		}
	}
}

func TestByeRoundTrip(t *testing.T) {
	got := roundTrip(t, &Bye{})
	if _, ok := got.(*Bye); !ok {
		t.Errorf("round trip = %T, want *Bye", got)
	}
}

func TestDecodeRejects(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "unknown type", give: []byte{0xee}},
		{name: "zero type", give: []byte{0x00}},
		{name: "truncated hello", give: []byte{byte(TypeHello), 0, 0}},
		{name: "bye with trailing", give: []byte{byte(TypeBye), 1}},
		{name: "ad truncated summary", give: []byte{byte(TypeAdvertisement), 1, 'p', 0, 0, 0, 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.give); err == nil {
				t.Errorf("Decode(% x) succeeded, want error", tt.give)
			}
		})
	}
}

func TestDecodeOversizeClaims(t *testing.T) {
	// A request frame claiming 2^32-1 wants must be rejected before any
	// large allocation happens.
	buf := []byte{byte(TypeRequest), 0xff, 0xff, 0xff, 0xff}
	if _, err := Decode(buf); err == nil {
		t.Error("oversize want count accepted")
	}
	// A batch frame claiming an enormous message count likewise.
	buf = []byte{byte(TypeBatch), 0xff, 0xff, 0xff, 0xff}
	if _, err := Decode(buf); err == nil {
		t.Error("oversize batch count accepted")
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	longName := make([]byte, 300)
	if _, err := Encode(&Advertisement{Peer: string(longName)}); err == nil {
		t.Error("oversize peer name accepted")
	}
	if _, err := Encode(&Hello{CertDER: make([]byte, MaxCert+1)}); err == nil {
		t.Error("oversize certificate accepted")
	}
	big := &Batch{Msgs: make([]*msg.Message, MaxBatchMessages+1)}
	if _, err := Encode(big); err == nil {
		t.Error("oversize batch accepted")
	}
}

// TestDecodeNeverPanicsProperty fuzzes the decoder with random bytes; it
// must return an error or a frame, never panic.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(buf []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Decode(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRequestRoundTripProperty round-trips randomly shaped requests.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(seqsA, seqsB []uint64) bool {
		if len(seqsA) > MaxSeqsPerWant {
			seqsA = seqsA[:MaxSeqsPerWant]
		}
		if len(seqsB) > MaxSeqsPerWant {
			seqsB = seqsB[:MaxSeqsPerWant]
		}
		give := &Request{Wants: []Want{{Author: alice, Seqs: seqsA}, {Author: bob, Seqs: seqsB}}}
		buf, err := Encode(give)
		if len(seqsA) == 0 || len(seqsB) == 0 {
			// Wants that ask for nothing must be rejected at encode.
			return err != nil
		}
		if err != nil {
			return false
		}
		decoded, err := Decode(buf)
		if err != nil {
			return false
		}
		got, ok := decoded.(*Request)
		if !ok || len(got.Wants) != 2 {
			return false
		}
		return equalSeqs(got.Wants[0].Seqs, seqsA) && equalSeqs(got.Wants[1].Seqs, seqsB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func equalSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
