package secure

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sos/internal/recordlog"
)

// appendFrame appends one record in the recordlog frame: type, uvarint
// body length, body, CRC-32 (IEEE, big-endian) over all of it.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// nonceFrame appends the log record MarkNonce writes for nonce.
func nonceFrame(dst []byte, nonce string) []byte {
	return appendFrame(dst, ReplayRecNonce, appendNonceBody(nil, []byte(nonce)))
}

// floorBody is the body of the retired floor record as earlier commits
// wrote it: scope, epoch, sequence horizon.
func floorBody(scope string, epoch uint32, floor uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(scope)))
	b = append(b, scope...)
	b = binary.BigEndian.AppendUint32(b, epoch)
	return binary.BigEndian.AppendUint64(b, floor)
}

// readRecord is the log's read path: one frame, then its body.
func readRecord(br *bufio.Reader) (typ byte, nonce []byte, n int64, err error) {
	typ, body, n, err := recordlog.ReadFrame(br, maxReplayBody)
	if err != nil {
		return typ, nil, n, err
	}
	nonce, err = decodeReplayBody(typ, body)
	return typ, nonce, n, err
}

func openStore(t *testing.T, dir string, opts ReplayOptions) *ReplayStore {
	t.Helper()
	opts.noSync = true
	rs, err := OpenReplayStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenReplayStore(%q): %v", dir, err)
	}
	return rs
}

func TestReplayRecordRoundTrip(t *testing.T) {
	nonces := []string{"nonce-bytes", ""}
	var buf []byte
	for _, n := range nonces {
		buf = nonceFrame(buf, n)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var total int64
	for i, want := range nonces {
		typ, got, n, err := readRecord(br)
		if err != nil {
			t.Fatalf("readRecord(%d): %v", i, err)
		}
		total += n
		if typ != ReplayRecNonce || string(got) != want {
			t.Fatalf("record %d = type %d nonce %x, want type %d nonce %x", i, typ, got, ReplayRecNonce, want)
		}
	}
	if total != int64(len(buf)) {
		t.Fatalf("consumed %d of %d bytes", total, len(buf))
	}
	if _, _, _, err := readRecord(br); err == nil {
		t.Fatal("decode past the end succeeded")
	}
}

func TestReplayRecordMalformed(t *testing.T) {
	good := appendFrame(nil, recRetiredFloor, floorBody("s", 1, 2))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	longScope := strings.Repeat("s", maxReplayScope+1)

	cases := []struct {
		name string
		data []byte
	}{
		{"unknown type", appendFrame(nil, 99, nil)},
		{"bad checksum", flipped},
		{"truncated body", good[:len(good)-6]},
		{"oversize length", []byte{recRetiredFloor, 0xFF, 0xFF, 0x7F}},
		{"bare type byte", []byte{ReplayRecNonce}},
		{"retired floor, over-long scope", appendFrame(nil, recRetiredFloor, floorBody(longScope, 1, 2))},
		{"retired floor, short tail", appendFrame(nil, recRetiredFloor, floorBody("s", 1, 2)[:10])},
		{"nonce, over-long", nonceFrame(nil, strings.Repeat("n", maxReplayNonce+1))},
		{"nonce, trailing bytes", appendFrame(nil, ReplayRecNonce, append(appendNonceBody(nil, []byte("n")), 0))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(tc.data))
			if _, _, _, err := readRecord(br); err == nil {
				t.Fatal("malformed record decoded")
			}
		})
	}
	// A well-formed record of the retired type still reads, to nothing.
	typ, nonce, n, err := readRecord(bufio.NewReader(bytes.NewReader(good)))
	if err != nil || typ != recRetiredFloor || nonce != nil || n != int64(len(good)) {
		t.Fatalf("retired floor record = type %d nonce %x n %d err %v; want type %d, no nonce, %d bytes, no error",
			typ, nonce, n, err, recRetiredFloor, len(good))
	}
}

func TestReplayStoreMemoryOnly(t *testing.T) {
	rs := openStore(t, "", ReplayOptions{})
	defer rs.Close()
	if n := rs.Len(); n != 0 {
		t.Fatalf("fresh store holds %d nonces, want 0", n)
	}
	if !rs.MarkNonce([]byte("n")) {
		t.Fatal("fresh nonce reported seen")
	}
	if rs.MarkNonce([]byte("n")) {
		t.Fatal("seen nonce reported fresh")
	}
	if n := rs.Len(); n != 1 {
		t.Fatalf("store holds %d nonces, want 1", n)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A closed store refuses quietly.
	if rs.MarkNonce([]byte("m")) {
		t.Fatal("MarkNonce on closed store reported fresh")
	}
}

func TestReplayStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	rec := &StatsRecorder{}
	rs := openStore(t, dir, ReplayOptions{})
	for _, n := range []string{"envelope-0", "envelope-1"} {
		if !rs.MarkNonce([]byte(n)) {
			t.Fatalf("fresh nonce %s reported seen", n)
		}
	}
	if rs.MarkNonce([]byte("envelope-1")) {
		t.Fatal("seen nonce reported fresh")
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rs2 := openStore(t, dir, ReplayOptions{Stats: rec})
	defer rs2.Close()
	if n := rs2.Len(); n != 2 {
		t.Fatalf("reopened store holds %d nonces, want 2 (everything marked)", n)
	}
	if rs2.MarkNonce([]byte("envelope-1")) {
		t.Fatal("nonce forgotten across reopen")
	}
	if got := rec.Read().ReplayRejected; got != 1 {
		t.Fatalf("replay-rejected stat = %d, want 1", got)
	}
	if !rs2.MarkNonce([]byte("envelope-2")) {
		t.Fatal("fresh nonce rejected after reopen")
	}
}

func TestReplayStoreTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	rs := openStore(t, dir, ReplayOptions{})
	rs.MarkNonce([]byte("alice"))
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash mid-append leaves a torn record at the tail.
	path := filepath.Join(dir, replayLogFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatalf("opening log: %v", err)
	}
	torn := nonceFrame(nil, "bob")
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatalf("writing torn tail: %v", err)
	}
	f.Close()

	rs2 := openStore(t, dir, ReplayOptions{})
	defer rs2.Close()
	if rs2.MarkNonce([]byte("alice")) {
		t.Fatal("nonce before the torn tail forgotten")
	}
	// The torn record was not applied, and the truncated store still
	// appends cleanly.
	if !rs2.MarkNonce([]byte("bob")) {
		t.Fatal("torn record applied: its nonce reads as seen")
	}
	if err := rs2.Close(); err != nil {
		t.Fatalf("Close after truncation: %v", err)
	}
}

func TestReplayStoreNonceFIFOBound(t *testing.T) {
	rs := openStore(t, "", ReplayOptions{})
	defer rs.Close()
	nonce := func(i int) []byte { return []byte(fmt.Sprintf("n%d", i)) }
	for i := 0; i <= DefaultMaxNonces; i++ {
		if !rs.MarkNonce(nonce(i)) {
			t.Fatalf("fresh nonce %d rejected", i)
		}
	}
	if n := rs.Len(); n != DefaultMaxNonces {
		t.Fatalf("store holds %d nonces, want the bound %d", n, DefaultMaxNonces)
	}
	// The first nonce fell off the FIFO; the last is still remembered.
	if rs.MarkNonce(nonce(DefaultMaxNonces)) {
		t.Fatal("recent nonce forgotten")
	}
	if !rs.MarkNonce(nonce(0)) {
		t.Fatal("oldest nonce still remembered past the bound")
	}
}

func TestReplayStoreBoundsOversizedInput(t *testing.T) {
	rs := openStore(t, "", ReplayOptions{})
	defer rs.Close()
	longNonce := bytes.Repeat([]byte{'n'}, 2*maxReplayNonce)
	if !rs.MarkNonce(longNonce) {
		t.Fatal("fresh oversized nonce rejected")
	}
	if rs.MarkNonce(longNonce) {
		t.Fatal("oversized nonce not remembered under truncation")
	}
}

// compactionLoad marks enough distinct nonces (a ~15-byte record each) to
// push the log past the compaction threshold at least once, and returns
// the last one marked.
func compactionLoad(rs *ReplayStore) []byte {
	var nonce [8]byte
	for i := 0; i < 2*replayCompactBytes/16; i++ {
		binary.BigEndian.PutUint64(nonce[:], uint64(i))
		rs.MarkNonce(nonce[:])
	}
	return nonce[:]
}

// TestReplayStoreCompaction pushes the log past the compaction threshold
// and checks the rewritten log is small and loses no state.
func TestReplayStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	rs := openStore(t, dir, ReplayOptions{})
	last := compactionLoad(rs)
	rs.MarkNonce([]byte("kept-nonce"))
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := os.Stat(filepath.Join(dir, replayLogFile))
	if err != nil {
		t.Fatalf("stat log: %v", err)
	}
	if st.Size() >= replayCompactBytes {
		t.Fatalf("log = %d bytes after compaction, want < %d", st.Size(), replayCompactBytes)
	}

	rs2 := openStore(t, dir, ReplayOptions{})
	defer rs2.Close()
	if n := rs2.Len(); n != DefaultMaxNonces {
		t.Fatalf("store holds %d nonces after compaction, want the %d it held", n, DefaultMaxNonces)
	}
	if rs2.MarkNonce(last) || rs2.MarkNonce([]byte("kept-nonce")) {
		t.Fatal("nonce lost in compaction")
	}
}

// TestReplayStoreLoadsParentLog reloads a replay.log written by the
// commit before the log moved to internal/recordlog, when sessions still
// persisted floors (ten commits at stride 4 and epoch 2 on recv/alice, one
// on send/bob, two nonces): the frame did not change and the floor type
// is retired, not reused, so the nonces load, the floor records are
// skipped, the file is left byte for byte as it was, and the next
// compaction drops the floor records.
func TestReplayStoreLoadsParentLog(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr21-replay.log"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, replayLogFile)
	if err := os.WriteFile(path, fixture, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rs := openStore(t, dir, ReplayOptions{})
	if n := rs.Len(); n != 2 {
		t.Errorf("Len = %d nonces, want 2", n)
	}
	if rs.MarkNonce([]byte("envelope-1")) || rs.MarkNonce([]byte("envelope-2")) {
		t.Error("a recorded nonce reads as fresh")
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, fixture) {
		t.Error("loading the log changed it")
	}

	rs = openStore(t, dir, ReplayOptions{})
	rs.mu.Lock()
	rs.compactLocked()
	rs.mu.Unlock()
	if err := rs.Close(); err != nil {
		t.Fatalf("Close after compaction: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile after compaction: %v", err)
	}
	if want := nonceFrame(nonceFrame(nil, "envelope-1"), "envelope-2"); !bytes.Equal(after, want) {
		t.Errorf("compacted log = %x, want the two nonce records %x", after, want)
	}
}

// FuzzReplayStoreRecord fuzzes the replay store's record bodies, which
// are bytes read back from disk (the frame around them is
// internal/recordlog's, fuzzed there): arbitrary bytes must never panic,
// an accepted nonce body re-encodes to a body that decodes to the same
// nonce, and an accepted body of the retired floor type decodes to none.
func FuzzReplayStoreRecord(f *testing.F) {
	floor := floorBody("recv/alice", 7, 1<<40)
	f.Add(recRetiredFloor, floor)
	f.Add(ReplayRecNonce, appendNonceBody(nil, []byte("nonce")))
	f.Add(ReplayRecNonce, appendNonceBody(nil, nil))
	f.Add(byte(99), []byte{})
	for i := 0; i < len(floor); i++ {
		f.Add(recRetiredFloor, floor[:i])
	}
	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		nonce, err := decodeReplayBody(typ, body)
		if err != nil {
			if !errors.Is(err, ErrRecordMalformed) {
				t.Fatalf("err = %v, want ErrRecordMalformed", err)
			}
			return
		}
		if typ != ReplayRecNonce {
			if nonce != nil {
				t.Fatalf("type %d decoded to nonce %x, want none", typ, nonce)
			}
			return
		}
		nonce2, err := decodeReplayBody(typ, appendNonceBody(nil, nonce))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(nonce, nonce2) {
			t.Fatalf("round trip changed the nonce: %x vs %x", nonce, nonce2)
		}
	})
}
