package secure

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sos/internal/clock"
	"sos/internal/recordlog"
)

// frame is the record as the log writes it: its body under its type.
func frame(dst []byte, rec ReplayRecord) []byte {
	return recordlog.AppendFrame(dst, rec.Type, rec.AppendBody(nil))
}

// readRecord is the log's read path: one frame, then its body.
func readRecord(br *bufio.Reader) (ReplayRecord, int64, error) {
	typ, body, n, err := recordlog.ReadFrame(br, maxReplayBody)
	if err != nil {
		return ReplayRecord{}, n, err
	}
	rec, err := DecodeReplayBody(typ, body)
	return rec, n, err
}

func openStore(t *testing.T, dir string, opts ReplayOptions) *ReplayStore {
	t.Helper()
	opts.NoSync = true
	rs, err := OpenReplayStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenReplayStore(%q): %v", dir, err)
	}
	return rs
}

func TestReplayRecordRoundTrip(t *testing.T) {
	records := []ReplayRecord{
		{Type: ReplayRecFloor, Scope: "recv/alice", Epoch: 3, Floor: 12345},
		{Type: ReplayRecFloor, Scope: "", Epoch: 0, Floor: 0},
		{Type: ReplayRecNonce, Nonce: []byte("nonce-bytes")},
		{Type: ReplayRecNonce, Nonce: []byte{}},
	}
	var buf []byte
	for _, rec := range records {
		buf = frame(buf, rec)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var total int64
	for i, want := range records {
		got, n, err := readRecord(br)
		if err != nil {
			t.Fatalf("readRecord(%d): %v", i, err)
		}
		total += n
		if got.Type != want.Type || got.Scope != want.Scope || got.Epoch != want.Epoch || got.Floor != want.Floor {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
		if want.Type == ReplayRecNonce && !bytes.Equal(got.Nonce, want.Nonce) {
			t.Fatalf("record %d nonce = %x, want %x", i, got.Nonce, want.Nonce)
		}
	}
	if total != int64(len(buf)) {
		t.Fatalf("consumed %d of %d bytes", total, len(buf))
	}
	if _, _, err := readRecord(br); err == nil {
		t.Fatal("decode past the end succeeded")
	}
}

func TestReplayRecordMalformed(t *testing.T) {
	good := frame(nil, ReplayRecord{Type: ReplayRecFloor, Scope: "s", Epoch: 1, Floor: 2})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF

	cases := []struct {
		name string
		data []byte
	}{
		{"unknown type", frame(nil, ReplayRecord{Type: 99})},
		{"bad checksum", flipped},
		{"truncated body", good[:len(good)-6]},
		{"oversize length", []byte{ReplayRecFloor, 0xFF, 0xFF, 0x7F}},
		{"bare type byte", []byte{ReplayRecNonce}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(bytes.NewReader(tc.data))
			if _, _, err := readRecord(br); err == nil {
				t.Fatal("malformed record decoded")
			}
		})
	}
}

func TestReplayStoreMemoryOnly(t *testing.T) {
	rs := openStore(t, "", ReplayOptions{Stride: 8})
	defer rs.Close()
	h := rs.Scope("recv/peer")
	if f := h.Floor(); f != 0 {
		t.Fatalf("fresh scope floor = %d, want 0", f)
	}
	h.Commit(0, 5)
	// last = 6, so the persisted horizon runs one stride ahead.
	if f := h.Floor(); f != 6+8 {
		t.Fatalf("floor after commit = %d, want %d", f, 6+8)
	}
	// Commits below the horizon do not raise it.
	h.Commit(0, 7)
	if f := h.Floor(); f != 6+8 {
		t.Fatalf("floor after low commit = %d, want %d", f, 6+8)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A closed store refuses quietly.
	h.Commit(0, 100)
	if rs.MarkNonce([]byte("n")) {
		t.Fatal("MarkNonce on closed store reported fresh")
	}
}

func TestReplayStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	rec := &StatsRecorder{}
	rs := openStore(t, dir, ReplayOptions{Stride: 4})
	h := rs.Scope("recv/alice")
	for seq := uint64(0); seq < 10; seq++ {
		h.Commit(1, seq)
	}
	if !rs.MarkNonce([]byte("envelope-1")) {
		t.Fatal("fresh nonce reported seen")
	}
	if rs.MarkNonce([]byte("envelope-1")) {
		t.Fatal("seen nonce reported fresh")
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rs2 := openStore(t, dir, ReplayOptions{Stride: 4, Stats: rec})
	defer rs2.Close()
	h2 := rs2.Scope("recv/alice")
	if f := h2.Floor(); f < 10 {
		t.Fatalf("reopened floor = %d, want >= 10 (everything committed)", f)
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
	rs.Scope("recv/alice").Commit(0, 41)
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash mid-append leaves a torn record at the tail.
	path := filepath.Join(dir, replayLogFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatalf("opening log: %v", err)
	}
	torn := frame(nil, ReplayRecord{Type: ReplayRecFloor, Scope: "recv/bob", Epoch: 0, Floor: 99})
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatalf("writing torn tail: %v", err)
	}
	f.Close()

	rs2 := openStore(t, dir, ReplayOptions{})
	defer rs2.Close()
	if f := rs2.Scope("recv/alice").Floor(); f < 42 {
		t.Fatalf("floor after torn tail = %d, want >= 42", f)
	}
	if f := rs2.Scope("recv/bob").Floor(); f != 0 {
		t.Fatalf("torn record applied: bob floor = %d, want 0", f)
	}
	// The truncated store still appends cleanly.
	rs2.Scope("recv/bob").Commit(0, 7)
	if err := rs2.Close(); err != nil {
		t.Fatalf("Close after truncation: %v", err)
	}
}

func TestReplayStoreScopeLRUBound(t *testing.T) {
	rs := openStore(t, "", ReplayOptions{MaxScopes: 3})
	defer rs.Close()
	names := []string{"a", "b", "c", "d", "e"}
	for i, n := range names {
		rs.Scope(n).Commit(0, uint64(10*(i+1)))
	}
	if len(rs.scopes) > 3 {
		t.Fatalf("scopes = %d, want <= 3", len(rs.scopes))
	}
	// The stalest scopes were evicted: their floors reset.
	if f := rs.Scope("a").Floor(); f != 0 {
		t.Fatalf("evicted scope floor = %d, want 0", f)
	}
	// The freshest survived.
	if f := rs.Scope("e").Floor(); f == 0 {
		t.Fatal("freshest scope evicted")
	}
}

func TestReplayStoreNonceFIFOBound(t *testing.T) {
	rs := openStore(t, "", ReplayOptions{MaxNonces: 3})
	defer rs.Close()
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		if !rs.MarkNonce([]byte(n)) {
			t.Fatalf("fresh nonce %s rejected", n)
		}
	}
	// n1 fell off the FIFO; n4 is still remembered.
	if !rs.MarkNonce([]byte("n1")) {
		t.Fatal("oldest nonce still remembered past the bound")
	}
	if rs.MarkNonce([]byte("n4")) {
		t.Fatal("recent nonce forgotten")
	}
}

func TestReplayStoreBoundsOversizedInput(t *testing.T) {
	rs := openStore(t, "", ReplayOptions{})
	defer rs.Close()
	longScope := string(bytes.Repeat([]byte{'s'}, 2*maxReplayScope))
	h := rs.Scope(longScope)
	h.Commit(0, 3)
	if f := rs.Scope(longScope).Floor(); f == 0 {
		t.Fatal("truncated scope name did not alias to the same scope")
	}
	longNonce := bytes.Repeat([]byte{'n'}, 2*maxReplayNonce)
	if !rs.MarkNonce(longNonce) {
		t.Fatal("fresh oversized nonce rejected")
	}
	if rs.MarkNonce(longNonce) {
		t.Fatal("oversized nonce not remembered under truncation")
	}
}

// TestReplayStoreCompaction pushes the log past the compaction threshold
// and checks the rewritten log is small and loses no state.
func TestReplayStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	rs := openStore(t, dir, ReplayOptions{Stride: 1})
	h := rs.Scope("recv/alice")
	// Stride 1 appends a floor record (~30 bytes) per commit; enough
	// commits to cross the threshold guarantee at least one compaction.
	var seq uint64
	for i := 0; i < 2*replayCompactBytes/16; i++ {
		h.Commit(0, seq)
		seq += 2
	}
	seq -= 2
	h.Commit(0, seq)
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

	rs2 := openStore(t, dir, ReplayOptions{Stride: 1})
	defer rs2.Close()
	if f := rs2.Scope("recv/alice").Floor(); f < seq+1 {
		t.Fatalf("floor after compaction = %d, want >= %d", f, seq+1)
	}
	if rs2.MarkNonce([]byte("kept-nonce")) {
		t.Fatal("nonce lost in compaction")
	}
}

// TestSessionReplayAcrossRestart is the end-to-end restart property:
// frames recorded before a receiver restart are rejected after it, and a
// restarted sender resumes its cursor past everything it ever sealed.
func TestSessionReplayAcrossRestart(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ctx := []byte("handshake-transcript")
	keyA, keyB := newKey(t), newKey(t)
	clk := clock.NewVirtual(sessionEpoch0)

	storeA := openStore(t, dirA, ReplayOptions{Stride: 4})
	storeB := openStore(t, dirB, ReplayOptions{Stride: 4})
	sa, err := NewSessionWithConfig(keyA, &keyB.PublicKey, ctx, SessionConfig{
		Clock: clk, SendCursor: storeA.Scope("send/bob"),
	})
	if err != nil {
		t.Fatalf("NewSessionWithConfig(a): %v", err)
	}
	rec := &StatsRecorder{}
	sb, err := NewSessionWithConfig(keyB, &keyA.PublicKey, ctx, SessionConfig{
		Clock: clk, Replay: storeB.Scope("recv/alice"), Stats: rec,
	})
	if err != nil {
		t.Fatalf("NewSessionWithConfig(b): %v", err)
	}

	var recorded [][]byte
	for i := 0; i < 10; i++ {
		frame, err := sa.Seal([]byte("payload"), nil)
		if err != nil {
			t.Fatalf("Seal(%d): %v", i, err)
		}
		recorded = append(recorded, frame)
		if _, err := sb.Open(frame, nil); err != nil {
			t.Fatalf("Open(%d): %v", i, err)
		}
	}

	// Both nodes crash: sessions die, stores close.
	sb.Close()
	if err := storeB.Close(); err != nil {
		t.Fatalf("Close(storeB): %v", err)
	}
	if err := storeA.Close(); err != nil {
		t.Fatalf("Close(storeA): %v", err)
	}

	// The receiver restarts and re-handshakes the same session context:
	// every recorded frame must land below the persisted floor.
	storeB2 := openStore(t, dirB, ReplayOptions{Stride: 4})
	defer storeB2.Close()
	sb2, err := NewSessionWithConfig(keyB, &keyA.PublicKey, ctx, SessionConfig{
		Clock: clk, Replay: storeB2.Scope("recv/alice"),
	})
	if err != nil {
		t.Fatalf("NewSessionWithConfig(b2): %v", err)
	}
	for i, frame := range recorded {
		if _, err := sb2.Open(frame, nil); !errors.Is(err, ErrReplay) {
			t.Fatalf("recorded frame %d after restart: err = %v, want ErrReplay", i, err)
		}
	}

	// The sender restarts too: its cursor resumes above every sealed
	// sequence, so fresh traffic clears the receiver's floor.
	storeA2 := openStore(t, dirA, ReplayOptions{Stride: 4})
	defer storeA2.Close()
	sa2, err := NewSessionWithConfig(keyA, &keyB.PublicKey, ctx, SessionConfig{
		Clock: clk, SendCursor: storeA2.Scope("send/bob"),
	})
	if err != nil {
		t.Fatalf("NewSessionWithConfig(a2): %v", err)
	}
	if sa2.sendSeq < 10 {
		t.Fatalf("restarted send cursor = %d, want >= 10", sa2.sendSeq)
	}
	frame, err := sa2.Seal([]byte("fresh after restart"), nil)
	if err != nil {
		t.Fatalf("Seal after restart: %v", err)
	}
	plain, err := sb2.Open(frame, nil)
	if err != nil {
		t.Fatalf("Open after restart: %v", err)
	}
	if string(plain) != "fresh after restart" {
		t.Fatalf("Open = %q", plain)
	}
}

// TestReplayStoreLoadsParentLog reloads a replay.log written by the
// commit before the log moved to internal/recordlog (ten commits at
// stride 4 and epoch 2 on recv/alice, one on send/bob, two nonces): the
// frame did not change, so the state loads and the file is left byte for
// byte as it was.
func TestReplayStoreLoadsParentLog(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr21-replay.log"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, replayLogFile), fixture, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rs := openStore(t, dir, ReplayOptions{Stride: 4})
	if scopes, nonces := rs.Len(); scopes != 2 || nonces != 2 {
		t.Errorf("Len = %d scopes, %d nonces; want 2 and 2", scopes, nonces)
	}
	if f := rs.Scope("recv/alice").Floor(); f != 10 {
		t.Errorf("recv/alice floor = %d, want 10", f)
	}
	if f := rs.Scope("send/bob").Floor(); f != 11 {
		t.Errorf("send/bob floor = %d, want 11", f)
	}
	if rs.MarkNonce([]byte("envelope-1")) || rs.MarkNonce([]byte("envelope-2")) {
		t.Error("a recorded nonce reads as fresh")
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if after, _ := os.ReadFile(filepath.Join(dir, replayLogFile)); !bytes.Equal(after, fixture) {
		t.Error("loading the log changed it")
	}
}

// FuzzReplayStoreRecord fuzzes the replay store's record bodies, which
// are bytes read back from disk (the frame around them is
// internal/recordlog's, fuzzed there): arbitrary bytes must never panic,
// and an accepted body re-encodes to a body that decodes to the same
// record.
func FuzzReplayStoreRecord(f *testing.F) {
	floor := ReplayRecord{Type: ReplayRecFloor, Scope: "recv/alice", Epoch: 7, Floor: 1 << 40}
	f.Add(ReplayRecFloor, floor.AppendBody(nil))
	f.Add(ReplayRecNonce, ReplayRecord{Type: ReplayRecNonce, Nonce: []byte("nonce")}.AppendBody(nil))
	f.Add(byte(99), []byte{})
	seed := floor.AppendBody(nil)
	for i := 0; i < len(seed); i++ {
		f.Add(ReplayRecFloor, seed[:i])
	}
	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		rec, err := DecodeReplayBody(typ, body)
		if err != nil {
			if !errors.Is(err, ErrRecordMalformed) {
				t.Fatalf("err = %v, want ErrRecordMalformed", err)
			}
			return
		}
		rec2, err := DecodeReplayBody(rec.Type, rec.AppendBody(nil))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec, rec2)
		}
	})
}
