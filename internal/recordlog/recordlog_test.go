package recordlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type record struct {
	Typ  byte
	Body string
}

// collect returns an apply function that appends every record to *into.
func collect(into *[]record) func(byte, []byte) error {
	return func(typ byte, body []byte) error {
		*into = append(*into, record{typ, string(body)})
		return nil
	}
}

func mustOpen(t *testing.T, path string, into *[]record) *Log {
	t.Helper()
	l, err := Open(path, 1<<10, true, collect(into))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func mustAppend(t *testing.T, l *Log, recs ...record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r.Typ, []byte(r.Body)); err != nil {
			t.Fatalf("Append(%v): %v", r, err)
		}
	}
}

// reopen closes nothing: it reads the file as the next process would.
func reopen(t *testing.T, path string) []record {
	t.Helper()
	var got []record
	l := mustOpen(t, path, &got)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	want := []record{{1, "body"}, {2, ""}, {255, string(bytes.Repeat([]byte{0xAB}, 300))}}
	var buf []byte
	for _, r := range want {
		buf = appendFrame(buf, r.Typ, []byte(r.Body))
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var total int64
	for i, w := range want {
		typ, body, n, err := ReadFrame(br, 1<<10)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if typ != w.Typ || string(body) != w.Body {
			t.Fatalf("frame %d = %d/%x, want %d/%x", i, typ, body, w.Typ, w.Body)
		}
		total += n
	}
	if total != int64(len(buf)) {
		t.Fatalf("consumed %d of %d bytes", total, len(buf))
	}
	if _, _, _, err := ReadFrame(br, 1<<10); err != io.EOF {
		t.Fatalf("read past the end: err = %v, want io.EOF", err)
	}
}

func TestReadFrameCorrupt(t *testing.T) {
	good := appendFrame(nil, 1, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[3] ^= 0x40
	// The same length spelled in two bytes: the checksum was taken over
	// the one-byte spelling, so the frame no longer verifies.
	padded := append([]byte{1, 0x87, 0x00}, good[2:]...)
	tests := []struct {
		name string
		data []byte
	}{
		{"bare type byte", good[:1]},
		{"truncated length", []byte{1, 0x80}},
		{"length overflows", append([]byte{1}, bytes.Repeat([]byte{0xFF}, 11)...)},
		{"over the body bound", appendFrame(nil, 1, make([]byte, 65))},
		{"truncated body", good[:5]},
		{"truncated checksum", good[:len(good)-1]},
		{"flipped bit", flipped},
		{"non-canonical length", padded},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(tt.data)), 64)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestOpenReplaysAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "x.log") // Open creates the directory
	var got []record
	l := mustOpen(t, path, &got)
	if len(got) != 0 || l.Size() != 0 {
		t.Fatalf("fresh log replayed %v, size %d", got, l.Size())
	}
	want := []record{{1, "one"}, {2, "two"}, {1, ""}}
	mustAppend(t, l, want...)
	st, err := os.Stat(path)
	if err != nil || st.Size() != l.Size() {
		t.Fatalf("Size = %d, file = %v (%v)", l.Size(), st, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := reopen(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestOpenTruncatesDamage: whatever ends the replay — a torn tail, a
// flipped bit, a body the caller refuses — the file is cut there, and
// appends continue from the cut.
func TestOpenTruncatesDamage(t *testing.T) {
	three := appendFrame(appendFrame(appendFrame(nil, 1, []byte("one")), 2, []byte("two")), 3, []byte("three"))
	flipped := append([]byte(nil), three...)
	flipped[len(flipped)-6] ^= 0x01
	tests := []struct {
		name   string
		data   []byte
		refuse byte
	}{
		{name: "torn tail", data: three[:len(three)-3]},
		{name: "flipped bit", data: flipped},
		{name: "refused body", data: three, refuse: 3},
	}
	want := []record{{1, "one"}, {2, "two"}}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			if err := os.WriteFile(path, tt.data, 0o600); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			var got []record
			l, err := Open(path, 1<<10, true, func(typ byte, body []byte) error {
				if typ == tt.refuse {
					return errors.New("refused")
				}
				return collect(&got)(typ, body)
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %v, want %v", got, want)
			}
			mustAppend(t, l, record{4, "after"})
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := reopen(t, path); !reflect.DeepEqual(got, append(want, record{4, "after"})) {
				t.Fatalf("after recovery replayed %v", got)
			}
		})
	}
}

// TestAppendLatchesFirstError kills the descriptor under the log: the
// failed append latches, later writes are refused with the same error,
// and Close keeps reporting it.
func TestAppendLatchesFirstError(t *testing.T) {
	var got []record
	l := mustOpen(t, filepath.Join(t.TempDir(), "x.log"), &got)
	mustAppend(t, l, record{1, "durable"})
	l.f.Close()
	first := l.Append(1, []byte("lost"))
	if first == nil {
		t.Fatal("append to a dead descriptor succeeded")
	}
	if err := l.Append(1, []byte("also lost")); err != first {
		t.Fatalf("second append: err = %v, want the latched %v", err, first)
	}
	if err := l.Rewrite(func(func(byte, []byte)) error { return nil }); err != first {
		t.Fatalf("rewrite: err = %v, want the latched %v", err, first)
	}
	if err := l.Close(); err != first {
		t.Fatalf("Close: err = %v, want the latched %v", err, first)
	}
	if err := l.Close(); err != first {
		t.Fatalf("second Close: err = %v, want the latched %v", err, first)
	}
}

func TestClosedLogRefusesWrites(t *testing.T) {
	var got []record
	l := mustOpen(t, filepath.Join(t.TempDir(), "x.log"), &got)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: err = %v, want ErrClosed", err)
	}
	if err := l.Rewrite(func(func(byte, []byte)) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rewrite after Close: err = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSyncedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := Open(path, 1<<10, false, func(byte, []byte) error { return nil })
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, l, record{1, "synced"})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := reopen(t, path); !reflect.DeepEqual(got, []record{{1, "synced"}}) {
		t.Fatalf("replayed %v", got)
	}
}

func putAll(recs ...record) func(func(byte, []byte)) error {
	return func(put func(byte, []byte)) error {
		for _, r := range recs {
			put(r.Typ, []byte(r.Body))
		}
		return nil
	}
}

// TestRewrite: the rewrite replaces the log whole — over a stale temp
// file a crashed rewrite left behind — and later appends land in the new
// file.
func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	var got []record
	l := mustOpen(t, path, &got)
	mustAppend(t, l, record{1, "a"}, record{1, "b"}, record{1, "c"})
	before := l.Size()
	if err := os.WriteFile(path+".tmp", bytes.Repeat([]byte("stale"), 100), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := l.Rewrite(putAll(record{2, "abc"})); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if l.Size() >= before {
		t.Fatalf("Size = %d after rewrite, was %d", l.Size(), before)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	mustAppend(t, l, record{1, "d"})
	if st, err := os.Stat(path); err != nil || st.Size() != l.Size() {
		t.Fatalf("Size = %d, file = %v (%v)", l.Size(), st, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := reopen(t, path); !reflect.DeepEqual(got, []record{{2, "abc"}, {1, "d"}}) {
		t.Fatalf("replayed %v", got)
	}
}

// TestOvergrownWaitsForDoubling: when a rewrite cannot get the log under
// the threshold — the live state alone outweighs it — the next one is due
// only once the log has doubled, not on every append.
func TestOvergrownWaitsForDoubling(t *testing.T) {
	var got, kept []record
	l := mustOpen(t, filepath.Join(t.TempDir(), "x.log"), &got)
	const threshold = 100
	rewrites := 0
	for i := 0; i < 64; i++ {
		kept = append(kept, record{1, "ten bytes!"})
		mustAppend(t, l, kept[len(kept)-1])
		if l.Size() < threshold && l.Overgrown(threshold) {
			t.Fatalf("overgrown at %d bytes, under the threshold", l.Size())
		}
		if l.Overgrown(threshold) {
			if err := l.Rewrite(putAll(kept...)); err != nil { // nothing to drop
				t.Fatalf("Rewrite: %v", err)
			}
			rewrites++
		}
	}
	// 64 records of 16 bytes against a threshold of 7: doubling allows
	// log2(64/7) ≈ 4 rewrites; one per append past it would be 58.
	if rewrites < 2 || rewrites > 5 {
		t.Fatalf("%d rewrites over 64 appends, want about 4", rewrites)
	}
}

// TestRewriteFailureKeepsOldLog: a rewrite that cannot finish — the
// caller's emit fails, or the temp file cannot be created — leaves the
// old log in place and latches.
func TestRewriteFailureKeepsOldLog(t *testing.T) {
	boom := errors.New("boom")
	tests := []struct {
		name     string
		sabotage func(t *testing.T, path string)
		emit     func(func(byte, []byte)) error
	}{
		{name: "emit fails", sabotage: func(*testing.T, string) {}, emit: func(put func(byte, []byte)) error {
			put(2, []byte("half"))
			return boom
		}},
		{name: "temp file blocked", emit: putAll(record{2, "x"}), sabotage: func(t *testing.T, path string) {
			if err := os.Mkdir(path+".tmp", 0o700); err != nil {
				t.Fatalf("Mkdir: %v", err)
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			var got []record
			l := mustOpen(t, path, &got)
			mustAppend(t, l, record{1, "kept"})
			tt.sabotage(t, path)
			err := l.Rewrite(tt.emit)
			if err == nil {
				t.Fatal("Rewrite succeeded")
			}
			if next := l.Append(1, []byte("refused")); next != err {
				t.Fatalf("append after failed rewrite: err = %v, want the latched %v", next, err)
			}
			if cerr := l.Close(); cerr != err {
				t.Fatalf("Close: err = %v, want the latched %v", cerr, err)
			}
			os.Remove(path + ".tmp")
			if got := reopen(t, path); !reflect.DeepEqual(got, []record{{1, "kept"}}) {
				t.Fatalf("replayed %v, want the old log", got)
			}
		})
	}
}

func TestOpenBadPath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := Open(filepath.Join(file, "sub", "x.log"), 64, true, nil); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
	if _, err := Open(filepath.Dir(file), 64, true, nil); err == nil {
		t.Fatal("Open on a directory succeeded")
	}
}

// FuzzFrame fuzzes the one frame reader under both durable stores:
// arbitrary bytes must never panic or over-consume, and every frame the
// reader accepts must re-encode to the bytes it was read from.
func FuzzFrame(f *testing.F) {
	// The corpora of the two codecs this reader replaced: the disk
	// engine's record types…
	user := []byte("0123456789")
	f.Add(appendFrame(nil, 2, user))
	f.Add(appendFrame(nil, 4, binary.AppendUvarint(append([]byte(nil), user...), 7)))
	f.Add(appendFrame(nil, 1, []byte{1, 2, 3}))
	f.Add([]byte{1, 0xff, 0xff, 0xff})
	// …and the replay store's floor and nonce records, with every
	// truncation of one.
	floor := appendFrame(nil, 1, append(append([]byte{1, 's'}, 0, 0, 0, 1), 0, 0, 0, 0, 0, 0, 0, 2))
	f.Add(appendFrame(nil, 2, append([]byte{5}, "nonce"...)))
	f.Add([]byte{})
	for i := 0; i <= len(floor); i++ {
		f.Add(floor[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, n, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)), 1<<16)
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want io.EOF or ErrCorrupt", err)
			}
			return
		}
		if n <= 0 || n > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if again := appendFrame(nil, typ, body); !bytes.Equal(again, data[:n]) {
			// Only a non-canonical length can differ, and then the
			// checksum over the bytes as read must have matched anyway.
			typ2, body2, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(again)), 1<<16)
			if err != nil || typ2 != typ || !bytes.Equal(body2, body) {
				t.Fatalf("round trip mismatch: %d/%x vs %d/%x (%v)", typ, body, typ2, body2, err)
			}
		}
	})
}
