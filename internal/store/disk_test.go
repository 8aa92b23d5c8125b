package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sos/internal/id"
	"sos/internal/msg"
)

func openDisk(t *testing.T, dir string, opts Options) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, alice, opts)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return d
}

func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, Options{})
	if _, err := d.Put(post(bob, 1, "whole")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := d.Put(post(bob, 2, "also whole")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: chop the last record in half.
	path := filepath.Join(dir, logFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	re := openDisk(t, dir, Options{})
	defer re.Close()
	if !has(re, msg.Ref{Author: bob, Seq: 1}) {
		t.Error("intact record lost")
	}
	if has(re, msg.Ref{Author: bob, Seq: 2}) {
		t.Error("torn record replayed")
	}
	// The torn tail must be gone from disk, and appends must continue.
	if _, err := re.Put(post(bob, 3, "after recovery")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	again := openDisk(t, dir, Options{})
	defer again.Close()
	if !has(again, msg.Ref{Author: bob, Seq: 3}) || has(again, msg.Ref{Author: bob, Seq: 2}) {
		t.Error("post-recovery append not replayed cleanly")
	}
}

func TestDiskFlippedBitDropsTail(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, Options{})
	if _, err := d.Put(post(bob, 1, "good")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := d.Put(post(bob, 2, "to be corrupted")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	path := filepath.Join(dir, logFile)
	raw, _ := os.ReadFile(path)
	raw[len(raw)-10] ^= 0x40 // flip one bit inside the second record
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	re := openDisk(t, dir, Options{})
	defer re.Close()
	if !has(re, msg.Ref{Author: bob, Seq: 1}) {
		t.Error("record before the corruption lost")
	}
	if has(re, msg.Ref{Author: bob, Seq: 2}) {
		t.Error("CRC-failing record replayed")
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold forces a compaction within a few puts, and a quota
	// of two gives it garbage to drop: each evicted message is a put and
	// an eviction in the log, and one tombstone after.
	const threshold = 512
	d := openDisk(t, dir, Options{CompactBytes: threshold, MaxMessages: 2, NoSync: true})
	var appended int
	for seq := uint64(1); seq <= 8; seq++ {
		m := post(bob, seq, "fill the log until it compacts")
		if _, err := d.Put(m); err != nil {
			t.Fatalf("Put: %v", err)
		}
		rec, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		appended += len(rec)
	}
	d.Subscribe(carol)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if appended < threshold {
		t.Fatalf("the puts alone are %d bytes: the log never reached %d", appended, threshold)
	}
	if st, err := os.Stat(filepath.Join(dir, logFile)); err != nil || st.Size() >= threshold {
		t.Errorf("log not shrunk by compaction: size=%v err=%v", st, err)
	}

	re := openDisk(t, dir, Options{})
	defer re.Close()
	if re.Len() != 2 || !re.IsSubscribed(carol) {
		t.Errorf("state after compaction: len=%d subscribed=%v, want 2/true",
			re.Len(), re.IsSubscribed(carol))
	}
	if got, want := heldRefs(re), []msg.Ref{{Author: bob, Seq: 7}, {Author: bob, Seq: 8}}; !reflect.DeepEqual(got, want) {
		t.Errorf("All = %v, want %v", got, want)
	}
	if got := re.Missing(bob, 9); !reflect.DeepEqual(got, []uint64{9}) {
		t.Errorf("tombstones lost in compaction: Missing(bob, 9) = %v, want [9]", got)
	}
}

// TestDiskCrashMidCompaction: a crash during a rewrite leaves a stale,
// half-written temp file beside an intact log. The reopened engine loads
// the log, and its next compaction writes over the leftover.
func TestDiskCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, Options{NoSync: true})
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := d.Put(post(bob, seq, "written before the crash")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	tmp := filepath.Join(dir, logFile+".tmp")
	if err := os.WriteFile(tmp, raw[:len(raw)/2], 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	re := openDisk(t, dir, Options{CompactBytes: int64(len(raw)) + 1, NoSync: true})
	if re.Len() != 3 {
		t.Fatalf("Len after the crash = %d, want 3 (the pre-compaction state)", re.Len())
	}
	if _, err := re.Put(post(bob, 4, "pushes the log over its threshold")); err != nil {
		t.Fatalf("Put that compacts: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("compaction left the temp file behind: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	again := openDisk(t, dir, Options{})
	defer again.Close()
	if again.Len() != 4 {
		t.Errorf("Len after the compaction = %d, want 4", again.Len())
	}
}

// TestDiskRefusesLegacySnapshot: before compaction rewrote the log in
// place it moved the state into store.snap; opening such a directory on
// the log alone would silently lose that state.
func TestDiskRefusesLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "store.snap"), []byte{'S', 'O', 'S', 2}, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	_, err := OpenDisk(dir, alice, Options{})
	if err == nil || !strings.Contains(err.Error(), "store.snap") {
		t.Fatalf("OpenDisk over a legacy snapshot: err = %v, want one naming store.snap", err)
	}
}

// TestDiskLoadsParentLog reloads a store.log written by the commit before
// the log moved to internal/recordlog (six puts under MaxMessages 4, two
// subscriptions, one unsubscription): the frame did not change, so the
// state loads and the file is left byte for byte as it was.
func TestDiskLoadsParentLog(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr21-store.log"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFile), fixture, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	d := openDisk(t, dir, Options{})
	want := []msg.Ref{{Author: alice, Seq: 1}, {Author: bob, Seq: 2}, {Author: bob, Seq: 4}, {Author: carol, Seq: 2}}
	if got := heldRefs(d); !reflect.DeepEqual(got, want) {
		t.Errorf("All = %v, want %v", got, want)
	}
	if got := d.Missing(bob, 4); !reflect.DeepEqual(got, []uint64{3}) {
		t.Errorf("Missing(bob, 4) = %v, want [3] (bob/1 is tombstoned)", got)
	}
	if got := d.Missing(carol, 2); got != nil {
		t.Errorf("Missing(carol, 2) = %v, want none (carol/1 is tombstoned)", got)
	}
	if !d.IsSubscribed(bob) || d.IsSubscribed(carol) {
		t.Errorf("subscriptions: bob=%v carol=%v, want true/false", d.IsSubscribed(bob), d.IsSubscribed(carol))
	}
	if got := d.NextSeq(); got != 2 {
		t.Errorf("NextSeq = %d, want 2", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if after, _ := os.ReadFile(filepath.Join(dir, logFile)); !bytes.Equal(after, fixture) {
		t.Error("loading the log changed it")
	}
}

func TestDiskReloadEquivalence(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, Options{})
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := d.Put(post(bob, seq*3, "sparse")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	d.Subscribe(bob)
	want := struct {
		refs    []msg.Ref
		summary map[id.UserID]uint64
		missing []uint64
	}{heldRefs(d), d.Summary(), d.Missing(bob, 15)}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := openDisk(t, dir, Options{})
	defer re.Close()
	if !reflect.DeepEqual(heldRefs(re), want.refs) {
		t.Error("messages differ after reload")
	}
	if !reflect.DeepEqual(re.Summary(), want.summary) {
		t.Error("summary differs after reload")
	}
	if !reflect.DeepEqual(re.Missing(bob, 15), want.missing) {
		t.Error("missing set differs after reload")
	}
}

// FuzzWALRecord fuzzes the disk engine's record bodies, which are bytes
// read back from disk (the frame around them is internal/recordlog's,
// fuzzed there): arbitrary bytes must never panic, and whatever state an
// accepted record leaves must be one compaction can write and replay
// reads back the same.
func FuzzWALRecord(f *testing.F) {
	user := id.NewUserID("fuzz")
	valid, err := post(bob, 1, "a whole message").Encode()
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(recSub, user[:])
	f.Add(recEvict, evictBody(msg.Ref{Author: user, Seq: 7}))
	f.Add(recPut, []byte{1, 2, 3})
	f.Add(recPut, valid)
	f.Add(recUnsub, user[:3])

	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		s := New(alice)
		if err := s.applyRecord(typ, body); err != nil {
			return
		}
		msgs, subs, tombs := s.live()
		again := New(alice)
		for _, m := range msgs {
			buf, err := m.Encode()
			if err != nil {
				t.Fatalf("accepted message does not re-encode: %v", err)
			}
			if err := again.applyRecord(recPut, buf); err != nil {
				t.Fatalf("re-encoded message rejected: %v", err)
			}
		}
		for _, u := range subs {
			if err := again.applyRecord(recSub, u[:]); err != nil {
				t.Fatalf("re-encoded subscription rejected: %v", err)
			}
		}
		for _, ref := range tombs {
			if err := again.applyRecord(recEvict, evictBody(ref)); err != nil {
				t.Fatalf("re-encoded tombstone rejected: %v", err)
			}
		}
		msgs2, subs2, tombs2 := again.live()
		if !reflect.DeepEqual(msgs, msgs2) || !reflect.DeepEqual(subs, subs2) || !reflect.DeepEqual(tombs, tombs2) {
			t.Fatalf("state changed across a rewrite: %v %v %v vs %v %v %v", msgs, subs, tombs, msgs2, subs2, tombs2)
		}
	})
}
