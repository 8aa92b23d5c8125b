package secure

import (
	"os"
	"path/filepath"
	"testing"
)

func TestOpenReplayStoreBadDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := OpenReplayStore(filepath.Join(file, "sub"), ReplayOptions{}); err == nil {
		t.Fatal("OpenReplayStore under a regular file succeeded")
	}
}

// TestReplayStoreLatchesAppendError makes the log fail underneath the
// store — its compaction finds the temp file's name taken by a directory
// — and checks the durability failure is latched and surfaced at Close:
// MarkNonce cannot return an error. (A dying descriptor latches the same
// way; internal/recordlog tests that where it can reach it.)
func TestReplayStoreLatchesAppendError(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenReplayStore(dir, ReplayOptions{noSync: true})
	if err != nil {
		t.Fatalf("OpenReplayStore: %v", err)
	}
	if err := os.Mkdir(filepath.Join(dir, replayLogFile+".tmp"), 0o700); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	last := compactionLoad(rs)
	// In-memory state still advances past the failure.
	if rs.MarkNonce(last) {
		t.Fatal("nonce marked after the append failure reads as fresh")
	}
	err = rs.Close()
	if err == nil {
		t.Fatal("Close surfaced no latched append error")
	}
	// Close is idempotent and keeps reporting the same failure.
	if err2 := rs.Close(); err2 != err {
		t.Fatalf("second Close = %v, want the latched %v", err2, err)
	}
}

// TestReplayStoreSyncedAppends covers the fsync path (noSync off).
func TestReplayStoreSyncedAppends(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenReplayStore(dir, ReplayOptions{})
	if err != nil {
		t.Fatalf("OpenReplayStore: %v", err)
	}
	if !rs.MarkNonce([]byte("n")) {
		t.Fatal("fresh nonce rejected")
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestNewGCMRejectsBadKey(t *testing.T) {
	if _, err := newGCM([]byte("short")); err == nil {
		t.Fatal("newGCM accepted a short key")
	}
	if _, err := newGCM(nil); err == nil {
		t.Fatal("newGCM accepted a nil key")
	}
}
