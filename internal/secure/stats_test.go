package secure

import "testing"

// TestStatsRecorderCounts checks a scoped recorder's AEAD counters move
// with seal and open outcomes.
func TestStatsRecorderCounts(t *testing.T) {
	rec := &StatsRecorder{}
	sa, sb := newPairCfg(t, SessionConfig{Stats: rec}, SessionConfig{Stats: rec})

	frame, err := sa.Seal([]byte("counted"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Open(frame, nil); err != nil {
		t.Fatal(err)
	}

	// Failure paths: replay, short frame, tampered frame, closed session.
	if _, err := sb.Open(frame, nil); err == nil {
		t.Fatal("replay accepted")
	}
	if _, err := sb.Open([]byte{1}, nil); err == nil {
		t.Fatal("short frame accepted")
	}
	frame2, err := sa.Seal([]byte("tampered"), nil)
	if err != nil {
		t.Fatal(err)
	}
	frame2[len(frame2)-1] ^= 0xFF
	if _, err := sb.Open(frame2, nil); err == nil {
		t.Fatal("tampered frame accepted")
	}
	sa.Close()
	if _, err := sa.Seal([]byte("late"), nil); err == nil {
		t.Fatal("seal after close accepted")
	}

	want := Stats{Seals: 2, Opens: 1, SealFailures: 1, OpenFailures: 3, ReplayRejected: 1}
	if got := rec.Read(); got != want {
		t.Errorf("recorder = %+v, want %+v", got, want)
	}
}
