package core

import (
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sos/internal/cloud"
	"sos/internal/mpc"
	"sos/internal/pki"
	"sos/internal/wire"
)

// liveNode starts a middleware on a wall-clock medium with the given
// resync period.
func liveNode(t *testing.T, svc *cloud.Service, medium mpc.Medium, handle string, resync time.Duration) (*Middleware, error) {
	t.Helper()
	creds, err := cloud.Bootstrap(svc, handle, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Creds: creds, Medium: medium, ResyncInterval: resync})
}

func liveService(t *testing.T) *cloud.Service {
	t.Helper()
	ca, err := pki.NewCA("ticks-root")
	if err != nil {
		t.Fatal(err)
	}
	return cloud.New(ca)
}

// settle waits until no more than n goroutines run.
func settle(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d: something is still running", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeartbeatDriverTicksUntilClose: a live node's driver ticks its
// message manager — every tick re-advertises on the live link, so
// AdsDeltaSent climbs — and Close stops it: the driver is gone and the
// counters stand still.
func TestHeartbeatDriverTicksUntilClose(t *testing.T) {
	const period = 5 * time.Millisecond
	svc, medium := liveService(t), mpc.NewMemMedium()
	holder, err := liveNode(t, svc, medium, "holder", -1)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Post([]byte("worth a dial")); err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	ticking, err := liveNode(t, svc, medium, "ticking", period)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ticking.Stats().Message.AdsDeltaSent < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("no ticks re-advertised: %+v", ticking.Stats().Message)
		}
		time.Sleep(period)
	}

	if err := ticking.Close(); err != nil {
		t.Fatal(err)
	}
	closed := ticking.Stats().Message
	settle(t, goroutines)
	time.Sleep(10 * period)
	if after := ticking.Stats().Message; after != closed {
		t.Errorf("message counters moved after Close: %+v, then %+v", closed, after)
	}
}

// TestNegativeResyncIntervalStartsNoDriver: a negative period, the
// simulator's setting, starts no ticker; zero starts the default one.
func TestNegativeResyncIntervalStartsNoDriver(t *testing.T) {
	svc, medium := liveService(t), mpc.NewMemMedium()
	for _, tc := range []struct {
		handle string
		resync time.Duration
		driver bool
	}{{"off", -1, false}, {"default", 0, true}} {
		mw, err := liveNode(t, svc, medium, tc.handle, tc.resync)
		if err != nil {
			t.Fatal(err)
		}
		if got := mw.stopTicks != nil; got != tc.driver {
			t.Errorf("ResyncInterval %v: driver started = %v, want %v", tc.resync, got, tc.driver)
		}
		mw.Close()
	}
}

// openFiles counts the process's open file descriptors, or -1 where the
// system does not list them.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestFailedAdvertiseLeavesNothingRunning: when the initial advertisement
// fails (here a device name too long for the beacon), New fails and takes
// down what it built: the replay log is closed, and no driver is left
// ticking.
func TestFailedAdvertiseLeavesNothingRunning(t *testing.T) {
	svc, medium := liveService(t), mpc.NewMemMedium()
	creds, err := cloud.Bootstrap(svc, "node", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Opening a file once first, so the runtime's own descriptors are
	// already counted.
	if err := os.WriteFile(filepath.Join(dir, "warm-up"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	files, goroutines := openFiles(), runtime.NumGoroutine()
	mw, err := New(Config{
		Creds: creds, Medium: medium, ResyncInterval: time.Millisecond,
		PeerName: mpc.PeerID(strings.Repeat("x", 300)),
		Security: SecurityConfig{Dir: dir},
	})
	if !errors.Is(err, wire.ErrOversize) {
		if err == nil {
			mw.Close()
		}
		t.Fatalf("New = %v, want the oversized advertisement's error", err)
	}
	if after := openFiles(); after != files {
		t.Errorf("%d open files after the failed New, %d before: the replay log leaked", after, files)
	}
	settle(t, goroutines)
}
