package main

import (
	"testing"
	"time"

	"sos"
	"sos/internal/mpc"
	"sos/internal/mpc/mediumtest"
	"sos/internal/store"
	"sos/internal/store/storetest"
)

// A shim that changed behaviour would measure a different program, so
// the shims run the same conformance suites as the media and engines
// they wrap.

// shimmedMem adapts a mediumShim over MemMedium to the suite, severing
// each new joiner from the rest as the MemMedium adapter in
// internal/mpc does.
type shimmedMem struct {
	mem    *mpc.MemMedium
	shim   *mediumShim
	joined []mpc.PeerID
}

func (w *shimmedMem) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	for _, other := range w.joined {
		w.mem.SetReachable(peer, other, false)
	}
	ep, err := w.shim.Join(peer, ev)
	if err != nil {
		return nil, err
	}
	w.joined = append(w.joined, peer)
	return ep, nil
}

func (w *shimmedMem) Link(a, b mpc.PeerID)   { w.mem.SetReachable(a, b, true) }
func (w *shimmedMem) Unlink(a, b mpc.PeerID) { w.mem.SetReachable(a, b, false) }
func (w *shimmedMem) Step()                  { time.Sleep(2 * time.Millisecond) }
func (w *shimmedMem) Close()                 {}

func TestMediumShimConformance(t *testing.T) {
	for name, traced := range map[string]bool{"counting": false, "timing": true} {
		t.Run(name, func(t *testing.T) {
			mediumtest.Run(t, func(t *testing.T) mediumtest.World {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				mem := sos.NewMemMedium()
				return &shimmedMem{mem: mem, shim: newMediumShim(mem, tr)}
			})
		})
	}
}

var shimOwner = sos.NewUserID("conformance-owner")

// shimmedStore wraps a fresh in-memory engine per Open.
type shimmedStore struct{ tr *tracer }

func (w shimmedStore) Open(_ *testing.T, opts store.Options) store.Engine {
	return &storeShim{Engine: store.NewMemory(shimOwner, opts), n: w.tr.node("store-under-test")}
}

func (shimmedStore) Persistent() bool { return false }

func TestStoreShimConformance(t *testing.T) {
	storetest.Run(t, func(*testing.T) storetest.World { return shimmedStore{tr: newTracer()} })
}

// TestMediumShimCounts pins what the always-on counters count: beacon
// bytes at SetAdvertisement, frame bytes at Send, and the handshake
// share by side (two frames from the initiator, one from the responder).
func TestMediumShimCounts(t *testing.T) {
	shim := newMediumShim(sos.NewMemMedium(), nil)
	a, b := mediumtest.NewRecorder(), mediumtest.NewRecorder()
	epA, err := shim.Join("a", a)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := shim.Join("b", b)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	defer epB.Close()
	epA.SetAdvertisement(make([]byte, 10))
	epA.SetAdvertisement(nil) // a withdrawal hands the medium nothing
	conn, err := epA.Connect("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 20, 3} {
		if err := conn.Send(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(b.IncomingConns()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("inbound connection never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	inbound := b.IncomingConns()[0]
	for _, n := range []int{50, 7} {
		if err := inbound.Send(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	got := shim.c.read()
	want := mediumCount{beacons: 1, beaconBytes: 10, frames: 5, frameBytes: 180, handshakeBytes: 100 + 20 + 50}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
	if got.wireBytes() != 190 {
		t.Fatalf("wire bytes = %d, want 190", got.wireBytes())
	}
}
