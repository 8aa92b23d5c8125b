package netmedium

import (
	"testing"
	"time"

	"sos/internal/mpc"
	"sos/internal/mpc/mediumtest"
)

// netWorld adapts the real-socket Medium to the conformance suite. All
// endpoints join one instance bound to ephemeral loopback ports, so they
// beacon to each other over real UDP automatically; Link/Unlink map to
// SetReachable like MemMedium. Every joiner starts severed from the rest
// to match the suite's out-of-range-until-Link convention.
type netWorld struct {
	m      *Medium
	joined []mpc.PeerID
}

func (w *netWorld) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	for _, other := range w.joined {
		w.m.SetReachable(peer, other, false)
	}
	ep, err := w.m.Join(peer, ev)
	if err != nil {
		return nil, err
	}
	w.joined = append(w.joined, peer)
	return ep, nil
}

func (w *netWorld) Link(a, b mpc.PeerID)   { w.m.SetReachable(a, b, true) }
func (w *netWorld) Unlink(a, b mpc.PeerID) { w.m.SetReachable(a, b, false) }
func (w *netWorld) Step()                  { time.Sleep(10 * time.Millisecond) }

func (w *netWorld) Close() {
	w.m.mu.Lock()
	eps := make([]*Endpoint, 0, len(w.m.endpoints))
	for _, ep := range w.m.endpoints {
		eps = append(eps, ep)
	}
	w.m.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

func TestNetMediumConformance(t *testing.T) {
	mediumtest.Run(t, func(t *testing.T) mediumtest.World {
		m, err := New(Config{
			BeaconListen:   "127.0.0.1:0",
			ListenIP:       "127.0.0.1",
			BeaconInterval: 25 * time.Millisecond,
			LossTimeout:    150 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("building net medium: %v", err)
		}
		return &netWorld{m: m}
	})
}
