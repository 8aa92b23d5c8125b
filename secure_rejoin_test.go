package sos_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sos"
	"sos/internal/chaos"
	"sos/internal/secure"
)

// rejoinFleet is a fleet whose nodes can be killed and restarted with
// the same credentials and security directory — the harness for the
// offline-rotation scenario. Delivery books survive a restart so the
// test can wait on refs across a node's death.
type rejoinFleet struct {
	t      *testing.T
	cld    *sos.Cloud
	medium sos.Medium
	clk    *sos.VirtualClock

	mu    sync.Mutex
	nodes map[string]*sos.Node
	creds map[string]*sos.Credentials
	dirs  map[string]string
	seen  map[string]map[sos.Ref]int
	wake  chan struct{}
}

func (f *rejoinFleet) security(handle string) sos.SecurityConfig {
	return sos.SecurityConfig{Dir: f.dirs[handle]}
}

// start boots (or reboots) handle's node from its persistent identity
// and replay directory.
func (f *rejoinFleet) start(handle string) *sos.Node {
	f.t.Helper()
	f.mu.Lock()
	if f.creds[handle] == nil {
		creds, err := sos.Bootstrap(f.cld, handle)
		if err != nil {
			f.mu.Unlock()
			f.t.Fatalf("Bootstrap(%s): %v", handle, err)
		}
		f.creds[handle] = creds
		f.dirs[handle] = filepath.Join(f.t.TempDir(), handle)
		f.seen[handle] = make(map[sos.Ref]int)
	}
	book := f.seen[handle]
	f.mu.Unlock()

	n, err := sos.NewNode(sos.NodeConfig{
		Creds:          f.creds[handle],
		Medium:         f.medium,
		PeerName:       sos.PeerID(handle + "-device"),
		Clock:          f.clk,
		Security:       f.security(handle),
		ResyncInterval: 250 * time.Millisecond,
		OnReceive: func(m *sos.Message, _ sos.UserID) {
			f.mu.Lock()
			book[m.Ref()]++
			f.mu.Unlock()
			select {
			case f.wake <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		f.t.Fatalf("NewNode(%s): %v", handle, err)
	}
	f.mu.Lock()
	f.nodes[handle] = n
	f.mu.Unlock()
	return n
}

func (f *rejoinFleet) kill(handle string) {
	f.t.Helper()
	f.mu.Lock()
	n := f.nodes[handle]
	delete(f.nodes, handle)
	f.mu.Unlock()
	if err := n.Close(); err != nil {
		f.t.Fatalf("Close(%s): %v", handle, err)
	}
}

// waitFor blocks until every named node's book holds every ref. While
// waiting it keeps virtual time flowing (a few virtual seconds per wall
// second): misbehavior decay, quarantine terms, and rotation periods are
// all measured on the injected clock, and a frozen clock would make a
// single honest-accident score permanent.
func (f *rejoinFleet) waitFor(refs []sos.Ref, handles []string, deadline time.Duration) {
	f.t.Helper()
	timeout := time.After(deadline)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		f.mu.Lock()
		missing := 0
		for _, h := range handles {
			self := sos.NewUserID(h)
			for _, r := range refs {
				if r.Author != self && f.seen[h][r] == 0 {
					missing++
				}
			}
		}
		f.mu.Unlock()
		if missing == 0 {
			return
		}
		select {
		case <-f.wake:
		case <-tick.C:
			f.clk.Advance(250 * time.Millisecond)
		case <-timeout:
			f.mu.Lock()
			nodes := make(map[string]*sos.Node, len(f.nodes))
			for h, n := range f.nodes {
				nodes[h] = n
			}
			for _, h := range handles {
				f.t.Logf("node %s holds %d refs", h, len(f.seen[h]))
			}
			f.mu.Unlock()
			for h, n := range nodes {
				ms := n.Stats().Message
				f.t.Logf("node %s msg: recv=%d served=%d misbehave=%d quar=%d inflightExp=%d pullsSent=%d reconnects=%d prekeySent=%d prekeyRecv=%d prekeyRej=%d",
					h, ms.MessagesReceived, ms.MessagesServed, ms.MisbehaviorEvents, ms.Quarantines,
					ms.InflightExpired, ms.SummaryPullsSent, ms.Reconnects, ms.PrekeyBundlesSent, ms.PrekeyBundlesReceived, ms.PrekeyRejects)
				f.t.Logf("node %s secure: %+v adhoc: %+v", h, n.SecureStats(), n.Stats().Adhoc)
			}
			f.t.Fatalf("deliveries stalled: %d (node, ref) pairs missing", missing)
		}
	}
}

// TestSecureKillRejoinAfterRotation is the tentpole's acceptance
// scenario: a node goes dark, the surviving fleet rotates session keys
// several epochs ahead on the virtual clock, and on rejoin the node must
// re-handshake, re-sync everything it missed, and deliver new traffic —
// under a duplicating, reordering radio.
func TestSecureKillRejoinAfterRotation(t *testing.T) {
	clk := sos.NewVirtualClock(time.Unix(1700000000, 0))
	ca, err := sos.NewCA("Rotation Root CA", clk)
	if err != nil {
		t.Fatal(err)
	}
	cld := sos.NewCloud(ca, clk)
	prof, err := chaos.Preset(chaos.PresetDupReorder, 60*time.Second, 17)
	if err != nil {
		t.Fatal(err)
	}
	chz, err := chaos.Wrap(sos.NewMemMedium(), prof)
	if err != nil {
		t.Fatal(err)
	}
	defer chz.Close()

	f := &rejoinFleet{
		t:      t,
		cld:    cld,
		medium: chz,
		clk:    clk,
		nodes:  make(map[string]*sos.Node),
		creds:  make(map[string]*sos.Credentials),
		dirs:   make(map[string]string),
		seen:   make(map[string]map[sos.Ref]int),
		wake:   make(chan struct{}, 1),
	}
	handles := []string{"ana", "bo", "cyd"}
	for _, h := range handles {
		f.start(h)
	}
	defer func() {
		f.mu.Lock()
		nodes := make([]*sos.Node, 0, len(f.nodes))
		for _, n := range f.nodes {
			nodes = append(nodes, n)
		}
		f.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	}()

	// Round 1: everyone online, everyone hears everyone.
	var round1 []sos.Ref
	for _, h := range handles {
		m, err := f.nodes[h].Post([]byte("round 1 from " + h))
		if err != nil {
			t.Fatalf("Post(%s): %v", h, err)
		}
		round1 = append(round1, m.Ref())
	}
	f.waitFor(round1, handles, 30*time.Second)

	// cyd goes dark; the virtual clock runs several rotation periods
	// while the survivors keep talking, so their established sessions
	// ratchet multiple epochs past anything cyd ever held.
	f.kill("cyd")
	f.clk.Advance(5 * secure.DefaultRotationPeriod)

	var round2 []sos.Ref
	for i := 0; i < 20; i++ {
		h := handles[i%2] // ana and bo only
		m, err := f.nodes[h].Post([]byte(fmt.Sprintf("round 2 #%d from %s", i, h)))
		if err != nil {
			t.Fatalf("Post(%s): %v", h, err)
		}
		round2 = append(round2, m.Ref())
	}
	f.waitFor(round2, []string{"ana", "bo"}, 30*time.Second)

	// A session reads the clock once per 16 seals, and round 2 can be
	// done in fewer: give the resync heartbeat time to seal the rest.
	rotated := func() bool {
		return f.nodes["ana"].SecureStats().Rotations+f.nodes["bo"].SecureStats().Rotations >= 1
	}
	for deadline := time.Now().Add(10 * time.Second); !rotated(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no session rotated across a 5-epoch offline window")
		}
	}

	// cyd rejoins from its persisted identity and replay directory: it
	// must re-handshake fresh sessions and pull the full round-2 backlog.
	f.start("cyd")
	f.waitFor(round2, []string{"cyd"}, 30*time.Second)

	// The channel works both ways after the rejoin.
	m, err := f.nodes["cyd"].Post([]byte("back from the dead"))
	if err != nil {
		t.Fatalf("Post(cyd): %v", err)
	}
	f.waitFor([]sos.Ref{m.Ref()}, []string{"ana", "bo"}, 30*time.Second)

	// The prekey plane survived the restart too: pools replenished, and
	// the secure counters are visible on the metrics surface. And the
	// fleet is honest: no duplication, reordering, restart or rotation may
	// make one node score another.
	for _, h := range handles {
		if ms := f.nodes[h].Stats().Message; ms.MisbehaviorEvents != 0 || ms.Quarantines != 0 {
			t.Errorf("honest node %s scored a peer: %d misbehavior events, %d quarantines", h, ms.MisbehaviorEvents, ms.Quarantines)
		}
		if got := f.nodes[h].PrekeysRemaining(); got <= 0 {
			t.Errorf("node %s prekey pool = %d, want > 0", h, got)
		}
		reg := sos.NewMetricsRegistry()
		sos.RegisterNodeMetrics(reg, sos.NodeMetrics{Middleware: f.nodes[h]})
		snap := reg.Snapshot()
		if snap["sos_secure_seals_total"] <= 0 {
			t.Errorf("node %s bridged no seals", h)
		}
		if _, ok := snap["sos_secure_rotations_total"]; !ok {
			t.Errorf("node %s missing rotations series", h)
		}
	}
}
