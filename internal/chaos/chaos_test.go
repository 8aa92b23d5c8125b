package chaos

import (
	"fmt"
	"testing"
	"time"

	"sos/internal/mpc"
	"sos/internal/mpc/mediumtest"
	"sos/internal/netmedium"
)

// chaosWorld adapts a neutral chaos wrapper over MemMedium to the
// conformance suite: the wrapper must be observably transparent.
type chaosWorld struct {
	m      *Medium
	joined []mpc.PeerID
}

func (w *chaosWorld) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
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

func (w *chaosWorld) Link(a, b mpc.PeerID)   { w.m.SetReachable(a, b, true) }
func (w *chaosWorld) Unlink(a, b mpc.PeerID) { w.m.SetReachable(a, b, false) }
func (w *chaosWorld) Step()                  { time.Sleep(2 * time.Millisecond) }
func (w *chaosWorld) Close()                 { w.m.Close() }

// TestChaosMediumConformance proves the wrapper under a neutral profile
// is indistinguishable from the inner medium: the full conformance suite
// runs through it unchanged.
func TestChaosMediumConformance(t *testing.T) {
	mediumtest.Run(t, func(t *testing.T) mediumtest.World {
		m, err := Wrap(mpc.NewMemMedium(), Profile{})
		if err != nil {
			t.Fatalf("wrapping mem medium: %v", err)
		}
		return &chaosWorld{m: m}
	})
}

// chaosNetWorld runs the same proof over the real-socket medium: a
// neutral wrapper over loopback NetMedium passes the suite too.
type chaosNetWorld struct {
	chaosWorld
	eps []mpc.Endpoint
}

func (w *chaosNetWorld) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	ep, err := w.chaosWorld.Join(peer, ev)
	if err == nil {
		w.eps = append(w.eps, ep)
	}
	return ep, err
}

func (w *chaosNetWorld) Step() { time.Sleep(10 * time.Millisecond) }

func (w *chaosNetWorld) Close() {
	for _, ep := range w.eps {
		ep.Close()
	}
	w.m.Close()
}

func TestChaosOverNetMediumConformance(t *testing.T) {
	mediumtest.Run(t, func(t *testing.T) mediumtest.World {
		inner, err := netmedium.New(netmedium.Config{
			BeaconListen:   "127.0.0.1:0",
			ListenIP:       "127.0.0.1",
			BeaconInterval: 25 * time.Millisecond,
			LossTimeout:    150 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("building net medium: %v", err)
		}
		m, err := Wrap(inner, Profile{})
		if err != nil {
			t.Fatalf("wrapping net medium: %v", err)
		}
		return &chaosNetWorld{chaosWorld: chaosWorld{m: m}}
	})
}

// pair spins up two connected endpoints through a chaos wrapper over
// MemMedium and returns the a→b conn plus b's recorder.
func pair(t *testing.T, prof Profile) (*Medium, mpc.Conn, *mediumtest.Recorder) {
	t.Helper()
	m, err := Wrap(mpc.NewMemMedium(), prof)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	t.Cleanup(m.Close)
	recA, recB := mediumtest.NewRecorder(), mediumtest.NewRecorder()
	epA, err := m.Join("a", recA)
	if err != nil {
		t.Fatalf("Join(a): %v", err)
	}
	t.Cleanup(func() { epA.Close() })
	epB, err := m.Join("b", recB)
	if err != nil {
		t.Fatalf("Join(b): %v", err)
	}
	t.Cleanup(func() { epB.Close() })
	epB.SetAdvertisement([]byte("b-ad"))
	deadline := time.Now().Add(2 * time.Second)
	for recA.FoundCount("b") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("a never discovered b")
		}
		time.Sleep(time.Millisecond)
	}
	conn, err := epA.Connect("b")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return m, conn, recB
}

// recvConn waits for b's side of the connection to surface.
func recvConn(t *testing.T, rec *mediumtest.Recorder) mpc.Conn {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if conns := rec.IncomingConns(); len(conns) > 0 {
			return conns[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("incoming conn never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFrames polls until the recorder holds at least n frames on conn or
// the deadline passes, returning whatever arrived.
func waitFrames(rec *mediumtest.Recorder, conn mpc.Conn, n int, wait time.Duration) [][]byte {
	deadline := time.Now().Add(wait)
	for {
		frames := rec.Frames(conn)
		if len(frames) >= n || time.Now().After(deadline) {
			return frames
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLossDropsDeterministically sends a frame stream through a lossy
// profile twice and checks (a) some but not all frames survive, and (b)
// the surviving set is identical across runs with the same seed.
func TestLossDropsDeterministically(t *testing.T) {
	const total = 200
	run := func() []string {
		m, conn, recB := pair(t, Profile{Seed: 7, Loss: 0.3})
		bConn := recvConn(t, recB)
		for i := 0; i < total; i++ {
			if err := conn.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		st := m.Stats()
		frames := waitFrames(recB, bConn, total-int(st.FramesDropped), 2*time.Second)
		var out []string
		for _, f := range frames {
			out = append(out, string(f))
		}
		if st.FramesDropped == 0 || st.FramesDropped == total {
			t.Fatalf("loss 0.3 dropped %d of %d frames", st.FramesDropped, total)
		}
		if got := uint64(len(out)); got != total-st.FramesDropped {
			t.Fatalf("delivered %d frames, stats say %d passed", got, total-st.FramesDropped)
		}
		return out
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed, different survivor %d: %q vs %q", i, first[i], second[i])
		}
	}
}

// TestDuplicateInjectsCopies checks duplication delivers extra identical
// frames and the inner medium sees them all.
func TestDuplicateInjectsCopies(t *testing.T) {
	const total = 100
	m, conn, recB := pair(t, Profile{Seed: 3, Duplicate: 0.5})
	bConn := recvConn(t, recB)
	for i := 0; i < total; i++ {
		if err := conn.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	st := m.Stats()
	if st.FramesDuplicated == 0 {
		t.Fatalf("duplicate 0.5 injected no copies over %d frames", total)
	}
	frames := waitFrames(recB, bConn, total+int(st.FramesDuplicated), 2*time.Second)
	if len(frames) != total+int(st.FramesDuplicated) {
		t.Fatalf("got %d frames, want %d originals + %d dups", len(frames), total, st.FramesDuplicated)
	}
}

// TestReorderSwapsNeighbors checks held frames get overtaken: the
// receive order differs from the send order, with nothing lost.
func TestReorderSwapsNeighbors(t *testing.T) {
	const total = 100
	m, conn, recB := pair(t, Profile{Seed: 5, Reorder: 0.5})
	bConn := recvConn(t, recB)
	for i := 0; i < total; i++ {
		if err := conn.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	frames := waitFrames(recB, bConn, total, 2*time.Second)
	if len(frames) != total {
		t.Fatalf("got %d frames, want all %d (reorder must not lose)", len(frames), total)
	}
	if m.Stats().FramesReordered == 0 {
		t.Fatalf("reorder 0.5 never swapped over %d frames", total)
	}
	inOrder := true
	for i, f := range frames {
		if string(f) != fmt.Sprintf("frame-%03d", i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatalf("frames arrived fully in order despite reorder 0.5 and %d swaps", m.Stats().FramesReordered)
	}
}

// TestDelayPreservesOrder checks the latency queue stretches the link
// without reordering it.
func TestDelayPreservesOrder(t *testing.T) {
	const total = 50
	m, conn, recB := pair(t, Profile{Seed: 9, Delay: 5 * time.Millisecond, Jitter: 5 * time.Millisecond})
	bConn := recvConn(t, recB)
	start := time.Now()
	for i := 0; i < total; i++ {
		if err := conn.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	frames := waitFrames(recB, bConn, total, 5*time.Second)
	if len(frames) != total {
		t.Fatalf("got %d frames, want %d", len(frames), total)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("all frames landed in %s, delay had no effect", elapsed)
	}
	for i, f := range frames {
		if string(f) != fmt.Sprintf("frame-%03d", i) {
			t.Fatalf("frame %d arrived as %q: delay/jitter must preserve order", i, f)
		}
	}
	if m.Stats().FramesDelayed != total {
		t.Fatalf("FramesDelayed = %d, want %d", m.Stats().FramesDelayed, total)
	}
}

// TestOneWayMutesOneDirection checks asymmetric pairs: with OneWay = 1
// exactly one direction of the pair goes mute while the reverse flows.
func TestOneWayMutesOneDirection(t *testing.T) {
	m, connAB, recB := pair(t, Profile{Seed: 11, OneWay: 1})
	bConn := recvConn(t, recB)
	for i := 0; i < 10; i++ {
		if err := connAB.Send([]byte("from-a")); err != nil {
			t.Fatalf("Send a→b: %v", err)
		}
		if err := bConn.Send([]byte("from-b")); err != nil {
			t.Fatalf("Send b→a: %v", err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	st := m.Stats()
	if st.OneWayDrops != 10 {
		t.Fatalf("OneWayDrops = %d, want exactly one muted direction (10 frames)", st.OneWayDrops)
	}
	if st.FramesPassed != 10 {
		t.Fatalf("FramesPassed = %d, want the reverse direction's 10 frames", st.FramesPassed)
	}
}

// TestPartitionSeversAndHeals schedules a split over MemMedium and
// checks the cross-half pair loses its connection during the window and
// rediscovers after the heal, with the stats recording both edges.
func TestPartitionSeversAndHeals(t *testing.T) {
	m, err := Wrap(mpc.NewMemMedium(), Profile{
		Seed:       1,
		Partitions: []Partition{{At: 250 * time.Millisecond, Heal: 500 * time.Millisecond}},
	})
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	defer m.Close()

	// Find two peer names landing in opposite halves of the split.
	a, b := mpc.PeerID("node-0"), mpc.PeerID("")
	for i := 1; i < 64 && b == ""; i++ {
		cand := mpc.PeerID(fmt.Sprintf("node-%d", i))
		if mix64(uint64(m.prof.Seed)^peerHash(a)^saltGroup)&1 != mix64(uint64(m.prof.Seed)^peerHash(cand)^saltGroup)&1 {
			b = cand
		}
	}
	if b == "" {
		t.Fatalf("no cross-half peer name found")
	}

	recA, recB := mediumtest.NewRecorder(), mediumtest.NewRecorder()
	epA, err := m.Join(a, recA)
	if err != nil {
		t.Fatalf("Join(a): %v", err)
	}
	defer epA.Close()
	epB, err := m.Join(b, recB)
	if err != nil {
		t.Fatalf("Join(b): %v", err)
	}
	defer epB.Close()
	epB.SetAdvertisement([]byte("ad"))

	deadline := time.Now().Add(time.Second)
	for recA.FoundCount(b) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	conn, err := epA.Connect(b)
	if err != nil {
		t.Fatalf("Connect before split: %v", err)
	}

	// The split must tear the connection down and report the peer lost.
	deadline = time.Now().Add(time.Second)
	for recA.DisconnectCount(conn) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if recA.DisconnectCount(conn) == 0 {
		t.Fatalf("cross-half conn survived the partition")
	}

	// After the heal the peer is rediscoverable and connectable again.
	deadline = time.Now().Add(2 * time.Second)
	for recA.FoundCount(b) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if recA.FoundCount(b) < 2 {
		t.Fatalf("peer never rediscovered after heal")
	}
	if _, err := epA.Connect(b); err != nil {
		t.Fatalf("Connect after heal: %v", err)
	}
	st := m.Stats()
	if st.PartitionsStarted != 1 || st.PartitionsHealed != 1 {
		t.Fatalf("partition stats = %+v, want one started and one healed", st)
	}
}

// TestPresetsValidate checks every named preset builds a valid profile
// and unknown names are rejected.
func TestPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name, 10*time.Second, 42)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Preset(%q) invalid: %v", name, err)
		}
	}
	if _, err := Preset("no-such-profile", time.Second, 1); err == nil {
		t.Errorf("unknown preset accepted")
	}
	bad := Profile{Loss: 1.5}
	if err := bad.Validate(); err == nil {
		t.Errorf("loss 1.5 accepted")
	}
	if _, err := Wrap(mpc.NewMemMedium(), bad); err == nil {
		t.Errorf("Wrap accepted an invalid profile")
	}
}
