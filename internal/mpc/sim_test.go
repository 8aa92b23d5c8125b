package mpc

import (
	"errors"
	"testing"
	"time"

	"sos/internal/clock"
)

// simRecorder collects events for single-threaded sim-medium tests.
type simRecorder struct {
	found        map[PeerID][]byte
	finds        map[PeerID]int
	lost         map[PeerID]int
	incoming     []Conn
	frames       [][]byte
	disconnected []error
}

func newSimRecorder() *simRecorder {
	return &simRecorder{found: make(map[PeerID][]byte), finds: make(map[PeerID]int), lost: make(map[PeerID]int)}
}

func (r *simRecorder) PeerFound(peer PeerID, ad []byte) { r.found[peer] = ad; r.finds[peer]++ }
func (r *simRecorder) PeerLost(peer PeerID)             { r.lost[peer]++ }
func (r *simRecorder) Incoming(conn Conn)               { r.incoming = append(r.incoming, conn) }
func (r *simRecorder) Received(_ Conn, frame []byte)    { r.frames = append(r.frames, frame) }
func (r *simRecorder) Disconnected(_ Conn, reason error) {
	r.disconnected = append(r.disconnected, reason)
}

var simEpoch = time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC)

func newSimWorld(t *testing.T) (*SimMedium, *clock.Virtual, *simRecorder, *simRecorder, Endpoint, Endpoint) {
	t.Helper()
	clk := clock.NewVirtual(simEpoch)
	m := NewSimMedium(clk)
	ra, rb := newSimRecorder(), newSimRecorder()
	epA, err := m.Join("a", ra)
	if err != nil {
		t.Fatalf("Join(a): %v", err)
	}
	epB, err := m.Join("b", rb)
	if err != nil {
		t.Fatalf("Join(b): %v", err)
	}
	return m, clk, ra, rb, epA, epB
}

// run drains the medium for d of virtual time.
func run(m *SimMedium, clk *clock.Virtual, d time.Duration) {
	upto := clk.Now().Add(d)
	m.RunUntil(upto)
	clk.Set(upto)
}

func TestSimDiscoveryAfterLink(t *testing.T) {
	m, clk, ra, rb, epA, epB := newSimWorld(t)
	epA.SetAdvertisement([]byte("ad-a"))
	epB.SetAdvertisement([]byte("ad-b"))
	run(m, clk, 2*time.Second)
	if len(ra.found)+len(rb.found) != 0 {
		t.Fatal("discovery happened without a link")
	}

	m.SetLink("a", "b", Bluetooth)
	run(m, clk, 2*time.Second)
	if string(rb.found["a"]) != "ad-a" {
		t.Errorf("b found a = %q, want ad-a", rb.found["a"])
	}
	if string(ra.found["b"]) != "ad-b" {
		t.Errorf("a found b = %q, want ad-b", ra.found["b"])
	}
}

func TestSimDiscoveryDelayRespected(t *testing.T) {
	m, clk, _, rb, epA, _ := newSimWorld(t)
	epA.SetAdvertisement([]byte("ad-a"))
	m.SetLink("a", "b", Bluetooth)

	run(m, clk, DefaultDiscoveryDelay/2)
	if len(rb.found) != 0 {
		t.Error("peer found before the discovery delay elapsed")
	}
	run(m, clk, DefaultDiscoveryDelay)
	if len(rb.found) != 1 {
		t.Error("peer not found after the discovery delay")
	}
}

func TestSimLinkCutBeforeDiscovery(t *testing.T) {
	m, clk, _, rb, epA, _ := newSimWorld(t)
	epA.SetAdvertisement([]byte("ad-a"))
	m.SetLink("a", "b", Bluetooth)
	// Cut before the discovery event fires: nothing should surface.
	m.CutLink("a", "b")
	run(m, clk, 5*time.Second)
	if len(rb.found) != 0 {
		t.Error("peer discovered on a link that was cut before discovery")
	}
}

func TestSimConnectAndTransfer(t *testing.T) {
	m, clk, ra, rb, epA, _ := newSimWorld(t)
	m.SetLink("a", "b", PeerToPeerWiFi)
	run(m, clk, 2*time.Second)

	conn, err := epA.Connect("b")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	run(m, clk, time.Second)
	if len(rb.incoming) != 1 {
		t.Fatalf("incoming connections = %d, want 1", len(rb.incoming))
	}

	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	run(m, clk, time.Second)
	if len(rb.frames) != 1 || string(rb.frames[0]) != "ping" {
		t.Fatalf("frames = %q, want [ping]", rb.frames)
	}

	if err := rb.incoming[0].Send([]byte("pong")); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	run(m, clk, time.Second)
	if len(ra.frames) != 1 || string(ra.frames[0]) != "pong" {
		t.Fatalf("reply frames = %q, want [pong]", ra.frames)
	}

	stats := m.Stats()
	if stats.FramesDelivered != 2 || stats.Connections != 1 {
		t.Errorf("stats = %+v, want 2 frames / 1 connection", stats)
	}
}

func TestSimConnectRequiresLink(t *testing.T) {
	_, _, _, _, epA, _ := newSimWorld(t)
	if _, err := epA.Connect("b"); !errors.Is(err, ErrPeerGone) {
		t.Errorf("Connect without link: err = %v, want ErrPeerGone", err)
	}
	if _, err := epA.Connect("a"); !errors.Is(err, ErrSelfConnect) {
		t.Errorf("self connect: err = %v, want ErrSelfConnect", err)
	}
	if _, err := epA.Connect("ghost"); !errors.Is(err, ErrPeerUnknown) {
		t.Errorf("unknown peer: err = %v, want ErrPeerUnknown", err)
	}
}

func TestSimTransferTimeScalesWithSize(t *testing.T) {
	m, clk, _, rb, epA, _ := newSimWorld(t)
	m.SetLink("a", "b", Bluetooth) // 250 KiB/s
	run(m, clk, 2*time.Second)
	conn, err := epA.Connect("b")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	run(m, clk, time.Second)

	// 250 KiB at 250 KiB/s ≈ 1 s; must not arrive after only 200 ms.
	if err := conn.Send(make([]byte, 250<<10)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	run(m, clk, 200*time.Millisecond)
	if len(rb.frames) != 0 {
		t.Error("quarter-MiB frame arrived instantly over bluetooth")
	}
	run(m, clk, 2*time.Second)
	if len(rb.frames) != 1 {
		t.Error("frame never arrived")
	}
}

func TestSimInFlightFrameLostOnCut(t *testing.T) {
	m, clk, ra, rb, epA, _ := newSimWorld(t)
	m.SetLink("a", "b", Bluetooth)
	run(m, clk, 2*time.Second)
	conn, err := epA.Connect("b")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	run(m, clk, time.Second)

	if err := conn.Send(make([]byte, 500<<10)); err != nil { // ~2 s transfer
		t.Fatalf("Send: %v", err)
	}
	run(m, clk, 500*time.Millisecond)
	m.CutLink("a", "b") // cut mid-transfer
	run(m, clk, 5*time.Second)

	if len(rb.frames) != 0 {
		t.Error("frame delivered despite mid-transfer cut")
	}
	if m.Stats().FramesDropped != 1 {
		t.Errorf("FramesDropped = %d, want 1", m.Stats().FramesDropped)
	}
	if len(ra.disconnected) == 0 {
		t.Error("initiator never observed the disconnect")
	}
	if err := conn.Send([]byte("x")); err == nil {
		t.Error("Send on dead connection succeeded")
	}
}

func TestSimRelinkEpochIsolation(t *testing.T) {
	m, clk, _, rb, epA, _ := newSimWorld(t)
	m.SetLink("a", "b", Bluetooth)
	run(m, clk, 2*time.Second)
	conn, err := epA.Connect("b")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	run(m, clk, time.Second)

	if err := conn.Send(make([]byte, 500<<10)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m.CutLink("a", "b")
	m.SetLink("a", "b", Bluetooth) // immediate re-link: new epoch
	run(m, clk, 10*time.Second)

	if len(rb.frames) != 0 {
		t.Error("stale frame crossed into the new link epoch")
	}
	// The old connection must stay dead even though the link is back.
	if err := conn.Send([]byte("x")); err == nil {
		t.Error("connection survived a link cut")
	}
}

func TestSimPeerLostOnCut(t *testing.T) {
	m, clk, ra, rb, epA, epB := newSimWorld(t)
	epA.SetAdvertisement([]byte("ad-a"))
	epB.SetAdvertisement([]byte("ad-b"))
	m.SetLink("a", "b", Bluetooth)
	run(m, clk, 2*time.Second)

	m.CutLink("a", "b")
	run(m, clk, time.Second)
	if rb.lost["a"] != 1 || ra.lost["b"] != 1 {
		t.Errorf("lost counts a->%d b->%d, want 1/1", ra.lost["b"], rb.lost["a"])
	}
}

func TestSimAdvertisementUpdatePropagates(t *testing.T) {
	m, clk, _, rb, epA, _ := newSimWorld(t)
	m.SetLink("a", "b", Bluetooth)
	epA.SetAdvertisement([]byte("v1"))
	run(m, clk, 2*time.Second)
	if string(rb.found["a"]) != "v1" {
		t.Fatalf("initial ad = %q, want v1", rb.found["a"])
	}
	epA.SetAdvertisement([]byte("v2"))
	run(m, clk, 2*time.Second)
	if string(rb.found["a"]) != "v2" {
		t.Errorf("updated ad = %q, want v2", rb.found["a"])
	}
}

// TestSimOneAdvertisementOnePeerFound: a device that advertises while its
// new link is still inside the discovery delay is found once, with that
// advertisement, when the delay ends; a later change is found once more.
func TestSimOneAdvertisementOnePeerFound(t *testing.T) {
	m, clk, _, rb, epA, _ := newSimWorld(t)
	m.SetLink("a", "b", Bluetooth)
	run(m, clk, DefaultDiscoveryDelay/2)
	epA.SetAdvertisement([]byte("v1"))
	run(m, clk, 3*DefaultDiscoveryDelay)
	if rb.finds["a"] != 1 || string(rb.found["a"]) != "v1" {
		t.Fatalf("b found a %d times, last with %q; want once, with v1", rb.finds["a"], rb.found["a"])
	}
	epA.SetAdvertisement([]byte("v2"))
	run(m, clk, 3*DefaultDiscoveryDelay)
	if rb.finds["a"] != 2 || string(rb.found["a"]) != "v2" {
		t.Errorf("after a change b found a %d times, last with %q; want twice, with v2", rb.finds["a"], rb.found["a"])
	}
}

func TestSimContactHookAndStats(t *testing.T) {
	clk := clock.NewVirtual(simEpoch)
	m := NewSimMedium(clk)
	var contacts []Contact
	m.OnContact = func(c Contact) { contacts = append(contacts, c) }

	if _, err := m.Join("a", newSimRecorder()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if _, err := m.Join("b", newSimRecorder()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	m.SetLink("a", "b", InfrastructureWiFi)
	m.SetLink("a", "b", InfrastructureWiFi) // duplicate is a no-op
	m.CutLink("a", "b")
	m.CutLink("a", "b") // duplicate is a no-op

	if len(contacts) != 2 || !contacts[0].Up || contacts[1].Up {
		t.Errorf("contacts = %+v, want one up then one down", contacts)
	}
	stats := m.Stats()
	if stats.ContactsUp != 1 || stats.ContactsDown != 1 {
		t.Errorf("stats = %+v, want 1 up / 1 down", stats)
	}
}

func TestSimDeterminism(t *testing.T) {
	type runResult struct {
		frames  int
		found   int
		dropped uint64
	}
	execute := func() runResult {
		clk := clock.NewVirtual(simEpoch)
		m := NewSimMedium(clk)
		ra, rb := newSimRecorder(), newSimRecorder()
		epA, _ := m.Join("a", ra)
		epB, _ := m.Join("b", rb)
		epA.SetAdvertisement([]byte("a"))
		epB.SetAdvertisement([]byte("b"))
		m.SetLink("a", "b", Bluetooth)
		m.RunUntil(clk.Now().Add(2 * time.Second))
		conn, err := epA.Connect("b")
		if err != nil {
			return runResult{}
		}
		for i := 0; i < 20; i++ {
			_ = conn.Send(make([]byte, 1024))
		}
		m.RunUntil(clk.Now().Add(time.Minute))
		return runResult{frames: len(rb.frames), found: len(rb.found), dropped: m.Stats().FramesDropped}
	}
	first := execute()
	if first.frames != 20 {
		t.Fatalf("frames = %d, want 20", first.frames)
	}
	for i := 0; i < 3; i++ {
		if got := execute(); got != first {
			t.Fatalf("run %d = %+v, want %+v", i, got, first)
		}
	}
}

func TestTechnologyProperties(t *testing.T) {
	techs := []Technology{Bluetooth, PeerToPeerWiFi, InfrastructureWiFi}
	for _, tech := range techs {
		if tech.Bitrate() <= 0 {
			t.Errorf("%s bitrate = %f, want > 0", tech, tech.Bitrate())
		}
		if tech.String() == "unknown" {
			t.Errorf("missing name for technology %d", tech)
		}
	}
	if Technology(0).String() != "unknown" || Technology(0).Bitrate() != 0 {
		t.Error("zero technology should be unknown/0")
	}
}
