package netmedium

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/wire"
)

func TestBeaconRoundTrip(t *testing.T) {
	cases := []*beacon{
		{name: "alice-device", epoch: 42, advertising: true,
			ports: map[mpc.Technology]uint16{mpc.Bluetooth: 7500, mpc.InfrastructureWiFi: 7502},
			ad:    []byte("summary-bytes")},
		{name: "bob", epoch: 7, goodbye: true, ports: map[mpc.Technology]uint16{}},
		{name: "carol", epoch: 1, advertising: true, ports: map[mpc.Technology]uint16{mpc.PeerToPeerWiFi: 9000}, ad: []byte{}},
		{name: "dave", epoch: 9, ports: map[mpc.Technology]uint16{mpc.Bluetooth: 1}},
	}
	for _, want := range cases {
		buf, err := want.encode()
		if err != nil {
			t.Fatalf("encoding %s: %v", want.name, err)
		}
		got, err := parseBeacon(buf)
		if err != nil {
			t.Fatalf("parsing %s: %v", want.name, err)
		}
		// encode canonicalizes a nil/empty ad to empty; compare modulo that.
		if !bytes.Equal(got.ad, want.ad) && (len(got.ad) != 0 || len(want.ad) != 0) {
			t.Fatalf("%s: ad %q, want %q", want.name, got.ad, want.ad)
		}
		got.ad, want.ad = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestFullHintFitsOnePacket: the largest discovery hint the message
// manager builds — MaxBeaconSummary entries, no scheme gossip — from a
// device on every technology makes a datagram that crosses a 1500-byte
// MTU path unfragmented.
func TestFullHintFitsOnePacket(t *testing.T) {
	name := mpc.PeerID("a-device-name-of-thirty-two-bytes")
	hint := make(map[id.UserID]uint64, message.MaxBeaconSummary)
	for i := 0; i < message.MaxBeaconSummary; i++ {
		hint[id.NewUserID(fmt.Sprintf("author-%d", i))] = 1 << 40
	}
	ad, err := wire.Encode(&wire.Advertisement{Peer: string(name), Gen: 1 << 40, Summary: hint})
	if err != nil {
		t.Fatalf("encoding the hint: %v", err)
	}
	buf, err := (&beacon{name: name, epoch: 1 << 60, advertising: true, ad: ad, ports: map[mpc.Technology]uint16{
		mpc.Bluetooth: 7500, mpc.PeerToPeerWiFi: 7501, mpc.InfrastructureWiFi: 7502,
	}}).encode()
	if err != nil {
		t.Fatalf("encoding the beacon: %v", err)
	}
	if len(buf) > 1200 {
		t.Errorf("beacon datagram is %d B, want <= 1200 (one unfragmented UDP packet)", len(buf))
	}
}

func TestBeaconRejectsGarbage(t *testing.T) {
	good, err := (&beacon{name: "x", epoch: 3, ports: map[mpc.Technology]uint16{mpc.Bluetooth: 5}}).encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		[]byte("SOSB"),
		append([]byte("JUNK"), good[4:]...),
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xFF),
	}
	for i, buf := range bad {
		if _, err := parseBeacon(buf); err == nil {
			t.Errorf("case %d: garbage beacon accepted", i)
		}
	}
	if _, err := parseBeacon(good); err != nil {
		t.Fatalf("well-formed beacon rejected: %v", err)
	}
}

func TestPickTechnologyPrefersFastest(t *testing.T) {
	tech, port, err := pickTechnology(map[mpc.Technology]uint16{
		mpc.Bluetooth:          1000,
		mpc.PeerToPeerWiFi:     2000,
		mpc.InfrastructureWiFi: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tech != mpc.PeerToPeerWiFi || port != 2000 {
		t.Fatalf("picked %s:%d, want p2p-wifi:2000 (highest bitrate)", tech, port)
	}
	if _, _, err := pickTechnology(nil); err == nil {
		t.Fatal("empty port table accepted")
	}
}

// collector implements mpc.Events for endpoint-level tests.
type collector struct {
	mu    sync.Mutex
	found map[mpc.PeerID][]byte
	lost  map[mpc.PeerID]int
}

func newCollector() *collector {
	return &collector{found: make(map[mpc.PeerID][]byte), lost: make(map[mpc.PeerID]int)}
}

func (c *collector) PeerFound(peer mpc.PeerID, ad []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.found[peer] = bytes.Clone(ad)
}

func (c *collector) PeerLost(peer mpc.PeerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lost[peer]++
}

func (c *collector) Incoming(mpc.Conn)            {}
func (c *collector) Received(mpc.Conn, []byte)    {}
func (c *collector) Disconnected(mpc.Conn, error) {}

func (c *collector) adOf(peer mpc.PeerID) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.found[peer]
}

func (c *collector) lostCount(peer mpc.PeerID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost[peer]
}

func testConfig() Config {
	return Config{
		BeaconListen:   "127.0.0.1:0",
		ListenIP:       "127.0.0.1",
		BeaconInterval: 20 * time.Millisecond,
		LossTimeout:    120 * time.Millisecond,
	}
}

func waitCond(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrossInstanceDiscoveryAndLossTimeout runs two separate Medium
// instances — the real two-process shape — wired by explicit unicast
// beacon targets, and checks that silence (not a goodbye) also loses the
// peer after the loss timeout.
func TestCrossInstanceDiscoveryAndLossTimeout(t *testing.T) {
	mA, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	recA := newCollector()
	epA, err := mA.Join("alice", recA)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	cfgB := testConfig()
	cfgB.BeaconTargets = mA.BeaconAddrs()
	mB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	recB := newCollector()
	epB, err := mB.Join("bob", recB)
	if err != nil {
		t.Fatal(err)
	}
	if err := mA.AddBeaconTarget(mB.BeaconAddrs()[0]); err != nil {
		t.Fatal(err)
	}

	epA.SetAdvertisement([]byte("from-alice"))
	epB.SetAdvertisement([]byte("from-bob"))
	waitCond(t, "cross-instance discovery", func() bool {
		return bytes.Equal(recB.adOf("alice"), []byte("from-alice")) &&
			bytes.Equal(recA.adOf("bob"), []byte("from-bob"))
	})

	// Kill bob's sockets without a goodbye: alice must reap him once his
	// beacons stay silent past the loss timeout.
	epB.(*Endpoint).releaseSockets()
	waitCond(t, "loss timeout to fire", func() bool { return recA.lostCount("bob") >= 1 })
}

// TestFramesSurviveBeaconSilence checks that an established session is
// independent of discovery: frames keep flowing even after the peer stops
// advertising.
func TestFramesSurviveBeaconSilence(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	recA, recB := mediumRecorder(), mediumRecorder()
	epA, err := m.Join("alice", recA)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := m.Join("bob", recB)
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	epB.SetAdvertisement([]byte("hi"))
	waitCond(t, "alice to find bob", func() bool { return recA.hasFound("bob") })
	conn, err := epA.Connect("bob")
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "incoming at bob", func() bool { return recB.firstIncoming() != nil })

	epB.SetAdvertisement(nil) // discovery goes quiet; the session must not care
	waitCond(t, "alice to lose bob", func() bool { return recA.lostCountOf("bob") >= 1 })

	if err := conn.Send([]byte("still-here")); err != nil {
		t.Fatalf("send after beacon silence: %v", err)
	}
	waitCond(t, "frame delivery over the surviving session", func() bool {
		fr := recB.framesOn(recB.firstIncoming())
		return len(fr) == 1 && bytes.Equal(fr[0], []byte("still-here"))
	})
}

// TestRefusedDialStaysRetryable: a crafted beacon advertises a port
// where nothing listens. Connect tries it once and returns the transport
// error, neither ErrPeerGone nor ErrPeerUnknown, so the caller's retry
// clock keeps the peer armed; the next Connect counts as a retry.
func TestRefusedDialStaysRetryable(t *testing.T) {
	cfg := testConfig()
	cfg.LossTimeout = time.Minute // the crafted beacon stays cached
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := newCollector()
	ep, err := m.Join("alice", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := lis.Addr().(*net.TCPAddr).Port
	lis.Close() // nothing listens there now
	buf, err := (&beacon{name: "ghost", epoch: 1, advertising: true, ad: []byte("g"),
		ports: map[mpc.Technology]uint16{mpc.PeerToPeerWiFi: uint16(port)}}).encode()
	if err != nil {
		t.Fatal(err)
	}
	udp, err := net.Dial("udp", m.BeaconAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	waitCond(t, "alice to find the ghost", func() bool {
		udp.Write(buf)
		return rec.adOf("ghost") != nil
	})

	_, err = ep.Connect("ghost")
	if err == nil || errors.Is(err, mpc.ErrPeerGone) || errors.Is(err, mpc.ErrPeerUnknown) {
		t.Fatalf("refused dial: err = %v, want a transport error that is neither ErrPeerGone nor ErrPeerUnknown", err)
	}
	if s := m.Stats(); s.DialFailures != 1 || s.DialRetries != 0 {
		t.Fatalf("after one refused Connect: DialFailures %d, DialRetries %d; want 1 and 0 (one TCP attempt)", s.DialFailures, s.DialRetries)
	}
	if _, err := ep.Connect("ghost"); err == nil {
		t.Fatal("second Connect to a port where nothing listens succeeded")
	}
	if s := m.Stats(); s.DialFailures != 2 || s.DialRetries != 1 {
		t.Fatalf("after the re-dial: DialFailures %d, DialRetries %d; want 2 and 1", s.DialFailures, s.DialRetries)
	}
}

// mediumRecorder is a tiny local stand-in for mediumtest.Recorder (kept
// package-local to avoid an import cycle through the conformance suite's
// helpers).
type frameRecorder struct {
	mu       sync.Mutex
	found    map[mpc.PeerID]bool
	lost     map[mpc.PeerID]int
	incoming []mpc.Conn
	frames   map[mpc.Conn][][]byte
}

func mediumRecorder() *frameRecorder {
	return &frameRecorder{
		found:  make(map[mpc.PeerID]bool),
		lost:   make(map[mpc.PeerID]int),
		frames: make(map[mpc.Conn][][]byte),
	}
}

func (r *frameRecorder) PeerFound(peer mpc.PeerID, _ []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.found[peer] = true
}

func (r *frameRecorder) PeerLost(peer mpc.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lost[peer]++
}

func (r *frameRecorder) Incoming(conn mpc.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.incoming = append(r.incoming, conn)
}

func (r *frameRecorder) Received(conn mpc.Conn, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames[conn] = append(r.frames[conn], bytes.Clone(frame))
}

func (r *frameRecorder) Disconnected(mpc.Conn, error) {}

func (r *frameRecorder) hasFound(peer mpc.PeerID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.found[peer]
}

func (r *frameRecorder) lostCountOf(peer mpc.PeerID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lost[peer]
}

func (r *frameRecorder) firstIncoming() mpc.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.incoming) == 0 {
		return nil
	}
	return r.incoming[0]
}

func (r *frameRecorder) framesOn(conn mpc.Conn) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]byte, len(r.frames[conn]))
	copy(out, r.frames[conn])
	return out
}

// TestPreambleExchange checks the session name exchange directly.
func TestPreambleExchange(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		if err := writePreamble(client, mpc.Bluetooth, "alice"); err != nil {
			t.Errorf("writing preamble: %v", err)
		}
	}()
	tech, peer, err := readPreamble(server)
	if err != nil {
		t.Fatalf("reading preamble: %v", err)
	}
	if tech != mpc.Bluetooth || peer != "alice" {
		t.Fatalf("preamble = (%s, %s), want (bluetooth, alice)", tech, peer)
	}
}
