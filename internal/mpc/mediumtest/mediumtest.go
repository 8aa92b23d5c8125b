// Package mediumtest is the shared conformance suite for mpc.Medium
// implementations. Every medium — the in-process MemMedium, the
// virtual-time SimMedium, and the real-socket netmedium.Medium — must
// deliver the same discovery, connection, and teardown semantics (see the
// contract in package mpc's documentation); running this suite against
// each implementation is what lets the layers above treat them as
// interchangeable.
//
// The suite abstracts over the media's different notions of time and
// reachability with the World interface: Link/Unlink stage radio range,
// and Step lets pending events propagate (a short real-time sleep for
// live media, a virtual-clock advance for the simulator).
package mediumtest

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"sos/internal/mpc"
)

// World adapts one medium implementation to the suite.
type World interface {
	// Join attaches a device. The suite joins every device before any
	// advertising begins; devices start out of range of each other.
	Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error)
	// Link brings two joined devices into radio range.
	Link(a, b mpc.PeerID)
	// Unlink takes two devices out of range.
	Unlink(a, b mpc.PeerID)
	// Step gives the medium a chance to deliver pending events.
	Step()
	// Close tears the world down after a subtest.
	Close()
}

// waitDeadline bounds every eventual-condition wait in wall time.
const waitDeadline = 10 * time.Second

// Run exercises the full conformance suite, building a fresh World per
// subtest.
func Run(t *testing.T, mk func(t *testing.T) World) {
	t.Run("Discovery", func(t *testing.T) { testDiscovery(t, mk(t)) })
	t.Run("LateJoiner", func(t *testing.T) { testLateJoiner(t, mk(t)) })
	t.Run("ConnectAndFrames", func(t *testing.T) { testConnectAndFrames(t, mk(t)) })
	t.Run("Errors", func(t *testing.T) { testErrors(t, mk(t)) })
	t.Run("UnlinkTeardown", func(t *testing.T) { testUnlinkTeardown(t, mk(t)) })
	t.Run("EndpointClose", func(t *testing.T) { testEndpointClose(t, mk(t)) })
}

// waitFor pumps the world until cond holds or the deadline expires.
func waitFor(t *testing.T, w World, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		w.Step()
	}
}

// settle pumps the world a few extra rounds so any stray events land
// before a negative assertion.
func settle(w World) {
	for i := 0; i < 5; i++ {
		w.Step()
	}
}

// Recorder is a thread-safe mpc.Events implementation that logs every
// callback.
type Recorder struct {
	mu       sync.Mutex
	found    []foundEvent
	lost     []mpc.PeerID
	incoming []mpc.Conn
	frames   map[mpc.Conn][][]byte
	closes   map[mpc.Conn][]error
}

type foundEvent struct {
	peer mpc.PeerID
	ad   []byte
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		frames: make(map[mpc.Conn][][]byte),
		closes: make(map[mpc.Conn][]error),
	}
}

// PeerFound implements mpc.Events.
func (r *Recorder) PeerFound(peer mpc.PeerID, ad []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.found = append(r.found, foundEvent{peer: peer, ad: bytes.Clone(ad)})
}

// PeerLost implements mpc.Events.
func (r *Recorder) PeerLost(peer mpc.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lost = append(r.lost, peer)
}

// Incoming implements mpc.Events.
func (r *Recorder) Incoming(conn mpc.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.incoming = append(r.incoming, conn)
}

// Received implements mpc.Events. The frame is the callee's own (see
// mpc.Events), so the recorder keeps a copy and then overwrites it, as a
// receiver that decrypts in place does: a medium that delivers one buffer
// twice, or reuses it, shows as a damaged frame.
func (r *Recorder) Received(conn mpc.Conn, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames[conn] = append(r.frames[conn], bytes.Clone(frame))
	clear(frame)
}

// Disconnected implements mpc.Events.
func (r *Recorder) Disconnected(conn mpc.Conn, reason error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closes[conn] = append(r.closes[conn], reason)
}

// FoundCount returns how many PeerFound events peer has produced.
func (r *Recorder) FoundCount(peer mpc.PeerID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.found {
		if ev.peer == peer {
			n++
		}
	}
	return n
}

// LastAd returns the most recent advertisement seen from peer.
func (r *Recorder) LastAd(peer mpc.PeerID) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.found) - 1; i >= 0; i-- {
		if r.found[i].peer == peer {
			return r.found[i].ad
		}
	}
	return nil
}

// LostCount returns how many PeerLost events peer has produced.
func (r *Recorder) LostCount(peer mpc.PeerID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.lost {
		if p == peer {
			n++
		}
	}
	return n
}

// IncomingConns snapshots the inbound connections delivered so far.
func (r *Recorder) IncomingConns() []mpc.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]mpc.Conn, len(r.incoming))
	copy(out, r.incoming)
	return out
}

// Frames snapshots the frames received on conn, in delivery order.
func (r *Recorder) Frames(conn mpc.Conn) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	src := r.frames[conn]
	out := make([][]byte, len(src))
	copy(out, src)
	return out
}

// DisconnectCount returns how many Disconnected events conn has produced.
func (r *Recorder) DisconnectCount(conn mpc.Conn) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.closes[conn])
}

// device bundles one joined endpoint with its recorder.
type device struct {
	name mpc.PeerID
	ep   mpc.Endpoint
	rec  *Recorder
}

func join(t *testing.T, w World, name mpc.PeerID) *device {
	t.Helper()
	rec := NewRecorder()
	ep, err := w.Join(name, rec)
	if err != nil {
		t.Fatalf("joining %s: %v", name, err)
	}
	return &device{name: name, ep: ep, rec: rec}
}

func testDiscovery(t *testing.T, w World) {
	defer w.Close()
	a := join(t, w, "alice")
	b := join(t, w, "bob")
	w.Link(a.name, b.name)

	// A peer that advertises is found with its payload.
	a.ep.SetAdvertisement([]byte("ad-a-1"))
	waitFor(t, w, "bob to find alice", func() bool {
		return bytes.Equal(b.rec.LastAd(a.name), []byte("ad-a-1"))
	})
	// A silent peer is never "found".
	settle(w)
	if n := a.rec.FoundCount(b.name); n != 0 {
		t.Fatalf("alice found silent bob %d times", n)
	}

	// A changed advertisement surfaces as a fresh PeerFound.
	a.ep.SetAdvertisement([]byte("ad-a-2"))
	waitFor(t, w, "bob to see alice's updated ad", func() bool {
		return bytes.Equal(b.rec.LastAd(a.name), []byte("ad-a-2"))
	})

	// Discovery is symmetric once both advertise.
	b.ep.SetAdvertisement([]byte("ad-b-1"))
	waitFor(t, w, "alice to find bob", func() bool {
		return bytes.Equal(a.rec.LastAd(b.name), []byte("ad-b-1"))
	})

	// Withdrawing the advertisement fires PeerLost on peers in range.
	a.ep.SetAdvertisement(nil)
	waitFor(t, w, "bob to lose alice", func() bool {
		return b.rec.LostCount(a.name) >= 1
	})
	settle(w)
	if n := a.rec.LostCount(b.name); n != 0 {
		t.Fatalf("alice lost still-advertising bob %d times", n)
	}
}

func testLateJoiner(t *testing.T, w World) {
	defer w.Close()
	a := join(t, w, "alice")
	a.ep.SetAdvertisement([]byte("ad-a")) // advertising before bob exists
	b := join(t, w, "bob")
	w.Link(a.name, b.name)
	waitFor(t, w, "late joiner to find the advertiser", func() bool {
		return bytes.Equal(b.rec.LastAd(a.name), []byte("ad-a"))
	})
}

func testConnectAndFrames(t *testing.T, w World) {
	defer w.Close()
	a := join(t, w, "alice")
	b := join(t, w, "bob")
	w.Link(a.name, b.name)
	b.ep.SetAdvertisement([]byte("ad-b"))
	waitFor(t, w, "alice to find bob", func() bool { return a.rec.FoundCount(b.name) >= 1 })

	conn, err := a.ep.Connect(b.name)
	if err != nil {
		t.Fatalf("alice connecting to bob: %v", err)
	}
	if conn.Peer() != b.name {
		t.Fatalf("initiator conn.Peer() = %s, want %s", conn.Peer(), b.name)
	}
	if !conn.Initiator() {
		t.Fatal("initiator conn reports Initiator() = false")
	}
	waitFor(t, w, "bob to see the incoming connection", func() bool {
		return len(b.rec.IncomingConns()) >= 1
	})
	in := b.rec.IncomingConns()[0]
	if in.Peer() != a.name {
		t.Fatalf("responder conn.Peer() = %s, want %s", in.Peer(), a.name)
	}
	if in.Initiator() {
		t.Fatal("responder conn reports Initiator() = true")
	}

	// Frames flow both ways, in order. Send copies what it keeps: each
	// side sends from one buffer it overwrites after every Send, the
	// receiving Recorder overwrites every frame it gets, and all frames
	// still arrive intact.
	sent := [][]byte{[]byte("f1"), []byte("f2"), []byte("f3")}
	sendAll(t, conn, sent)
	waitFor(t, w, "bob to receive 3 frames", func() bool { return len(b.rec.Frames(in)) >= 3 })
	for i, f := range b.rec.Frames(in) {
		if !bytes.Equal(f, sent[i]) {
			t.Fatalf("frame %d = %q, want %q (out of order?)", i, f, sent[i])
		}
	}
	reply := [][]byte{[]byte("r1"), []byte("r2")}
	sendAll(t, in, reply)
	waitFor(t, w, "alice to receive 2 frames", func() bool { return len(a.rec.Frames(conn)) >= 2 })
	for i, f := range a.rec.Frames(conn) {
		if !bytes.Equal(f, reply[i]) {
			t.Fatalf("reply frame %d = %q, want %q", i, f, reply[i])
		}
	}

	// Closing one side surfaces Disconnected exactly once on each side.
	if err := conn.Close(); err != nil {
		t.Fatalf("closing conn: %v", err)
	}
	waitFor(t, w, "both sides to observe the disconnect", func() bool {
		return a.rec.DisconnectCount(conn) >= 1 && b.rec.DisconnectCount(in) >= 1
	})
	settle(w)
	if n := a.rec.DisconnectCount(conn); n != 1 {
		t.Fatalf("initiator saw %d Disconnected events, want 1", n)
	}
	if n := b.rec.DisconnectCount(in); n != 1 {
		t.Fatalf("responder saw %d Disconnected events, want 1", n)
	}
	if err := conn.Send([]byte("late")); !errors.Is(err, mpc.ErrClosed) {
		t.Fatalf("Send on closed conn: got %v, want ErrClosed", err)
	}
}

// sendAll sends frames through one reused buffer, scribbled over after
// every Send.
func sendAll(t *testing.T, conn mpc.Conn, frames [][]byte) {
	t.Helper()
	var buf []byte
	for _, f := range frames {
		buf = append(buf[:0], f...)
		if err := conn.Send(buf); err != nil {
			t.Fatalf("Send(%q): %v", f, err)
		}
		clear(buf)
	}
}

func testErrors(t *testing.T, w World) {
	defer w.Close()
	a := join(t, w, "alice")
	b := join(t, w, "bob")

	if _, err := a.ep.Connect(a.name); !errors.Is(err, mpc.ErrSelfConnect) {
		t.Fatalf("self connect: got %v, want ErrSelfConnect", err)
	}
	if _, err := a.ep.Connect("ghost"); !errors.Is(err, mpc.ErrPeerUnknown) {
		t.Fatalf("connect to unknown peer: got %v, want ErrPeerUnknown", err)
	}
	if _, err := w.Join(a.name, NewRecorder()); !errors.Is(err, mpc.ErrDuplicatePeer) {
		t.Fatalf("duplicate join: got %v, want ErrDuplicatePeer", err)
	}

	// A discovered peer that went out of range is gone, not unknown.
	w.Link(a.name, b.name)
	b.ep.SetAdvertisement([]byte("ad-b"))
	waitFor(t, w, "alice to find bob", func() bool { return a.rec.FoundCount(b.name) >= 1 })
	w.Unlink(a.name, b.name)
	if _, err := a.ep.Connect(b.name); !errors.Is(err, mpc.ErrPeerGone) {
		t.Fatalf("connect out of range: got %v, want ErrPeerGone", err)
	}

	if err := a.ep.Close(); err != nil {
		t.Fatalf("closing endpoint: %v", err)
	}
	if _, err := a.ep.Connect(b.name); !errors.Is(err, mpc.ErrClosed) {
		t.Fatalf("connect after close: got %v, want ErrClosed", err)
	}
}

func testUnlinkTeardown(t *testing.T, w World) {
	defer w.Close()
	a := join(t, w, "alice")
	b := join(t, w, "bob")
	w.Link(a.name, b.name)
	a.ep.SetAdvertisement([]byte("ad-a"))
	b.ep.SetAdvertisement([]byte("ad-b"))
	waitFor(t, w, "mutual discovery", func() bool {
		return a.rec.FoundCount(b.name) >= 1 && b.rec.FoundCount(a.name) >= 1
	})
	conn, err := a.ep.Connect(b.name)
	if err != nil {
		t.Fatalf("connecting: %v", err)
	}
	waitFor(t, w, "incoming connection", func() bool { return len(b.rec.IncomingConns()) >= 1 })
	in := b.rec.IncomingConns()[0]

	// Going out of range kills connections and loses both peers.
	w.Unlink(a.name, b.name)
	waitFor(t, w, "loss and disconnects after unlink", func() bool {
		return a.rec.LostCount(b.name) >= 1 && b.rec.LostCount(a.name) >= 1 &&
			a.rec.DisconnectCount(conn) >= 1 && b.rec.DisconnectCount(in) >= 1
	})

	// Coming back into range rediscovers both advertisers.
	w.Link(a.name, b.name)
	waitFor(t, w, "rediscovery after relink", func() bool {
		return a.rec.FoundCount(b.name) >= 2 && b.rec.FoundCount(a.name) >= 2
	})
}

func testEndpointClose(t *testing.T, w World) {
	defer w.Close()
	a := join(t, w, "alice")
	b := join(t, w, "bob")
	w.Link(a.name, b.name)
	b.ep.SetAdvertisement([]byte("ad-b"))
	waitFor(t, w, "alice to find bob", func() bool { return a.rec.FoundCount(b.name) >= 1 })
	conn, err := a.ep.Connect(b.name)
	if err != nil {
		t.Fatalf("connecting: %v", err)
	}
	waitFor(t, w, "incoming connection", func() bool { return len(b.rec.IncomingConns()) >= 1 })

	// Detaching an advertising endpoint loses the peer and drops its
	// connections on the surviving side.
	if err := b.ep.Close(); err != nil {
		t.Fatalf("closing bob: %v", err)
	}
	waitFor(t, w, "alice to lose closed bob", func() bool {
		return a.rec.LostCount(b.name) >= 1 && a.rec.DisconnectCount(conn) >= 1
	})
	if err := b.ep.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
