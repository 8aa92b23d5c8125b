// Package mpc provides the device-to-device substrate SOS runs on. On
// iOS, the ad hoc manager drives Apple's Multipeer Connectivity framework
// (paper §III-D), which offers peer discovery, connection establishment,
// and reliable framed sessions over Bluetooth, peer-to-peer WiFi, and
// infrastructure WiFi. MPC is closed and hardware-bound, so this package
// defines the same surface as an interface with three implementations:
//
//   - MemMedium: a live, goroutine-driven medium where reachability is
//     toggled explicitly. Examples and integration tests use it to run the
//     unmodified SOS stack in real time.
//   - SimMedium: a deterministic, virtual-time medium with per-technology
//     bitrates and in-flight frame modelling, driven by the discrete-event
//     simulator. The in vivo evaluation is reproduced on top of it.
//   - netmedium.Medium (package sos/internal/netmedium): a real-socket
//     medium — UDP beaconing for discovery, one TCP session listener per
//     device — so the unmodified stack runs in vivo across OS processes
//     and machines.
//
// All implementations deliver the exact events and byte frames the ad hoc
// manager consumes, so every layer above runs identically on any of them.
//
// # The Medium contract
//
// Every implementation must satisfy the semantics below; the shared
// conformance suite in sos/internal/mpc/mediumtest checks them against
// all three media.
//
//   - Callbacks on one endpoint's Events are serialized and arrive in
//     causal order (Incoming before that connection's Received; Received
//     in Send order per connection; Disconnected after the connection's
//     final frame).
//   - PeerFound fires only for peers with a published advertisement: when
//     a reachable peer first advertises, when its advertisement payload
//     changes, and when reachability to an advertising peer is restored.
//   - PeerLost fires when an advertising peer withdraws its advertisement
//     (SetAdvertisement(nil)), detaches with Close, or becomes
//     unreachable.
//   - Connect succeeds toward any known reachable peer — advertising or
//     not — and fails with ErrPeerUnknown for never-seen peers,
//     ErrPeerGone for out-of-range ones, ErrSelfConnect for the local
//     device, and ErrClosed after endpoint Close. Connect tries once: a
//     transport failure toward an in-range peer (a refused or reset
//     socket) is returned as is and is worth retrying.
//   - Conn.Send never blocks; delivery is asynchronous, stops silently if
//     the link breaks, and the break then surfaces as Disconnected on
//     both sides exactly once per side.
//   - Join rejects duplicate live peer names with ErrDuplicatePeer; after
//     an endpoint closes, its name may join again.
package mpc

import (
	"errors"
	"time"
)

// PeerID names a device on the medium (MPC's MCPeerID display name).
// Devices and users are distinct concepts: the binding of a device to a
// user happens cryptographically during the SOS handshake.
type PeerID string

// Technology enumerates the radio technologies MPC multiplexes.
type Technology int

// Radio technologies with the approximate characteristics used by the
// simulated medium.
const (
	Bluetooth Technology = iota + 1
	PeerToPeerWiFi
	InfrastructureWiFi
)

// String names the technology.
func (t Technology) String() string {
	switch t {
	case Bluetooth:
		return "bluetooth"
	case PeerToPeerWiFi:
		return "p2p-wifi"
	case InfrastructureWiFi:
		return "infra-wifi"
	default:
		return "unknown"
	}
}

// Bitrate returns the nominal usable bitrate in bytes per second; the
// simulated medium uses it to model transfer time.
func (t Technology) Bitrate() float64 {
	switch t {
	case Bluetooth:
		return 250 << 10 // ~2 Mbit/s usable
	case PeerToPeerWiFi:
		return 4 << 20 // ~32 Mbit/s usable
	case InfrastructureWiFi:
		return 2 << 20 // shared AP, ~16 Mbit/s usable
	default:
		return 0
	}
}

// Errors returned by media.
var (
	ErrPeerUnknown   = errors.New("mpc: peer not present on medium")
	ErrPeerGone      = errors.New("mpc: peer out of range")
	ErrClosed        = errors.New("mpc: endpoint closed")
	ErrDuplicatePeer = errors.New("mpc: peer id already joined")
	ErrSelfConnect   = errors.New("mpc: cannot connect to self")
)

// Conn is a reliable, ordered, framed connection to one peer. Frames are
// opaque bytes; the SOS ad hoc manager layers its handshake and encrypted
// session on top.
type Conn interface {
	// Peer returns the remote device.
	Peer() PeerID
	// Initiator reports whether the local side opened the connection.
	Initiator() bool
	// Send enqueues one frame for delivery. It never blocks; delivery is
	// asynchronous and stops silently if the link breaks (the medium then
	// reports Disconnected). Send copies what it keeps, so the caller may
	// reuse frame as soon as Send returns.
	Send(frame []byte) error
	// Close tears the connection down; the peer observes Disconnected.
	Close() error
}

// Events is the callback surface a device registers when joining a
// medium. Media invoke callbacks sequentially per endpoint; MemMedium does
// so from a dedicated goroutine, SimMedium from the simulation loop.
type Events interface {
	// PeerFound fires when an advertising peer comes into range or updates
	// its advertisement. ad is the raw advertisement payload: read-only.
	PeerFound(peer PeerID, ad []byte)
	// PeerLost fires when a previously-found peer leaves range.
	PeerLost(peer PeerID)
	// Incoming delivers an inbound connection opened by a peer.
	Incoming(conn Conn)
	// Received delivers one frame from the peer. The frame is the callee's
	// own, never reused or handed out twice: the callee may overwrite it.
	Received(conn Conn, frame []byte)
	// Disconnected fires when a connection ends, with the reason.
	Disconnected(conn Conn, reason error)
}

// Endpoint is a device's attachment to a medium.
type Endpoint interface {
	// Self returns the local device name.
	Self() PeerID
	// SetAdvertisement publishes (or, with nil, withdraws) the plain-text
	// discovery payload other devices see in PeerFound.
	SetAdvertisement(ad []byte)
	// Connect opens a connection to a discovered peer.
	Connect(peer PeerID) (Conn, error)
	// Close detaches from the medium, ending all connections.
	Close() error
}

// Medium is a world devices can join.
type Medium interface {
	// Join attaches a device with its callback surface.
	Join(peer PeerID, events Events) (Endpoint, error)
}

// Contact describes one link-state change, used by the simulator's
// instrumentation.
type Contact struct {
	A, B PeerID
	Tech Technology
	At   time.Time
	Up   bool
}
