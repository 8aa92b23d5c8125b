package netmedium

import "sync/atomic"

// Stats is a snapshot of a Medium's transport counters, aggregated across
// every endpoint joined to the instance. The live counters are lock-free
// atomics incremented on the beacon and frame hot paths, so reading them
// costs the running system nothing between scrapes.
type Stats struct {
	// BeaconsSent / BeaconsReceived count discovery datagrams on the UDP
	// plane (sent counts one per destination written).
	BeaconsSent     uint64
	BeaconsReceived uint64
	// SessionsDialed / SessionsAccepted count TCP sessions this instance
	// initiated / admitted; SessionsClosed counts teardowns of either.
	SessionsDialed   uint64
	SessionsAccepted uint64
	SessionsClosed   uint64
	// DialFailures counts Connect attempts that never produced a session
	// even after the retry ladder; DialRetries counts the individual
	// backed-off re-dials inside Connect (see dialAttempts).
	DialFailures uint64
	DialRetries  uint64
	// FramesSent / FramesReceived and FrameBytes* count the length-
	// prefixed session frames crossing the TCP plane.
	FramesSent         uint64
	FramesReceived     uint64
	FrameBytesSent     uint64
	FrameBytesReceived uint64
}

// mediumStats holds the live atomic counters behind Stats.
type mediumStats struct {
	beaconsSent        atomic.Uint64
	beaconsReceived    atomic.Uint64
	sessionsDialed     atomic.Uint64
	sessionsAccepted   atomic.Uint64
	sessionsClosed     atomic.Uint64
	dialFailures       atomic.Uint64
	dialRetries        atomic.Uint64
	framesSent         atomic.Uint64
	framesReceived     atomic.Uint64
	frameBytesSent     atomic.Uint64
	frameBytesReceived atomic.Uint64
}

// Stats snapshots the instance's transport counters.
func (m *Medium) Stats() Stats {
	return Stats{
		BeaconsSent:        m.stats.beaconsSent.Load(),
		BeaconsReceived:    m.stats.beaconsReceived.Load(),
		SessionsDialed:     m.stats.sessionsDialed.Load(),
		SessionsAccepted:   m.stats.sessionsAccepted.Load(),
		SessionsClosed:     m.stats.sessionsClosed.Load(),
		DialFailures:       m.stats.dialFailures.Load(),
		DialRetries:        m.stats.dialRetries.Load(),
		FramesSent:         m.stats.framesSent.Load(),
		FramesReceived:     m.stats.framesReceived.Load(),
		FrameBytesSent:     m.stats.frameBytesSent.Load(),
		FrameBytesReceived: m.stats.frameBytesReceived.Load(),
	}
}
