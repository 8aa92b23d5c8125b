package secure

import "sync/atomic"

// StatsRecorder scopes the AEAD counters to one owner — a node, a fleet,
// a test — so parallel fleets hosted in one process no longer
// cross-contaminate each other's numbers. Sessions carry a recorder via
// SessionConfig.Stats; a session without one counts nothing. The zero
// value is ready to use; all methods are safe for concurrent use (one
// lock-free atomic add per event).
type StatsRecorder struct {
	seals          atomic.Uint64
	opens          atomic.Uint64
	sealFailures   atomic.Uint64
	openFailures   atomic.Uint64
	rotations      atomic.Uint64
	replayRejected atomic.Uint64
}

// Read snapshots the recorder.
func (r *StatsRecorder) Read() Stats {
	return Stats{
		Seals:          r.seals.Load(),
		Opens:          r.opens.Load(),
		SealFailures:   r.sealFailures.Load(),
		OpenFailures:   r.openFailures.Load(),
		Rotations:      r.rotations.Load(),
		ReplayRejected: r.replayRejected.Load(),
	}
}

// counter selects one StatsRecorder field for the session increment
// helpers.
type counter int

const (
	cSeals counter = iota
	cOpens
	cSealFailures
	cOpenFailures
	cRotations
	cReplayRejected
)

// bump adds one event to the scoped recorder, when set.
func bump(r *StatsRecorder, c counter) {
	if r != nil {
		r.add(c)
	}
}

func (r *StatsRecorder) add(c counter) {
	switch c {
	case cSeals:
		r.seals.Add(1)
	case cOpens:
		r.opens.Add(1)
	case cSealFailures:
		r.sealFailures.Add(1)
	case cOpenFailures:
		r.openFailures.Add(1)
	case cRotations:
		r.rotations.Add(1)
	case cReplayRejected:
		r.replayRejected.Add(1)
	}
}

// Stats is a snapshot of one recorder's secure-channel counters.
type Stats struct {
	// Seals / Opens count frames successfully sealed / authenticated.
	Seals uint64
	Opens uint64
	// SealFailures counts Seal calls rejected before producing a frame
	// (closed session, exhausted sequence space); OpenFailures counts
	// frames rejected for any reason — closed session, short frame,
	// replayed or out-of-order sequence, epoch outside the acceptance
	// window, or AEAD authentication failure. A rising OpenFailures on a
	// live node means a peer (or an attacker) is feeding it frames it
	// refuses to trust.
	SealFailures uint64
	OpenFailures uint64
	// Rotations counts completed epoch key rotations (send-side ratchet
	// steps and receive-side epoch adoptions).
	Rotations uint64
	// ReplayRejected counts frames and envelope nonces rejected
	// specifically by replay checks: a sequence below the session's
	// watermark, or an envelope nonce already marked in the replay
	// store. It is a subset of OpenFailures for session frames.
	ReplayRejected uint64
}
