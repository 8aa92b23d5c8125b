// Package chaos is the fault-injection layer for the reproduction's
// robustness work: an mpc.Medium wrapper that degrades the radio plane
// the way real deployments do — per-link packet loss, duplication,
// reordering, delay/jitter, asymmetric (one-way) links, and scheduled
// partitions with healing. (The byzantine peer, which holds valid
// credentials but abuses the session protocol, is a test harness beside
// the root package's TestByzantineQuarantine.)
//
// Every injection decision is a pure function of (profile seed, directed
// link, per-link frame index), so two runs with the same seed and the
// same per-link traffic make identical drop/duplicate/reorder choices
// regardless of goroutine interleaving. The wrapper composes over any
// conforming medium (MemMedium, NetMedium) and passes the mediumtest
// conformance suite under a neutral profile.
package chaos

import (
	"fmt"
	"hash/fnv"
	"time"

	"sos/internal/mpc"
)

// Profile declares one chaos regime. The zero value is neutral: the
// wrapper becomes a transparent pass-through.
type Profile struct {
	// Seed drives every probabilistic decision. Two runs with the same
	// seed and per-link traffic inject identically.
	Seed int64
	// Loss is the per-frame drop probability on each directed link.
	Loss float64
	// Duplicate is the per-frame probability of sending a frame twice.
	Duplicate float64
	// Reorder is the per-frame probability of holding a frame so the
	// next one on the same link overtakes it.
	Reorder float64
	// Delay is the fixed extra latency added to every frame; Jitter adds
	// a uniformly random slice on top. Delay/jitter preserve per-link
	// order — only Reorder reorders.
	Delay  time.Duration
	Jitter time.Duration
	// OneWay is the probability that an unordered peer pair becomes
	// asymmetric: one direction (chosen from the seed) drops every frame
	// while the reverse flows normally.
	OneWay float64
	// Partitions schedules network splits. Peers are deterministically
	// assigned to one of two halves; between At and Heal frames cannot
	// cross the split and the underlying medium reports the far half
	// unreachable.
	Partitions []Partition
}

// Partition is one scheduled split-then-heal window, measured from the
// moment the wrapper is created.
type Partition struct {
	At   time.Duration
	Heal time.Duration
}

// IsZero reports whether the profile injects nothing.
func (p Profile) IsZero() bool {
	return p.Loss == 0 && p.Duplicate == 0 && p.Reorder == 0 &&
		p.Delay == 0 && p.Jitter == 0 && p.OneWay == 0 && len(p.Partitions) == 0
}

// Validate rejects out-of-range probabilities and inverted partition
// windows.
func (p Profile) Validate() error {
	for name, v := range map[string]float64{
		"loss": p.Loss, "duplicate": p.Duplicate, "reorder": p.Reorder, "oneWay": p.OneWay,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("chaos: %s probability %v outside [0,1]", name, v)
		}
	}
	if p.Delay < 0 || p.Jitter < 0 {
		return fmt.Errorf("chaos: negative delay/jitter")
	}
	for i, w := range p.Partitions {
		if w.At < 0 || w.Heal <= w.At {
			return fmt.Errorf("chaos: partition %d window [%s, %s] not ordered", i, w.At, w.Heal)
		}
	}
	return nil
}

// Preset names, usable in lab specs and soslab sweeps.
const (
	PresetNone          = "none"
	PresetLoss10        = "loss10"
	PresetLoss30Reorder = "loss30-reorder"
	PresetDupReorder    = "dup-reorder"
	PresetDelayJitter   = "delay-jitter"
	PresetOneWay        = "oneway25"
	PresetPartitionHeal = "partition-heal"
)

// presetNames lists every preset in sweep order.
func presetNames() []string {
	return []string{
		PresetNone, PresetLoss10, PresetLoss30Reorder, PresetDupReorder,
		PresetDelayJitter, PresetOneWay, PresetPartitionHeal,
	}
}

// Preset returns a named profile scaled to a run of the given duration
// (partition windows are placed relative to it). Unknown names error.
func Preset(name string, dur time.Duration, seed int64) (Profile, error) {
	switch name {
	case PresetNone, "":
		return Profile{}, nil
	case PresetLoss10:
		return Profile{Seed: seed, Loss: 0.10}, nil
	case PresetLoss30Reorder:
		// The acceptance regime: 30% loss with reordering on what
		// survives. Epidemic must still reach >= 0.9 delivery ratio.
		return Profile{Seed: seed, Loss: 0.30, Reorder: 0.15}, nil
	case PresetDupReorder:
		return Profile{Seed: seed, Duplicate: 0.25, Reorder: 0.25}, nil
	case PresetDelayJitter:
		return Profile{Seed: seed, Delay: 20 * time.Millisecond, Jitter: 30 * time.Millisecond}, nil
	case PresetOneWay:
		return Profile{Seed: seed, OneWay: 0.25}, nil
	case PresetPartitionHeal:
		if dur <= 0 {
			dur = 10 * time.Second
		}
		return Profile{Seed: seed, Partitions: []Partition{{
			At:   dur * 3 / 10,
			Heal: dur * 6 / 10,
		}}}, nil
	default:
		return Profile{}, fmt.Errorf("chaos: unknown preset %q (have %v)", name, presetNames())
	}
}

// --- deterministic randomness -------------------------------------------

// Decision salts keep the per-dimension streams independent.
const (
	saltLoss = iota + 1
	saltDup
	saltReorder
	saltJitter
	saltOneWay
	saltGroup
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// peerHash collapses a peer ID to a stable 64-bit key.
func peerHash(p mpc.PeerID) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return h.Sum64()
}

// roll returns a uniform value in [0,1) determined entirely by its
// arguments.
func roll(seed int64, a, b, n uint64, salt uint64) float64 {
	x := mix64(uint64(seed) ^ mix64(a) ^ mix64(b<<1) ^ mix64(n+salt<<56))
	return float64(x>>11) / (1 << 53)
}
