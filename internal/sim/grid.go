// Spatial contact indexing. The seed simulator detected radio contacts
// with an O(N²) pairwise sweep per tick, which collapses long before the
// thousand-node fleets the trace-driven scenarios run. ContactIndex is a
// uniform grid hash with cell size equal to the radio range: a node can
// only be in contact with nodes in its own or the eight neighboring
// cells, so each tick tests a handful of candidates per node instead of
// N-1. Per-tick cost is linear in active nodes plus occupied cells plus
// genuine near-pairs, and the index reuses all of its storage across
// ticks, so the steady state allocates nothing.
package sim

import (
	"math"
	"runtime"
	"sync"
	"time"

	"sos/internal/mobility"
)

// inContact is the single range predicate both the grid index and the
// pairwise reference sweep share, so the two detectors are exactly
// equivalent (no Hypot-vs-sqrt ULP divergence between paths).
func inContact(p, q mobility.Point, rangeM float64) bool {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx+dy*dy <= rangeM*rangeM
}

// IndexStats counts one sweep's work, for benchmarks and the scaling
// table in the README: Checks is the number of candidate distance tests
// the grid performed (the pairwise sweep distance-tests every active
// pair, Nactive·(Nactive-1)/2 per tick).
type IndexStats struct {
	Active        int // nodes inserted (app in foreground)
	OccupiedCells int // grid cells holding at least one active node
	Checks        int // candidate pair distance tests
	Pairs         int // pairs actually in contact range
}

// ContactIndex is a reusable uniform-grid spatial hash over node
// positions. It is not safe for concurrent use; the simulator owns one
// and sweeps it once per tick.
type ContactIndex struct {
	rangeM float64
	// heads maps a packed cell coordinate to the first node of the
	// cell's intrusive list; next[i] chains the rest. Both persist
	// across sweeps (clear keeps buckets), so steady-state sweeps do
	// not allocate.
	heads    map[uint64]int32
	next     []int32
	occupied []uint64
	stats    IndexStats
}

// NewContactIndex builds an index for the given radio range in meters.
// The cell size equals the range, the largest size that still confines
// every in-range pair to adjacent cells.
func NewContactIndex(rangeM float64) *ContactIndex {
	if rangeM <= 0 {
		rangeM = 35
	}
	return &ContactIndex{
		rangeM: rangeM,
		heads:  make(map[uint64]int32),
	}
}

// cellOf packs the grid coordinates of p into one map key. int32
// truncation is safe for any plausible plane: at a 35 m cell it covers
// ±75 billion km.
func (ix *ContactIndex) cellOf(p mobility.Point) uint64 {
	cx := int32(math.Floor(p.X / ix.rangeM))
	cy := int32(math.Floor(p.Y / ix.rangeM))
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// Stats returns the most recent sweep's work counters.
func (ix *ContactIndex) Stats() IndexStats { return ix.stats }

// Sweep finds every pair of active nodes within radio range and calls fn
// once per pair with i < j. Inactive nodes are never inserted, so a
// sleeping fleet costs one flag test per node. Pair order is
// deterministic (a pure function of the input ordering), which the
// simulator relies on for bit-identical replays.
func (ix *ContactIndex) Sweep(positions []mobility.Point, active []bool, fn func(i, j int32)) {
	clear(ix.heads)
	ix.occupied = ix.occupied[:0]
	if cap(ix.next) < len(positions) {
		ix.next = make([]int32, len(positions))
	}
	next := ix.next[:len(positions)]
	ix.stats = IndexStats{}

	for i := range positions {
		if active != nil && !active[i] {
			continue
		}
		ix.stats.Active++
		key := ix.cellOf(positions[i])
		head, ok := ix.heads[key]
		if !ok {
			head = -1
			ix.occupied = append(ix.occupied, key)
		}
		next[i] = head
		ix.heads[key] = int32(i)
	}
	ix.stats.OccupiedCells = len(ix.occupied)

	// For each occupied cell, test pairs within the cell plus pairs
	// against four of the eight neighbors (east, south-west, south,
	// south-east). The other four directions are covered when the
	// neighbor cell is the one iterating, so every candidate pair is
	// tested exactly once.
	var forward = [4][2]int32{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for _, key := range ix.occupied {
		cx, cy := int32(uint32(key>>32)), int32(uint32(key))
		for i := ix.heads[key]; i >= 0; i = next[i] {
			// Within-cell pairs: each node against the nodes inserted
			// before it (the tail of its own chain).
			for j := next[i]; j >= 0; j = next[j] {
				ix.check(positions, i, j, fn)
			}
			for _, d := range forward {
				nkey := uint64(uint32(cx+d[0]))<<32 | uint64(uint32(cy+d[1]))
				nhead, ok := ix.heads[nkey]
				if !ok {
					continue
				}
				for j := nhead; j >= 0; j = next[j] {
					ix.check(positions, i, j, fn)
				}
			}
		}
	}
}

// check tests one candidate pair and reports it in (lo, hi) order.
func (ix *ContactIndex) check(positions []mobility.Point, i, j int32, fn func(i, j int32)) {
	ix.stats.Checks++
	if !inContact(positions[i], positions[j], ix.rangeM) {
		return
	}
	ix.stats.Pairs++
	if i > j {
		i, j = j, i
	}
	fn(i, j)
}

// SamplePositions fills positions and active from the fleet's mobility
// models and activity functions at the given instant, sharding the work
// across CPUs: itineraries are immutable after construction and each
// index is written by exactly one goroutine, so the pass is both safe
// and bit-deterministic. Small fleets stay on the calling goroutine.
func (s *Sim) samplePositions(at time.Time) {
	n := len(s.nodes)
	shards := runtime.GOMAXPROCS(0)
	const minPerShard = 256
	if shards > n/minPerShard {
		shards = n / minPerShard
	}
	if shards <= 1 {
		s.sampleRange(at, 0, n)
		return
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		lo := n * sh / shards
		hi := n * (sh + 1) / shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.sampleRange(at, lo, hi)
		}()
	}
	wg.Wait()
}

// sampleRange fills one shard of the position/activity buffers. An
// inactive node's position is not computed at all — sleeping nodes cost
// one activity test per tick, nothing more.
func (s *Sim) sampleRange(at time.Time, lo, hi int) {
	for i := lo; i < hi; i++ {
		n := s.nodes[i]
		if !n.Active(at) {
			s.active[i] = false
			s.positions[i] = mobility.Point{}
			continue
		}
		s.active[i] = true
		s.positions[i] = n.Model.Position(at)
	}
}
