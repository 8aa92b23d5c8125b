// Package mobility generates node movement for the simulator: the
// random-waypoint baseline, and playback of recorded waypoints. Every
// itinerary is precomputed (from a seeded RNG, for random waypoint), so
// Position is a pure function of time and runs replay bit-identically.
//
// The paper's field study — ten students roaming an ~11 km × 8 km area of
// Gainesville, FL for a week — is modelled once, calibrated, by
// sim.NewGainesville, which plays each student's week back through
// NewTrace.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Point is a position in meters on the evaluation plane.
type Point struct {
	X, Y float64
}

// distanceTo returns the Euclidean distance in meters.
func (p Point) distanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Area is the bounding box of the evaluation plane, in meters.
type Area struct {
	W, H float64
}

// Gainesville is the paper's ~11 km × 8 km (88 km²) study area.
var Gainesville = Area{W: 11000, H: 8000}

// RandomPoint draws a uniform point inside the area.
func (a Area) RandomPoint(rng *rand.Rand) Point {
	return Point{X: rng.Float64() * a.W, Y: rng.Float64() * a.H}
}

// Model yields a node's position at any instant.
type Model interface {
	Position(at time.Time) Point
}

// segment is one leg of a precomputed itinerary: hold at From until
// Start, then move linearly to To, arriving at End.
type segment struct {
	start, end time.Time
	from, to   Point
}

// itinerary is a chronologically sorted list of segments covering the
// whole run; queries before the first segment return the first point and
// queries after the last return the final point.
type itinerary struct {
	segs []segment
}

// Position implements Model by piecewise-linear interpolation.
func (it *itinerary) Position(at time.Time) Point {
	n := len(it.segs)
	if n == 0 {
		return Point{}
	}
	if at.Before(it.segs[0].start) {
		return it.segs[0].from
	}
	// Find the last segment starting at or before `at`.
	idx := sort.Search(n, func(i int) bool { return it.segs[i].start.After(at) }) - 1
	seg := it.segs[idx]
	if !at.Before(seg.end) {
		return seg.to
	}
	total := seg.end.Sub(seg.start).Seconds()
	if total <= 0 {
		return seg.to
	}
	frac := at.Sub(seg.start).Seconds() / total
	return Point{
		X: seg.from.X + (seg.to.X-seg.from.X)*frac,
		Y: seg.from.Y + (seg.to.Y-seg.from.Y)*frac,
	}
}

// builder accumulates an itinerary.
type builder struct {
	segs []segment
	at   time.Time
	pos  Point
}

// stay holds position until t.
func (b *builder) stay(until time.Time) {
	if !until.After(b.at) {
		return
	}
	b.segs = append(b.segs, segment{start: b.at, end: until, from: b.pos, to: b.pos})
	b.at = until
}

// RandomWaypointConfig parameterizes the classic random-waypoint model,
// used as the ablation baseline ("DTN simulations typically model 50 to
// 100 nodes in a constrained simulation space", paper §VI-B).
type RandomWaypointConfig struct {
	// Area bounds the plane; zero selects 3 000 × 3 000 m.
	Area     Area
	Start    time.Time
	Duration time.Duration
	// SpeedMin/SpeedMax bound the leg speed in m/s (defaults 0.5–1.5).
	SpeedMin, SpeedMax float64
}

// pauseMax bounds the random-waypoint pause at each waypoint.
const pauseMax = 2 * time.Minute

// NewRandomWaypoint precomputes a random-waypoint itinerary.
func NewRandomWaypoint(cfg RandomWaypointConfig, rng *rand.Rand) (Model, error) {
	if rng == nil {
		return nil, fmt.Errorf("mobility: nil RNG")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("mobility: non-positive duration")
	}
	if cfg.Area == (Area{}) {
		cfg.Area = Area{W: 3000, H: 3000}
	}
	if cfg.SpeedMin == 0 {
		cfg.SpeedMin = 0.5
	}
	if cfg.SpeedMax == 0 {
		cfg.SpeedMax = 1.5
	}
	if cfg.SpeedMax < cfg.SpeedMin {
		return nil, fmt.Errorf("mobility: speed range [%f, %f]", cfg.SpeedMin, cfg.SpeedMax)
	}

	b := &builder{at: cfg.Start, pos: cfg.Area.RandomPoint(rng)}
	end := cfg.Start.Add(cfg.Duration)
	for b.at.Before(end) {
		next := cfg.Area.RandomPoint(rng)
		speed := cfg.SpeedMin + rng.Float64()*(cfg.SpeedMax-cfg.SpeedMin)
		dist := b.pos.distanceTo(next)
		arrive := b.at.Add(time.Duration(dist / speed * float64(time.Second)))
		b.segs = append(b.segs, segment{start: b.at, end: arrive, from: b.pos, to: next})
		b.at = arrive
		b.pos = next
		b.stay(b.at.Add(time.Duration(rng.Float64() * float64(pauseMax))))
	}
	return &itinerary{segs: b.segs}, nil
}

// Waypoint is one timed position sample for trace playback.
type Waypoint struct {
	At  time.Time
	Pos Point
}

// NewTrace builds a model that replays recorded waypoints, interpolating
// linearly between samples.
func NewTrace(points []Waypoint) (Model, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("mobility: empty trace")
	}
	for i := 1; i < len(points); i++ {
		if points[i].At.Before(points[i-1].At) {
			return nil, fmt.Errorf("mobility: trace not sorted at %d", i)
		}
	}
	segs := make([]segment, 0, len(points))
	for i := 0; i+1 < len(points); i++ {
		segs = append(segs, segment{
			start: points[i].At, end: points[i+1].At,
			from: points[i].Pos, to: points[i+1].Pos,
		})
	}
	if len(segs) == 0 {
		segs = append(segs, segment{start: points[0].At, end: points[0].At, from: points[0].Pos, to: points[0].Pos})
	}
	return &itinerary{segs: segs}, nil
}
