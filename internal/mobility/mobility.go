// Package mobility generates node movement for the in-silico replay of
// the paper's field study. The real evaluation tracked ten students
// roaming an ~11 km × 8 km area of Gainesville, FL for a week; their
// delays and delivery ratios are driven by a handful of mobility facts
// the paper calls out explicitly: people sleep 5–8 hours a day (nodes go
// stationary), students co-locate on campus during the school week, and
// the area is far larger than radio range, so encounters are rare and
// socially clustered.
//
// The Diurnal model reproduces those facts: each node has a home, a
// campus anchor, and shared hangout spots; weekdays it commutes, mingles
// at shared points, and sleeps at night; weekends it mostly stays home.
// Every itinerary is precomputed from a seeded RNG, so Position is a pure
// function of time and runs replay bit-identically.
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

// Movement speeds in meters per second.
const (
	walkSpeed  = 1.4
	driveSpeed = 9.0
	// driveThreshold is the distance beyond which a node drives instead
	// of walking.
	driveThreshold = 1500.0
)

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

// move travels to p starting now at a speed chosen by distance.
func (b *builder) move(p Point) {
	dist := b.pos.distanceTo(p)
	if dist == 0 {
		return
	}
	speed := walkSpeed
	if dist > driveThreshold {
		speed = driveSpeed
	}
	arrive := b.at.Add(time.Duration(dist / speed * float64(time.Second)))
	b.segs = append(b.segs, segment{start: b.at, end: arrive, from: b.pos, to: p})
	b.at = arrive
	b.pos = p
}

// The Diurnal model's fixed shape of a student's week.
const (
	// hangoutCount shared mingle spots (library, food court, court yard)
	// lie within hangoutRadius of campus.
	hangoutCount  = 3
	hangoutRadius = 400.0
	// attendProb is the chance of going to campus on a weekday (students
	// skip sometimes); eveningOutProb that of an evening hangout visit
	// after a campus day; weekendOutProb that of a weekend outing.
	attendProb     = 0.85
	eveningOutProb = 0.45
	weekendOutProb = 0.35
)

// DiurnalConfig parameterizes a student's week. Each student draws a
// home uniformly in the area and commutes to the shared campus center
// (campusOf).
type DiurnalConfig struct {
	// Area bounds the plane; zero selects Gainesville.
	Area Area
	// Start is the itinerary's first midnight; Days its length.
	Start time.Time
	Days  int
}

// campusOf is the campus center all of an area's students commute to.
func campusOf(a Area) Point {
	return Point{X: a.W * 0.45, Y: a.H * 0.5}
}

// NewDiurnal precomputes a node's itinerary from cfg and rng.
func NewDiurnal(cfg DiurnalConfig, rng *rand.Rand) (Model, error) {
	if rng == nil {
		return nil, fmt.Errorf("mobility: nil RNG")
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("mobility: %d days", cfg.Days)
	}
	if cfg.Area == (Area{}) {
		cfg.Area = Gainesville
	}
	home := cfg.Area.RandomPoint(rng)
	campus := campusOf(cfg.Area)
	hangouts := make([]Point, hangoutCount)
	for i := range hangouts {
		hangouts[i] = jitter(campus, hangoutRadius, rng)
	}
	// The student's personal desk/classroom spot near campus center.
	deskSpot := jitter(campus, 250, rng)

	b := &builder{at: cfg.Start, pos: home}
	for day := 0; day < cfg.Days; day++ {
		midnight := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		weekday := midnight.Weekday()
		isWeekend := weekday == time.Saturday || weekday == time.Sunday

		// Sleep at home until wake time (6:30–8:30).
		wake := midnight.Add(time.Duration(6.5*3600+rng.Float64()*7200) * time.Second)
		b.stay(wake)

		switch {
		case !isWeekend && rng.Float64() < attendProb:
			// Commute to campus between wake and ~10:00.
			leave := wake.Add(time.Duration(rng.Float64()*5400) * time.Second)
			b.stay(leave)
			b.move(deskSpot)
			// Campus day: alternate desk time and mingle visits until
			// 15:00–18:30.
			dayEnd := midnight.Add(time.Duration(15*3600+rng.Float64()*3.5*3600) * time.Second)
			for b.at.Before(dayEnd) {
				// Desk block 40–100 minutes.
				b.stay(minTime(b.at.Add(time.Duration(2400+rng.Float64()*3600)*time.Second), dayEnd))
				if !b.at.Before(dayEnd) {
					break
				}
				// Mingle 15–45 minutes at a shared spot.
				spot := jitter(hangouts[rng.Intn(len(hangouts))], 6, rng)
				b.move(spot)
				b.stay(minTime(b.at.Add(time.Duration(900+rng.Float64()*1800)*time.Second), dayEnd))
				b.move(jitter(deskSpot, 4, rng))
			}
			b.move(home)
			// Possible evening hangout.
			if rng.Float64() < eveningOutProb {
				out := midnight.Add(time.Duration(19*3600+rng.Float64()*5400) * time.Second)
				if out.After(b.at) {
					b.stay(out)
					spot := jitter(hangouts[rng.Intn(len(hangouts))], 6, rng)
					b.move(spot)
					b.stay(b.at.Add(time.Duration(3600+rng.Float64()*7200) * time.Second))
					b.move(home)
				}
			}
		case isWeekend && rng.Float64() < weekendOutProb:
			// One weekend outing to a hangout, late morning to afternoon.
			out := midnight.Add(time.Duration(11*3600+rng.Float64()*10800) * time.Second)
			b.stay(out)
			spot := jitter(hangouts[rng.Intn(len(hangouts))], 6, rng)
			b.move(spot)
			b.stay(b.at.Add(time.Duration(3600+rng.Float64()*3*3600) * time.Second))
			b.move(home)
		default:
			// Home day.
		}
		// Sleep: home from 21:30–24:00 (5–8 h of stationary time follows).
		bed := midnight.Add(time.Duration(21.5*3600+rng.Float64()*9000) * time.Second)
		if bed.After(b.at) {
			b.stay(bed)
		}
	}
	// Final night.
	b.stay(cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour))
	return &itinerary{segs: b.segs}, nil
}

// RandomWaypointConfig parameterizes the classic random-waypoint model,
// used as the ablation baseline ("DTN simulations typically model 50 to
// 100 nodes in a constrained simulation space", paper §VI-B).
type RandomWaypointConfig struct {
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
		cfg.Area = Area{W: 1000, H: 1000}
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

// The working-day model's fixed shape of a commuter's week.
const (
	// workStartHour is the mean office arrival hour (jittered ±45 min);
	// workHours the mean office-day length (jittered ±1 h).
	workStartHour = 9.0
	workHours     = 8.0
	// lunchOutProb is the chance of a midday lunch outing near the
	// office; afterWorkOutProb that of an after-work venue visit.
	lunchOutProb     = 0.70
	afterWorkOutProb = 0.30
	// eveningSpotCount shared after-work venues lie in the central
	// business district.
	eveningSpotCount = 3
)

// WorkingDayConfig parameterizes the working-day commuter model (after
// Ekman et al.'s working day movement model, the standard urban-commuter
// workload for DTN evaluation): sleep at home, commute to a fixed
// office, a midday lunch outing near the office, commute home, and an
// occasional evening activity at a shared venue. Unlike Diurnal — which
// reproduces the paper's student cohort clustered on one campus —
// working-day nodes commute to their own offices, so contacts
// concentrate at lunch spots, evening venues, and shared commute
// corridors: the city-scale workload the scaled-up engine targets.
//
// Each commuter draws a home uniformly in the area and an office inside
// the central business district (the middle ~25% of the area), so
// distinct commuters still share corridors and lunch geography.
type WorkingDayConfig struct {
	// Area bounds the plane; zero selects Gainesville.
	Area Area
	// Start is the itinerary's first midnight; Days its length.
	Start time.Time
	Days  int
}

// NewWorkingDay precomputes a commuter's itinerary from cfg and rng.
// Weekdays: home → office (lunch outing near the office) → home, with
// an occasional evening venue; weekends are spent at home. Like every
// model here the itinerary is fixed at construction, so Position is a
// pure function of time and replays bit-identically.
func NewWorkingDay(cfg WorkingDayConfig, rng *rand.Rand) (Model, error) {
	if rng == nil {
		return nil, fmt.Errorf("mobility: nil RNG")
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("mobility: %d days", cfg.Days)
	}
	if cfg.Area == (Area{}) {
		cfg.Area = Gainesville
	}
	home := cfg.Area.RandomPoint(rng)
	district := Point{X: cfg.Area.W * 0.5, Y: cfg.Area.H * 0.5}
	districtR := math.Min(cfg.Area.W, cfg.Area.H) * 0.25
	office := jitter(district, districtR, rng)
	eveningSpots := make([]Point, eveningSpotCount)
	for i := range eveningSpots {
		eveningSpots[i] = jitter(district, districtR, rng)
	}
	// The commuter's own lunch spot, shared geography with office
	// neighbours (a food court within walking distance).
	lunchSpot := jitter(office, 150, rng)

	b := &builder{at: cfg.Start, pos: home}
	for day := 0; day < cfg.Days; day++ {
		midnight := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		weekday := midnight.Weekday()
		if weekday == time.Saturday || weekday == time.Sunday {
			// Weekend: home (the paper's §VI-B stationary periods).
			continue
		}
		// Arrive at the office around workStartHour ± 45 min; leave home
		// early enough to make it.
		arrive := midnight.Add(time.Duration((workStartHour+(rng.Float64()-0.5)*1.5)*3600) * time.Second)
		commute := commuteDuration(home, office)
		b.stay(arrive.Add(-commute))
		b.move(office)

		// Morning at the desk, then lunch most days (12:00–13:00 start).
		if rng.Float64() < lunchOutProb {
			lunch := midnight.Add(time.Duration(12*3600+rng.Float64()*3600) * time.Second)
			if lunch.After(b.at) {
				b.stay(lunch)
				b.move(jitter(lunchSpot, 5, rng))
				b.stay(b.at.Add(time.Duration(1800+rng.Float64()*1800) * time.Second))
				b.move(office)
			}
		}
		// Afternoon at the desk until quitting time.
		quit := arrive.Add(time.Duration((workHours + (rng.Float64()-0.5)*2) * float64(time.Hour)))
		b.stay(quit)

		// Occasional after-work outing at a shared venue, else straight
		// home.
		if rng.Float64() < afterWorkOutProb {
			b.move(jitter(eveningSpots[rng.Intn(len(eveningSpots))], 6, rng))
			b.stay(b.at.Add(time.Duration(3600+rng.Float64()*5400) * time.Second))
		}
		b.move(home)
	}
	b.stay(cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour))
	return &itinerary{segs: b.segs}, nil
}

// commuteDuration estimates travel time with the same speed policy as
// builder.move, so the departure back-off lands the arrival on schedule.
func commuteDuration(from, to Point) time.Duration {
	dist := from.distanceTo(to)
	speed := walkSpeed
	if dist > driveThreshold {
		speed = driveSpeed
	}
	return time.Duration(dist / speed * float64(time.Second))
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

// jitter draws a point uniformly within radius r of center.
func jitter(center Point, r float64, rng *rand.Rand) Point {
	angle := rng.Float64() * 2 * math.Pi
	dist := math.Sqrt(rng.Float64()) * r
	return Point{X: center.X + math.Cos(angle)*dist, Y: center.Y + math.Sin(angle)*dist}
}

// minTime returns the earlier of two times.
func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
