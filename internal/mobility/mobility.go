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

// DiurnalConfig parameterizes a student's week.
type DiurnalConfig struct {
	// Area bounds the plane; zero selects Gainesville.
	Area Area
	// Home is the node's residence; zero draws one at random.
	Home Point
	// Campus is the shared campus center all students commute to.
	Campus Point
	// Hangouts are shared mingle spots (library, food court, court yard);
	// empty generates three near campus.
	Hangouts []Point
	// Start is the itinerary's first midnight; Days its length.
	Start time.Time
	Days  int
	// AttendProb is the chance of going to campus on a weekday (default
	// 0.85 — students skip sometimes).
	AttendProb float64
	// EveningOutProb is the chance of an evening hangout visit (default
	// 0.45).
	EveningOutProb float64
	// WeekendOutProb is the chance of a weekend outing (default 0.35).
	WeekendOutProb float64
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
	if cfg.Home == (Point{}) {
		cfg.Home = cfg.Area.RandomPoint(rng)
	}
	if cfg.Campus == (Point{}) {
		cfg.Campus = Point{X: cfg.Area.W * 0.45, Y: cfg.Area.H * 0.5}
	}
	if cfg.AttendProb == 0 {
		cfg.AttendProb = 0.85
	}
	if cfg.EveningOutProb == 0 {
		cfg.EveningOutProb = 0.45
	}
	if cfg.WeekendOutProb == 0 {
		cfg.WeekendOutProb = 0.35
	}
	if len(cfg.Hangouts) == 0 {
		cfg.Hangouts = make([]Point, 3)
		for i := range cfg.Hangouts {
			cfg.Hangouts[i] = jitter(cfg.Campus, 400, rng)
		}
	}
	// The student's personal desk/classroom spot near campus center.
	deskSpot := jitter(cfg.Campus, 250, rng)

	b := &builder{at: cfg.Start, pos: cfg.Home}
	for day := 0; day < cfg.Days; day++ {
		midnight := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		weekday := midnight.Weekday()
		isWeekend := weekday == time.Saturday || weekday == time.Sunday

		// Sleep at home until wake time (6:30–8:30).
		wake := midnight.Add(time.Duration(6.5*3600+rng.Float64()*7200) * time.Second)
		b.stay(wake)

		switch {
		case !isWeekend && rng.Float64() < cfg.AttendProb:
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
				spot := jitter(cfg.Hangouts[rng.Intn(len(cfg.Hangouts))], 6, rng)
				b.move(spot)
				b.stay(minTime(b.at.Add(time.Duration(900+rng.Float64()*1800)*time.Second), dayEnd))
				b.move(jitter(deskSpot, 4, rng))
			}
			b.move(cfg.Home)
			// Possible evening hangout.
			if rng.Float64() < cfg.EveningOutProb {
				out := midnight.Add(time.Duration(19*3600+rng.Float64()*5400) * time.Second)
				if out.After(b.at) {
					b.stay(out)
					spot := jitter(cfg.Hangouts[rng.Intn(len(cfg.Hangouts))], 6, rng)
					b.move(spot)
					b.stay(b.at.Add(time.Duration(3600+rng.Float64()*7200) * time.Second))
					b.move(cfg.Home)
				}
			}
		case isWeekend && rng.Float64() < cfg.WeekendOutProb:
			// One weekend outing to a hangout, late morning to afternoon.
			out := midnight.Add(time.Duration(11*3600+rng.Float64()*10800) * time.Second)
			b.stay(out)
			spot := jitter(cfg.Hangouts[rng.Intn(len(cfg.Hangouts))], 6, rng)
			b.move(spot)
			b.stay(b.at.Add(time.Duration(3600+rng.Float64()*3*3600) * time.Second))
			b.move(cfg.Home)
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
	// PauseMax bounds the pause at each waypoint (default 120 s).
	PauseMax time.Duration
}

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
	if cfg.PauseMax == 0 {
		cfg.PauseMax = 2 * time.Minute
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
		b.stay(b.at.Add(time.Duration(rng.Float64() * float64(cfg.PauseMax))))
	}
	return &itinerary{segs: b.segs}, nil
}

// WorkingDayConfig parameterizes the working-day commuter model (after
// Ekman et al.'s working day movement model, the standard urban-commuter
// workload for DTN evaluation): sleep at home, commute to a fixed
// office, a midday lunch outing near the office, commute home, and an
// occasional evening activity at a shared venue. Unlike Diurnal — which
// reproduces the paper's student cohort clustered on one campus —
// working-day nodes commute to their own offices, so contacts
// concentrate at lunch spots, evening venues, and shared commute
// corridors: the city-scale workload the scaled-up engine targets.
type WorkingDayConfig struct {
	// Area bounds the plane; zero selects Gainesville.
	Area Area
	// Home is the node's residence; zero draws one at random.
	Home Point
	// Office is the node's workplace; zero draws one inside the central
	// business district (the middle ~25% of the area), so distinct
	// commuters still share corridors and lunch geography.
	Office Point
	// EveningSpots are shared venues for after-work outings; empty
	// generates three near the district center.
	EveningSpots []Point
	// Start is the itinerary's first midnight; Days its length.
	Start time.Time
	Days  int
	// WorkStartHour is the mean arrival hour (default 9; jittered ±45 min).
	WorkStartHour float64
	// WorkHours is the mean office-day length (default 8, jittered ±1 h).
	WorkHours float64
	// LunchOutProb is the chance of a midday lunch outing near the
	// office (default 0.70).
	LunchOutProb float64
	// EveningOutProb is the chance of an after-work venue visit
	// (default 0.30).
	EveningOutProb float64
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
	if cfg.Home == (Point{}) {
		cfg.Home = cfg.Area.RandomPoint(rng)
	}
	district := Point{X: cfg.Area.W * 0.5, Y: cfg.Area.H * 0.5}
	districtR := math.Min(cfg.Area.W, cfg.Area.H) * 0.25
	if cfg.Office == (Point{}) {
		cfg.Office = jitter(district, districtR, rng)
	}
	if cfg.WorkStartHour == 0 {
		cfg.WorkStartHour = 9
	}
	if cfg.WorkHours == 0 {
		cfg.WorkHours = 8
	}
	if cfg.LunchOutProb == 0 {
		cfg.LunchOutProb = 0.70
	}
	if cfg.EveningOutProb == 0 {
		cfg.EveningOutProb = 0.30
	}
	if len(cfg.EveningSpots) == 0 {
		cfg.EveningSpots = make([]Point, 3)
		for i := range cfg.EveningSpots {
			cfg.EveningSpots[i] = jitter(district, districtR, rng)
		}
	}
	// The commuter's own lunch spot, shared geography with office
	// neighbours (a food court within walking distance).
	lunchSpot := jitter(cfg.Office, 150, rng)

	b := &builder{at: cfg.Start, pos: cfg.Home}
	for day := 0; day < cfg.Days; day++ {
		midnight := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		weekday := midnight.Weekday()
		if weekday == time.Saturday || weekday == time.Sunday {
			// Weekend: home (the paper's §VI-B stationary periods).
			continue
		}
		// Arrive at the office around WorkStartHour ± 45 min; leave home
		// early enough to make it.
		arrive := midnight.Add(time.Duration((cfg.WorkStartHour+(rng.Float64()-0.5)*1.5)*3600) * time.Second)
		commute := commuteDuration(cfg.Home, cfg.Office)
		b.stay(arrive.Add(-commute))
		b.move(cfg.Office)

		// Morning at the desk, then lunch most days (12:00–13:00 start).
		if rng.Float64() < cfg.LunchOutProb {
			lunch := midnight.Add(time.Duration(12*3600+rng.Float64()*3600) * time.Second)
			if lunch.After(b.at) {
				b.stay(lunch)
				b.move(jitter(lunchSpot, 5, rng))
				b.stay(b.at.Add(time.Duration(1800+rng.Float64()*1800) * time.Second))
				b.move(cfg.Office)
			}
		}
		// Afternoon at the desk until quitting time.
		quit := arrive.Add(time.Duration((cfg.WorkHours + (rng.Float64()-0.5)*2) * float64(time.Hour)))
		b.stay(quit)

		// Occasional after-work outing at a shared venue, else straight
		// home.
		if rng.Float64() < cfg.EveningOutProb {
			b.move(jitter(cfg.EveningSpots[rng.Intn(len(cfg.EveningSpots))], 6, rng))
			b.stay(b.at.Add(time.Duration(3600+rng.Float64()*5400) * time.Second))
		}
		b.move(cfg.Home)
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
