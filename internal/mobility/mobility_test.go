package mobility

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"
)

var start = time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC) // a Monday

func TestPointDistance(t *testing.T) {
	p, q := Point{X: 0, Y: 0}, Point{X: 3, Y: 4}
	if got := p.distanceTo(q); got != 5 {
		t.Errorf("distance = %f, want 5", got)
	}
}

func TestDiurnalDeterminism(t *testing.T) {
	cfg := DiurnalConfig{Start: start, Days: 7}
	m1, err := NewDiurnal(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	m2, err := NewDiurnal(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	for h := 0; h < 7*24; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		if m1.Position(at) != m2.Position(at) {
			t.Fatalf("same seed diverged at %v", at)
		}
	}
}

func TestDiurnalStaysInArea(t *testing.T) {
	m, err := NewDiurnal(DiurnalConfig{Start: start, Days: 7}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	// Hangouts are jittered around campus (mid-area), homes are uniform,
	// so positions stay within a small margin of the area.
	margin := 500.0
	for minute := 0; minute < 7*24*60; minute += 17 {
		at := start.Add(time.Duration(minute) * time.Minute)
		p := m.Position(at)
		if p.X < -margin || p.Y < -margin || p.X > Gainesville.W+margin || p.Y > Gainesville.H+margin {
			t.Fatalf("position %v far outside area at %v", p, at)
		}
	}
}

func TestDiurnalSleepsAtHome(t *testing.T) {
	m, err := NewDiurnal(DiurnalConfig{Start: start, Days: 5}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	// The itinerary starts asleep at home; at 3 AM every night the node
	// is asleep there again.
	home := m.Position(start)
	for day := 0; day < 5; day++ {
		at := start.Add(time.Duration(day)*24*time.Hour + 3*time.Hour)
		if got := m.Position(at); got.distanceTo(home) > 1 {
			t.Errorf("day %d, 3AM: position %v, want home %v", day, got, home)
		}
	}
}

func TestDiurnalVisitsCampusOnWeekdays(t *testing.T) {
	campus := campusOf(Gainesville)
	m, err := NewDiurnal(DiurnalConfig{
		Start: start, Days: 5, AttendProb: 0.999,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	// Sample each weekday around midday; the node should be within the
	// campus neighbourhood (desk + hangouts are within ~500 m).
	attended := 0
	for day := 0; day < 5; day++ {
		near := false
		for h := 10; h <= 14; h++ {
			at := start.Add(time.Duration(day)*24*time.Hour + time.Duration(h)*time.Hour)
			if m.Position(at).distanceTo(campus) < 800 {
				near = true
			}
		}
		if near {
			attended++
		}
	}
	if attended < 4 {
		t.Errorf("attended campus %d/5 weekdays despite AttendProb≈1", attended)
	}
}

// TestDiurnalWeekendMostlyHome: a weekend day holds at most one outing,
// between late morning and evening, and most weekend days hold none.
func TestDiurnalWeekendMostlyHome(t *testing.T) {
	sat := time.Date(2017, 4, 8, 0, 0, 0, 0, time.UTC)
	days, outings := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		m, err := NewDiurnal(DiurnalConfig{Start: sat, Days: 2}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("NewDiurnal: %v", err)
		}
		home := m.Position(sat)
		for day := 0; day < 2; day++ {
			days++
			midnight := sat.Add(time.Duration(day) * 24 * time.Hour)
			left := 0
			wasHome := true
			for minute := 0; minute < 24*60; minute += 10 {
				at := midnight.Add(time.Duration(minute) * time.Minute)
				isHome := m.Position(at).distanceTo(home) <= 1
				if !isHome && (minute < 11*60 || minute >= 22*60) {
					t.Fatalf("seed %d: away from home at %v", seed, at)
				}
				if wasHome && !isHome {
					left++
				}
				wasHome = isHome
			}
			if left > 1 {
				t.Fatalf("seed %d, %v: %d outings in one weekend day", seed, midnight.Weekday(), left)
			}
			outings += left
		}
	}
	if 2*outings >= days {
		t.Errorf("%d outings in %d weekend days, want most days at home", outings, days)
	}
}

func TestDiurnalValidation(t *testing.T) {
	if _, err := NewDiurnal(DiurnalConfig{Start: start, Days: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := NewDiurnal(DiurnalConfig{Start: start, Days: 1}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestRandomWaypointCoversArea(t *testing.T) {
	area := Area{W: 500, H: 500}
	m, err := NewRandomWaypoint(RandomWaypointConfig{
		Area: area, Start: start, Duration: 24 * time.Hour,
	}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatalf("NewRandomWaypoint: %v", err)
	}
	var minX, minY, maxX, maxY = math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for minute := 0; minute < 24*60; minute++ {
		p := m.Position(start.Add(time.Duration(minute) * time.Minute))
		if p.X < 0 || p.Y < 0 || p.X > area.W || p.Y > area.H {
			t.Fatalf("position %v outside area", p)
		}
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	if maxX-minX < area.W/3 || maxY-minY < area.H/3 {
		t.Errorf("random waypoint barely moved: x span %f, y span %f", maxX-minX, maxY-minY)
	}
}

func TestRandomWaypointValidation(t *testing.T) {
	if _, err := NewRandomWaypoint(RandomWaypointConfig{Start: start}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewRandomWaypoint(RandomWaypointConfig{
		Start: start, Duration: time.Hour, SpeedMin: 2, SpeedMax: 1,
	}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("inverted speed range accepted")
	}
}

// TestGoldenDeterminism is the bit-identity gate for every synthetic
// model: the same seed must yield the same itinerary, down to the last
// float bit, across independent constructions — the property every
// seeded replay (and the committed experiment numbers) depends on.
func TestGoldenDeterminism(t *testing.T) {
	models := map[string]func(seed int64) (Model, error){
		"diurnal": func(seed int64) (Model, error) {
			return NewDiurnal(DiurnalConfig{Start: start, Days: 7}, rand.New(rand.NewSource(seed)))
		},
		"random-waypoint": func(seed int64) (Model, error) {
			return NewRandomWaypoint(RandomWaypointConfig{
				Area: Area{W: 3000, H: 3000}, Start: start, Duration: 7 * 24 * time.Hour,
			}, rand.New(rand.NewSource(seed)))
		},
		"working-day": func(seed int64) (Model, error) {
			return NewWorkingDay(WorkingDayConfig{Start: start, Days: 7}, rand.New(rand.NewSource(seed)))
		},
	}
	for name, build := range models {
		t.Run(name, func(t *testing.T) {
			m1, err := build(41)
			if err != nil {
				t.Fatalf("first build: %v", err)
			}
			m2, err := build(41)
			if err != nil {
				t.Fatalf("second build: %v", err)
			}
			for minute := 0; minute < 7*24*60; minute += 11 {
				at := start.Add(time.Duration(minute) * time.Minute)
				p1, p2 := m1.Position(at), m2.Position(at)
				if math.Float64bits(p1.X) != math.Float64bits(p2.X) ||
					math.Float64bits(p1.Y) != math.Float64bits(p2.Y) {
					t.Fatalf("same seed diverged at %v: %v vs %v", at, p1, p2)
				}
			}
			// A different seed must actually move the itinerary.
			m3, err := build(42)
			if err != nil {
				t.Fatalf("third build: %v", err)
			}
			same := true
			for minute := 0; minute < 7*24*60; minute += 11 {
				at := start.Add(time.Duration(minute) * time.Minute)
				if m1.Position(at) != m3.Position(at) {
					same = false
					break
				}
			}
			if same {
				t.Error("different seeds produced an identical itinerary")
			}
		})
	}
}

func TestWorkingDayAtOfficeMidday(t *testing.T) {
	m, err := NewWorkingDay(WorkingDayConfig{Start: start, Days: 5}, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatalf("NewWorkingDay: %v", err)
	}
	// The commuter reaches the office by 9:45 and leaves for lunch at
	// 12:00 at the earliest, so at 11:00 on the first day it is there.
	// Mid-morning and mid-afternoon of every weekday it is at (or within
	// lunch-walking distance of) the same office.
	office := m.Position(start.Add(11 * time.Hour))
	if d := office.distanceTo(Point{X: Gainesville.W / 2, Y: Gainesville.H / 2}); d > math.Min(Gainesville.W, Gainesville.H)/4 {
		t.Fatalf("office %v is %f m from the district center", office, d)
	}
	for day := 0; day < 5; day++ {
		for _, h := range []int{11, 15} {
			at := start.Add(time.Duration(day)*24*time.Hour + time.Duration(h)*time.Hour)
			if d := m.Position(at).distanceTo(office); d > 300 {
				t.Errorf("day %d %02d:00: %f m from office", day, h, d)
			}
		}
	}
}

func TestWorkingDaySleepsAtHomeAndStaysHomeWeekends(t *testing.T) {
	m, err := NewWorkingDay(WorkingDayConfig{Start: start, Days: 7}, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatalf("NewWorkingDay: %v", err)
	}
	home := m.Position(start)
	// 3 AM every night: asleep at home.
	for day := 0; day < 7; day++ {
		at := start.Add(time.Duration(day)*24*time.Hour + 3*time.Hour)
		if got := m.Position(at); got.distanceTo(home) > 1 {
			t.Errorf("day %d, 3AM: position %v, want home %v", day, got, home)
		}
	}
	// Saturday and Sunday (days 5 and 6 from the Monday start): home all
	// day.
	for day := 5; day < 7; day++ {
		for h := 0; h < 24; h += 2 {
			at := start.Add(time.Duration(day)*24*time.Hour + time.Duration(h)*time.Hour)
			if got := m.Position(at); got.distanceTo(home) > 1 {
				t.Errorf("weekend day %d %02d:00: position %v, want home", day, h, got)
			}
		}
	}
}

func TestWorkingDayValidation(t *testing.T) {
	if _, err := NewWorkingDay(WorkingDayConfig{Start: start, Days: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := NewWorkingDay(WorkingDayConfig{Start: start, Days: 1}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestTracePlayback(t *testing.T) {
	points := []Waypoint{
		{At: start, Pos: Point{X: 0, Y: 0}},
		{At: start.Add(10 * time.Second), Pos: Point{X: 100, Y: 0}},
		{At: start.Add(20 * time.Second), Pos: Point{X: 100, Y: 100}},
	}
	m, err := NewTrace(points)
	if err != nil {
		t.Fatalf("NewTrace: %v", err)
	}
	// Midpoint of the first leg.
	if got := m.Position(start.Add(5 * time.Second)); math.Abs(got.X-50) > 1e-9 || got.Y != 0 {
		t.Errorf("mid-leg position = %v, want (50,0)", got)
	}
	// Before the trace: first point. After: last point.
	if got := m.Position(start.Add(-time.Hour)); got != (Point{X: 0, Y: 0}) {
		t.Errorf("pre-trace position = %v", got)
	}
	if got := m.Position(start.Add(time.Hour)); got != (Point{X: 100, Y: 100}) {
		t.Errorf("post-trace position = %v", got)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(nil); err == nil {
		t.Error("empty trace accepted")
	}
	backwards := []Waypoint{
		{At: start.Add(time.Hour), Pos: Point{}},
		{At: start, Pos: Point{}},
	}
	if _, err := NewTrace(backwards); err == nil {
		t.Error("unsorted trace accepted")
	}
}

// TestStationary: a trace of one waypoint pins its node there, before and
// after the waypoint's instant.
func TestStationary(t *testing.T) {
	p := Point{X: 42, Y: 24}
	m, err := NewTrace([]Waypoint{{At: start.Add(time.Hour), Pos: p}})
	if err != nil {
		t.Fatalf("NewTrace: %v", err)
	}
	if got := m.Position(start); got != p {
		t.Errorf("stationary moved to %v", got)
	}
	if got := m.Position(start.Add(1000 * time.Hour)); got != p {
		t.Errorf("stationary drifted to %v", got)
	}
}

// TestItineraryContinuity: positions never jump more than driving speed
// allows between adjacent samples.
func TestItineraryContinuity(t *testing.T) {
	m, err := NewDiurnal(DiurnalConfig{Start: start, Days: 3}, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatalf("NewDiurnal: %v", err)
	}
	step := 10 * time.Second
	maxJump := driveSpeed*step.Seconds() + 1e-6
	prev := m.Position(start)
	for at := start.Add(step); at.Before(start.Add(72 * time.Hour)); at = at.Add(step) {
		cur := m.Position(at)
		if prev.distanceTo(cur) > maxJump {
			t.Fatalf("teleport at %v: %f m in %v", at, prev.distanceTo(cur), step)
		}
		prev = cur
	}
}

// TestItineraryDigests pins every synthetic model's itinerary: for seed 41
// over a week, the positions sampled every 11 minutes and rounded to
// millimetres hash to a fixed digest. TestGoldenDeterminism compares two
// builds of the same code; this test compares the code with itself across
// changes, so a refactor that moves one draw or one default shows here.
func TestItineraryDigests(t *testing.T) {
	models := []struct {
		name  string
		build func(*rand.Rand) (Model, error)
		want  string
	}{
		{"diurnal", func(rng *rand.Rand) (Model, error) {
			return NewDiurnal(DiurnalConfig{Start: start, Days: 7}, rng)
		}, "0cbe4dc8ee6fe17777994ee63edc9639635b49d7e1b8ba669b4498c928e97b08"},
		{"random-waypoint", func(rng *rand.Rand) (Model, error) {
			return NewRandomWaypoint(RandomWaypointConfig{
				Area: Area{W: 3000, H: 3000}, Start: start, Duration: 7 * 24 * time.Hour,
			}, rng)
		}, "bbd4f5dfa9921abbd178ece0093d08e40945b982b680793ebeb8069ad71363a1"},
		{"working-day", func(rng *rand.Rand) (Model, error) {
			return NewWorkingDay(WorkingDayConfig{Start: start, Days: 7}, rng)
		}, "4d48876823ac9964545ee7b88c58c19861f63be18b1d8ed27ecfec38d1363492"},
	}
	for _, m := range models {
		model, err := m.build(rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		h := sha256.New()
		var buf [16]byte
		for minute := 0; minute < 7*24*60; minute += 11 {
			p := model.Position(start.Add(time.Duration(minute) * time.Minute))
			binary.LittleEndian.PutUint64(buf[:8], uint64(int64(math.Round(p.X*1000))))
			binary.LittleEndian.PutUint64(buf[8:], uint64(int64(math.Round(p.Y*1000))))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != m.want {
			t.Errorf("%s itinerary digest = %s, want %s", m.name, got, m.want)
		}
	}
}
