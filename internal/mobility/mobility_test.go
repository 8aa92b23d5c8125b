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

// TestGoldenDeterminism is the bit-identity gate for every seeded
// model: the same seed must yield the same itinerary, down to the last
// float bit, across independent constructions — the property every
// seeded replay (and the committed experiment numbers) depends on.
func TestGoldenDeterminism(t *testing.T) {
	models := map[string]func(seed int64) (Model, error){
		"random-waypoint": func(seed int64) (Model, error) {
			return NewRandomWaypoint(RandomWaypointConfig{
				Area: Area{W: 3000, H: 3000}, Start: start, Duration: 7 * 24 * time.Hour,
			}, rand.New(rand.NewSource(seed)))
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

// TestItineraryContinuity: positions never jump further between adjacent
// samples than the fastest leg allows.
func TestItineraryContinuity(t *testing.T) {
	cfg := RandomWaypointConfig{Start: start, Duration: 72 * time.Hour, SpeedMin: 1, SpeedMax: 3}
	m, err := NewRandomWaypoint(cfg, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatalf("NewRandomWaypoint: %v", err)
	}
	step := 10 * time.Second
	maxJump := cfg.SpeedMax*step.Seconds() + 1e-6
	prev := m.Position(start)
	for at := start.Add(step); at.Before(start.Add(72 * time.Hour)); at = at.Add(step) {
		cur := m.Position(at)
		if prev.distanceTo(cur) > maxJump {
			t.Fatalf("teleport at %v: %f m in %v", at, prev.distanceTo(cur), step)
		}
		prev = cur
	}
}

// TestItineraryDigests pins every seeded model's itinerary: for seed 41
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
		{"random-waypoint", func(rng *rand.Rand) (Model, error) {
			return NewRandomWaypoint(RandomWaypointConfig{
				Area: Area{W: 3000, H: 3000}, Start: start, Duration: 7 * 24 * time.Hour,
			}, rng)
		}, "bbd4f5dfa9921abbd178ece0093d08e40945b982b680793ebeb8069ad71363a1"},
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
