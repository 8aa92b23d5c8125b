package sim

import (
	"math"
	"math/rand"
	"time"

	"sos/internal/mobility"
)

// ContactBenchSamples is one benchmark fleet's precomputed tick inputs:
// Positions[t] and Active[t] are the sweep arguments for sample instant
// t. Precomputing keeps mobility interpolation out of the timed region,
// so BenchmarkSimContacts measures contact detection and nothing else.
type ContactBenchSamples struct {
	Nodes     int
	RangeM    float64
	Positions [][]mobility.Point
	Active    [][]bool
}

// ContactBenchFleet builds the canonical contact-detection benchmark
// fleet: n random-waypoint nodes at constant density (the area scales
// with n, pinned to the 1k-node scenario's 1000 nodes per 4000 m
// square), 35 m radio range, one fifth of the fleet asleep at any
// instant, sampled at `samples` successive 30 s ticks. Everything is
// seeded, so the checks per tick the grid test pins are
// bit-reproducible across hosts.
func ContactBenchFleet(n, samples int, seed int64) *ContactBenchSamples {
	const rangeM = 35.0
	side := 4000.0 * math.Sqrt(float64(n)/1000.0)
	start := time.Date(2017, 4, 3, 9, 0, 0, 0, time.UTC)
	master := rand.New(rand.NewSource(seed))
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Area:     mobility.Area{W: side, H: side},
			Start:    start,
			Duration: time.Duration(samples+1) * 30 * time.Second,
			SpeedMin: 1, SpeedMax: 3,
		}, rand.New(rand.NewSource(master.Int63())))
		if err != nil {
			panic(err) // impossible: config is fixed and valid
		}
		models[i] = m
	}
	out := &ContactBenchSamples{
		Nodes:     n,
		RangeM:    rangeM,
		Positions: make([][]mobility.Point, samples),
		Active:    make([][]bool, samples),
	}
	actRng := rand.New(rand.NewSource(master.Int63()))
	for t := 0; t < samples; t++ {
		at := start.Add(time.Duration(t) * 30 * time.Second)
		pos := make([]mobility.Point, n)
		act := make([]bool, n)
		for i := range models {
			pos[i] = models[i].Position(at)
			act[i] = actRng.Float64() < 0.8
		}
		out.Positions[t] = pos
		out.Active[t] = act
	}
	return out
}
