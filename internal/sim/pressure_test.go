// The buffer-pressure scenario: the constrained-device workload family
// the in-vivo study could not explore. The field deployment ran on
// phones with effectively unbounded storage for a 259-post week; here we
// shrink every node's buffer until the eviction policy decides delivery
// outcomes, which is exactly where DTN routing schemes diverge (epidemic
// floods every buffer it meets; interest-based carries only subscribed
// cargo and so survives small quotas far better).
//
// Topology: two stationary clusters out of radio range of each other and
// a ferry that shuttles between them. Every message must cross via the
// ferry's bounded buffer, so its eviction policy is on the critical path
// of every delivery.

package sim

import (
	"fmt"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/mobility"
)

// bufferPressureConfig parameterizes the constrained-buffer scenario.
// Zero values select the defaults noted on each field.
type bufferPressureConfig struct {
	// Seed fixes all randomness (workload spread, identities).
	Seed int64
	// ClusterSize is the node count per cluster (default 3).
	ClusterSize int
	// Posts is the number of posts authored in cluster A (default 60).
	Posts int
	// Quota bounds every node's buffer in messages (default 12;
	// negative = unbounded, the control arm).
	Quota int
	// Policy names the eviction policy (default drop-oldest).
	Policy string
	// Scheme selects routing for every node (default epidemic).
	Scheme string
	// Hours is the scenario length (default 6).
	Hours int
	// PayloadBytes sizes each post (default 64).
	PayloadBytes int
}

// bufferPressure is a fully-built pressure scenario.
type bufferPressure struct {
	Config        Config
	Subscriptions []metrics.Subscription
}

// newBufferPressure builds the scenario: cluster A authors posts, the
// ferry shuttles, cluster B subscribes to every A-author. The ferry
// subscribes to half the authors, so interest routing still carries a
// defined portion of the workload across the partition.
func newBufferPressure(cfg bufferPressureConfig) (*bufferPressure, error) {
	if cfg.ClusterSize <= 0 {
		cfg.ClusterSize = 3
	}
	if cfg.Posts <= 0 {
		cfg.Posts = 60
	}
	if cfg.Quota == 0 {
		cfg.Quota = 12
	}
	if cfg.Quota < 0 {
		cfg.Quota = 0 // unbounded control arm
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "epidemic"
	}
	if cfg.Hours <= 0 {
		cfg.Hours = 6
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 64
	}

	start := time.Date(2017, 4, 3, 8, 0, 0, 0, time.UTC)
	const gap = 2000.0 // meters between clusters, far beyond radio range

	var nodes []NodeSpec
	aHandles := make([]string, cfg.ClusterSize)
	bHandles := make([]string, cfg.ClusterSize)
	for i := 0; i < cfg.ClusterSize; i++ {
		aHandles[i] = fmt.Sprintf("a%02d", i+1)
		bHandles[i] = fmt.Sprintf("b%02d", i+1)
		nodes = append(nodes, NodeSpec{
			Handle:   aHandles[i],
			Mobility: pinned{X: float64(i) * 5, Y: 0},
		})
	}
	// Every B-node follows every A-author: full demand across the gap.
	for i := 0; i < cfg.ClusterSize; i++ {
		nodes = append(nodes, NodeSpec{
			Handle:   bHandles[i],
			Mobility: pinned{X: gap + float64(i)*5, Y: 0},
			Follows:  aHandles,
		})
	}
	// The ferry oscillates between the clusters every 30 minutes and
	// follows half the authors, so interest routing carries that half.
	var waypoints []mobility.Waypoint
	for at, side := start, 0; !at.After(start.Add(time.Duration(cfg.Hours) * time.Hour)); at = at.Add(30 * time.Minute) {
		x := 0.0
		if side%2 == 1 {
			x = gap
		}
		waypoints = append(waypoints, mobility.Waypoint{At: at, Pos: mobility.Point{X: x, Y: 0}})
		side++
	}
	ferryTrace, err := mobility.NewTrace(waypoints)
	if err != nil {
		return nil, fmt.Errorf("sim: ferry trace: %w", err)
	}
	nodes = append(nodes, NodeSpec{
		Handle:   "ferry",
		Mobility: ferryTrace,
		Follows:  aHandles[:(cfg.ClusterSize+1)/2],
	})

	// Workload: posts spread evenly over the first two thirds of the
	// run, round-robin over the A-authors, so the tail still has ferry
	// crossings left to deliver.
	window := time.Duration(cfg.Hours) * time.Hour * 2 / 3
	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	var workload []Event
	for p := 0; p < cfg.Posts; p++ {
		at := start.Add(time.Duration(int64(window) * int64(p) / int64(cfg.Posts)))
		workload = append(workload, Event{
			At:      at,
			Handle:  aHandles[p%cfg.ClusterSize],
			Action:  ActionPost,
			Payload: payload,
		})
	}

	var subs []metrics.Subscription
	for _, b := range bHandles {
		for _, a := range aHandles {
			subs = append(subs, metrics.Subscription{
				Follower: id.NewUserID(b),
				Followee: id.NewUserID(a),
			})
		}
	}

	return &bufferPressure{
		Config: Config{
			Start:       start,
			Duration:    time.Duration(cfg.Hours) * time.Hour,
			Tick:        time.Minute,
			Range:       50,
			Scheme:      cfg.Scheme,
			Seed:        cfg.Seed,
			StoreQuota:  cfg.Quota,
			StorePolicy: cfg.Policy,
			Nodes:       nodes,
			Workload:    workload,
		},
		Subscriptions: subs,
	}, nil
}

// BenchmarkStoreBufferPressure runs the constrained-device workload the
// in-vivo study could not explore: a finite per-node quota on the ferry
// topology, epidemic vs. interest. Epidemic floods every buffer it meets
// and pays for it in evictions; interest carries only subscribed cargo
// and keeps more of what matters.
func BenchmarkStoreBufferPressure(b *testing.B) {
	for _, scheme := range []string{"epidemic", "interest"} {
		b.Run(scheme, func(b *testing.B) {
			var delivered, evictions, trackedDrops float64
			for i := 0; i < b.N; i++ {
				bp, err := newBufferPressure(bufferPressureConfig{
					Seed: 11, Scheme: scheme, Quota: 12, Posts: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				s, err := New(bp.Config)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				delivered = float64(len(res.Collector.Deliveries(metrics.AllHops)))
				evictions = float64(res.Collector.Evictions())
				trackedDrops = float64(res.Collector.TrackedEvictions())
			}
			b.ReportMetric(delivered, "deliveries")
			b.ReportMetric(evictions, "evictions")
			b.ReportMetric(trackedDrops, "tracked-drops")
		})
	}
}
