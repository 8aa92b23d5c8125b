// Package lab is the experiment harness of the in-vivo lab: it takes a
// declarative specification of a fleet — size, social graph, routing
// scheme, store quota and eviction policy, post workload, and a churn
// schedule of nodes sleeping and waking (the paper's §VI reality, where
// devices disseminate only while the app is foregrounded) — and runs it
// as a real deployment: either N complete middleware instances over
// loopback NetMedium sockets in one process, or N real sosd child
// processes. Live telemetry streams from every node into an aggregator,
// and the run ends with a report of the paper's evaluation quantities
// (delivery ratios, delay CDF, dissemination counts) computed from the
// fleet's own events.
package lab

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sos/internal/chaos"
	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/store"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("1m30s") and unmarshals from either that form or raw nanoseconds.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch val := v.(type) {
	case string:
		parsed, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("lab: bad duration %q: %w", val, err)
		}
		*d = Duration(parsed)
	case float64:
		*d = Duration(time.Duration(val))
	default:
		return fmt.Errorf("lab: duration must be a string or nanosecond count, got %T", v)
	}
	return nil
}

// StoreSpec bounds each node's storage engine: memory in-process and in
// sim mode, disk for child processes (so churned nodes resume their
// database on wake, keeping sequence numbers collision-free).
type StoreSpec struct {
	// Quota bounds the buffer in messages; 0 = unbounded.
	Quota int `json:"quota,omitempty"`
	// Policy names the eviction policy (store.PolicyByName).
	Policy string `json:"policy,omitempty"`
	// RelayTTL bounds how long foreign messages are carried.
	RelayTTL Duration `json:"relayTTL,omitempty"`
}

// MobilitySpec tunes the random-waypoint mobility of ModeSim runs
// (rejected in the live modes, which have no geometry).
type MobilitySpec struct {
	// AreaW/AreaH bound the plane in meters (default 3000×3000).
	AreaW float64 `json:"areaW,omitempty"`
	AreaH float64 `json:"areaH,omitempty"`
	// Range is the radio contact radius in meters (default 35, the
	// paper's MPC range).
	Range float64 `json:"range,omitempty"`
	// Tick is the contact-detection sampling period (default 30s).
	Tick Duration `json:"tick,omitempty"`
	// SpeedMin/SpeedMax bound random-waypoint leg speed in m/s.
	SpeedMin float64 `json:"speedMin,omitempty"`
	SpeedMax float64 `json:"speedMax,omitempty"`
}

// Churn operations.
const (
	OpDown = "down"
	OpUp   = "up"
)

// ChurnEvent is one scheduled availability change: a node's radio (and,
// in process mode, its whole process) going to sleep or waking up.
type ChurnEvent struct {
	// At is the offset from experiment start.
	At Duration `json:"at"`
	// Node is the affected node's handle.
	Node string `json:"node"`
	// Op is OpDown or OpUp.
	Op string `json:"op"`
}

// Spec declares one experiment.
type Spec struct {
	// Name labels the experiment in reports.
	Name string `json:"name,omitempty"`
	// Nodes is the fleet size (ignored when Handles is set).
	Nodes int `json:"nodes,omitempty"`
	// Handles optionally names the nodes; defaults to n1..nN.
	Handles []string `json:"handles,omitempty"`
	// Scheme is the routing protocol for every node; default epidemic.
	Scheme string `json:"scheme,omitempty"`
	// Graph picks a social-graph preset — "ring" (i follows i+1),
	// "star" (everyone follows the first node), "full" (everyone
	// follows everyone), "random" (each node follows Degree random
	// others, deterministic under Seed — the preset that scales to
	// thousand-node fleets where full would mean N² subscriptions) —
	// or "" to use Edges alone.
	Graph string `json:"graph,omitempty"`
	// Degree is the per-node follow count for the "random" preset
	// (default 4).
	Degree int `json:"degree,omitempty"`
	// Edges adds explicit 1-based [follower, followee] pairs.
	Edges [][2]int `json:"edges,omitempty"`
	// Store configures every node's storage engine.
	Store StoreSpec `json:"store,omitempty"`
	// Posts is the workload size; posts are spread evenly over
	// PostWindow with authors assigned round-robin. Default: one per
	// node.
	Posts int `json:"posts,omitempty"`
	// PostWindow is how much of the run the workload occupies; default
	// two thirds of Duration (the tail drains in-flight messages).
	PostWindow Duration `json:"postWindow,omitempty"`
	// Duration is the wall-clock experiment length.
	Duration Duration `json:"duration"`
	// BeaconInterval tunes discovery; default 100ms, a loopback-lab
	// speed, not a field speed. A peer is lost after 3.5 silent
	// intervals.
	BeaconInterval Duration `json:"beaconInterval,omitempty"`
	// Churn is the sleep/wake schedule.
	Churn []ChurnEvent `json:"churn,omitempty"`
	// Seed fixes credential generation (and hence user ids) for
	// reproducible reports. In ModeSim it additionally fixes mobility
	// itineraries and the whole virtual-time schedule.
	Seed int64 `json:"seed,omitempty"`

	// Sweep declares the scenario-matrix axes for RunSweep; ignored by
	// single runs.
	Sweep *SweepSpec `json:"sweep,omitempty"`

	// Mobility tunes the random-waypoint mobility of ModeSim runs (nil
	// selects its defaults). Sim-only.
	Mobility *MobilitySpec `json:"mobility,omitempty"`
	// Trace is a contact-trace file (CSV; see docs/SCENARIOS.md)
	// replayed verbatim instead of synthesizing mobility. Its node names
	// must be covered by Handles. Relative paths resolve against the
	// spec file's directory. Sim-only; overrides Mobility.
	Trace string `json:"trace,omitempty"`
	// Scenario names a built-in study replay. The one scenario,
	// "gainesville", is the paper's §VI field study: Nodes users for
	// Duration (whole days) under Scheme and Seed, with the scenario's
	// own relationship graph, meetings, app activity and posts. A
	// nonzero Store.RelayTTL replaces its 24h relay bound. Sim-only.
	Scenario string `json:"scenario,omitempty"`

	// baseDir is where the spec file lives, for resolving Trace;
	// empty for specs parsed from memory.
	baseDir string
	// chaos names the chaos preset (chaos.Preset) that wraps the shared
	// medium of an in-process run; cellSpec sets it for one sweep cell.
	chaos string
}

// LoadSpec reads and validates a spec file. Relative Trace paths
// resolve against the spec file's directory.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lab: reading spec: %w", err)
	}
	s, err := parseSpec(raw)
	if err != nil {
		return nil, err
	}
	s.baseDir = filepath.Dir(path)
	return s, nil
}

// TracePath resolves the spec's contact-trace file path.
func (s *Spec) TracePath() string {
	if s.Trace == "" || filepath.IsAbs(s.Trace) || s.baseDir == "" {
		return s.Trace
	}
	return filepath.Join(s.baseDir, s.Trace)
}

// parseSpec parses and validates a JSON spec.
func parseSpec(raw []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("lab: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// scenarioGainesville names the replay of the paper's §VI field study.
const scenarioGainesville = "gainesville"

// Validate checks the spec and fills defaults.
func (s *Spec) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("lab: duration must be positive")
	}
	if s.Name == "" {
		s.Name = "experiment"
	}
	// The name rides inside post bodies piped to child REPLs line by
	// line; control characters would let a spec inject REPL commands.
	for _, r := range s.Name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("lab: name contains control character %q", r)
		}
	}
	if s.Scheme == "" {
		s.Scheme = "epidemic"
	}
	if s.Store.RelayTTL < 0 {
		return fmt.Errorf("lab: negative store relayTTL %s", s.Store.RelayTTL)
	}
	if _, err := store.PolicyByName(s.Store.Policy, s.Store.RelayTTL.D()); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	if s.Scenario != "" {
		return s.validateScenario()
	}
	if len(s.Handles) == 0 {
		if s.Nodes < 2 {
			return fmt.Errorf("lab: spec needs at least 2 nodes, got %d", s.Nodes)
		}
		for i := 1; i <= s.Nodes; i++ {
			s.Handles = append(s.Handles, fmt.Sprintf("n%d", i))
		}
	}
	s.Nodes = len(s.Handles)
	if s.Nodes < 2 {
		return fmt.Errorf("lab: spec needs at least 2 nodes, got %d", s.Nodes)
	}
	seen := make(map[string]bool, s.Nodes)
	for _, h := range s.Handles {
		if h == "" {
			return fmt.Errorf("lab: empty handle")
		}
		// Handles become file names, flag values (comma-joined), and
		// REPL arguments, so only a conservative charset is safe.
		for _, r := range h {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
				r == '-' || r == '_' || r == '.') {
				return fmt.Errorf("lab: handle %q contains %q (allowed: letters, digits, '-', '_', '.')", h, r)
			}
		}
		if seen[h] {
			return fmt.Errorf("lab: duplicate handle %q", h)
		}
		seen[h] = true
	}
	if s.Posts == 0 {
		s.Posts = s.Nodes
	}
	if s.Posts < 0 {
		return fmt.Errorf("lab: negative post count")
	}
	if s.PostWindow <= 0 {
		s.PostWindow = s.Duration * 2 / 3
	}
	if s.PostWindow > s.Duration {
		return fmt.Errorf("lab: postWindow %s exceeds duration %s", s.PostWindow, s.Duration)
	}
	if s.BeaconInterval <= 0 {
		s.BeaconInterval = Duration(100 * time.Millisecond)
	}
	switch s.Graph {
	case "", "ring", "star", "full", "random":
	default:
		return fmt.Errorf("lab: unknown graph preset %q (want ring, star, full, or random)", s.Graph)
	}
	if s.Degree < 0 {
		return fmt.Errorf("lab: negative degree")
	}
	if s.Degree == 0 {
		s.Degree = 4
	}
	if s.Degree >= s.Nodes {
		s.Degree = s.Nodes - 1
	}
	if s.Mobility != nil && s.Mobility.SpeedMax < s.Mobility.SpeedMin {
		return fmt.Errorf("lab: mobility speed range [%f, %f]", s.Mobility.SpeedMin, s.Mobility.SpeedMax)
	}
	for _, e := range s.Edges {
		if e[0] < 1 || e[0] > s.Nodes || e[1] < 1 || e[1] > s.Nodes {
			return fmt.Errorf("lab: edge %v out of range [1,%d]", e, s.Nodes)
		}
		if e[0] == e[1] {
			return fmt.Errorf("lab: self-loop edge %v", e)
		}
	}
	if err := s.Sweep.validate(); err != nil {
		return err
	}
	for i, c := range s.Churn {
		if c.Op != OpDown && c.Op != OpUp {
			return fmt.Errorf("lab: churn[%d]: unknown op %q (want %q or %q)", i, c.Op, OpDown, OpUp)
		}
		if !seen[c.Node] {
			return fmt.Errorf("lab: churn[%d] names unknown node %q", i, c.Node)
		}
		if c.At < 0 || c.At > s.Duration {
			return fmt.Errorf("lab: churn[%d] at %s outside the run", i, c.At)
		}
	}
	return nil
}

// validateScenario checks a spec that names a built-in scenario. The
// scenario builds its own fleet, graph, workload and mobility, so a
// field that would declare any of them is refused by name.
func (s *Spec) validateScenario() error {
	if s.Scenario != scenarioGainesville {
		return fmt.Errorf("lab: unknown scenario %q (want %q)", s.Scenario, scenarioGainesville)
	}
	fields := []string{"graph", "degree", "edges", "handles", "posts", "postWindow", "churn", "mobility", "trace", "sweep"}
	for i, set := range []bool{s.Graph != "", s.Degree != 0, len(s.Edges) > 0, len(s.Handles) > 0, s.Posts != 0,
		s.PostWindow != 0, len(s.Churn) > 0, s.Mobility != nil, s.Trace != "", s.Sweep != nil} {
		if set {
			return fmt.Errorf("lab: scenario %q builds its own fleet and workload; drop %q", s.Scenario, fields[i])
		}
	}
	if s.Nodes < 2 {
		return fmt.Errorf("lab: spec needs at least 2 nodes, got %d", s.Nodes)
	}
	if s.Duration.D()%(24*time.Hour) != 0 {
		return fmt.Errorf("lab: scenario %q runs whole days; duration %s is not", s.Scenario, s.Duration)
	}
	return nil
}

// FollowEdges resolves the preset plus explicit edges into deduplicated
// 0-based [follower, followee] pairs.
func (s *Spec) FollowEdges() [][2]int {
	set := make(map[[2]int]bool)
	add := func(a, b int) {
		if a != b {
			set[[2]int{a, b}] = true
		}
	}
	n := s.Nodes
	switch s.Graph {
	case "ring":
		for i := 0; i < n; i++ {
			add(i, (i+1)%n)
		}
	case "star":
		for i := 1; i < n; i++ {
			add(i, 0)
		}
	case "full":
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				add(i, j)
			}
		}
	case "random":
		// Deterministic under the spec seed, so the social graph — and
		// hence the delivery-ratio series — replays across hosts.
		rng := rand.New(rand.NewSource(s.Seed ^ 0x536f534772617068)) // "SoSGraph"
		for i := 0; i < n; i++ {
			for picked := 0; picked < s.Degree; {
				j := rng.Intn(n)
				if j == i || set[[2]int{i, j}] {
					continue
				}
				add(i, j)
				picked++
			}
		}
	}
	for _, e := range s.Edges {
		add(e[0]-1, e[1]-1)
	}
	out := make([][2]int, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}

// Subscriptions maps the resolved social graph onto user identifiers for
// the delivery-ratio series.
func (s *Spec) Subscriptions(users map[string]id.UserID) []metrics.Subscription {
	edges := s.FollowEdges()
	subs := make([]metrics.Subscription, 0, len(edges))
	for _, e := range edges {
		subs = append(subs, metrics.Subscription{
			Follower: users[s.Handles[e[0]]],
			Followee: users[s.Handles[e[1]]],
		})
	}
	return subs
}

// chaosProfile resolves the spec's chaos preset, seeded by the spec; the
// zero profile (preset "none", or none named) needs no wrapper.
func (s *Spec) chaosProfile() (chaos.Profile, error) {
	p, err := chaos.Preset(s.chaos, s.Duration.D(), s.Seed)
	if err != nil {
		return chaos.Profile{}, fmt.Errorf("lab: %w", err)
	}
	return p, nil
}

// lossTimeout is how long a silent peer stays found: 3.5 beacon
// intervals.
func (s *Spec) lossTimeout() time.Duration { return s.BeaconInterval.D() * 7 / 2 }
