package lab

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sos/internal/id"
	"sos/internal/mobility"
	"sos/internal/obs"
	"sos/internal/sim"
	"sos/internal/telemetry"
)

// simMidnight anchors every ModeSim run at the paper's Monday, so
// day-structured mobility models (diurnal, working-day) cover a school
// week in the same phase as the field study.
var simMidnight = time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC)

// simDayStart offsets short experiments into the waking day: a
// two-hour run should sample commuters at work, not a sleeping city.
const simDayStart = 9 * time.Hour

// runSim executes the experiment in silico: the same declarative spec,
// run at virtual time through the discrete-event simulator instead of
// wall time through real sockets. This is the mode that scales — a
// thousand-node fleet with a full day of virtual mobility finishes in
// CI — and the only mode that takes a Mobility model or a contact
// Trace, since the live modes have no geometry.
func runSim(spec *Spec, opts Options) (*Report, error) {
	if spec.storeEngine("mem") != "mem" {
		return nil, fmt.Errorf("lab: %s mode runs the in-memory engine; spec asks for %q", ModeSim, spec.Store.Engine)
	}
	if opts.ExtraObserver != nil || opts.OnEvent != nil {
		// The simulator folds its nodes' observers into its own
		// aggregator and takes no observer or event hook from outside.
		// Harmless for OnEvent (it would just never fire), but an
		// ExtraObserver caller expects cross-checkable events, so fail
		// loudly for both.
		return nil, fmt.Errorf("lab: %s mode has no telemetry stream for OnEvent/ExtraObserver", ModeSim)
	}

	start := simMidnight.Add(simDayStart)
	cfg := sim.Config{
		Start:           start,
		Duration:        spec.Duration.D(),
		Scheme:          spec.Scheme,
		Seed:            spec.Seed,
		RelayTTL:        spec.Store.RelayTTL.D(),
		StoreQuota:      spec.Store.Quota,
		StoreQuotaBytes: spec.Store.QuotaBytes,
		StorePolicy:     spec.Store.Policy,
	}
	mob := spec.Mobility
	if mob == nil {
		mob = &MobilitySpec{}
	}
	cfg.Range = mob.Range
	cfg.Tick = mob.Tick.D()

	// The same plan the live modes walk, at virtual time. Churn maps to
	// app activity: a node churned down is a device whose app left the
	// foreground, so its radio drops out of every contact (the same §VI
	// reality the live modes model with SetReachable).
	p := compilePlan(spec, 0)
	activity := churnActivity(p, spec.Nodes, start)

	// The fleet: per-node seeded mobility, or none when a contact trace
	// drives the links directly.
	var contacts []sim.ContactEvent
	nodes := make([]sim.NodeSpec, spec.Nodes)
	for i, handle := range spec.Handles {
		nodes[i] = sim.NodeSpec{Handle: handle, Activity: activity[i]}
	}
	if spec.Trace != "" {
		events, traceHandles, err := sim.LoadContactTrace(spec.TracePath(), start)
		if err != nil {
			return nil, err
		}
		known := make(map[string]bool, spec.Nodes)
		for _, h := range spec.Handles {
			known[h] = true
		}
		for _, h := range traceHandles {
			if !known[h] {
				return nil, fmt.Errorf("lab: trace names node %q not in the spec's handles", h)
			}
		}
		contacts = events
		opts.logf("lab: trace %s: %d link transitions across %d nodes", spec.TracePath(), len(events), len(traceHandles))
	} else {
		master := rand.New(rand.NewSource(spec.Seed))
		days := int(math.Ceil((simDayStart + spec.Duration.D()).Hours() / 24))
		for i := range nodes {
			model, err := buildMobility(mob, simMidnight, days, spec.Duration.D(),
				rand.New(rand.NewSource(master.Int63())))
			if err != nil {
				return nil, err
			}
			nodes[i].Mobility = model
		}
	}

	// Social graph: pre-seeded quiet subscriptions, as in the live modes.
	for _, e := range spec.FollowEdges() {
		nodes[e[0]].Follows = append(nodes[e[0]].Follows, spec.Handles[e[1]])
	}

	// Workload: the plan's posts, whose authors are awake.
	for _, s := range p.steps {
		if s.kind == stepPost {
			cfg.Workload = append(cfg.Workload, sim.Event{
				At: start.Add(s.at), Handle: spec.Handles[s.node], Action: sim.ActionPost, Payload: []byte(s.body),
			})
		}
	}
	cfg.Nodes = nodes
	cfg.Contacts = contacts

	opts.logf("lab: sim fleet of %d nodes, %s virtual, tick %s", spec.Nodes, spec.Duration, cfg.Tick)
	wallStart := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	opts.logf("lab: sim ran %s virtual in %s wall", spec.Duration, time.Since(wallStart).Truncate(time.Millisecond))

	users := make(map[string]id.UserID, spec.Nodes)
	reports := make([]NodeReport, 0, spec.Nodes)
	for _, n := range s.Nodes() {
		users[n.Handle] = n.User
		// The same metric bridge the live modes snapshot.
		reg := obs.NewRegistry()
		obs.RegisterNodeMetrics(reg, obs.NodeMetrics{Middleware: n.MW})
		reports = append(reports, NodeReport{Handle: n.Handle, User: n.User.String(), Metrics: reg.Snapshot()})
	}

	// Virtual start and elapsed time: the report describes the
	// experiment, not the host that happened to run it, so two runs of
	// one seed write the same bytes.
	report := buildReport(spec, ModeSim, start, spec.Duration.D(),
		res.Collector, telemetry.AggregatorStats{}, spec.Subscriptions(users),
		reports, p.posts, p.skipped)
	// The timeline buckets virtual-time deliveries from the virtual run
	// start; there is no live fleet to sample gauges from.
	attachTimeline(report, start, opts.TimelineInterval, spec.Duration.D(), nil)
	return report, nil
}

// buildMobility constructs one node's model per the spec.
func buildMobility(mob *MobilitySpec, midnight time.Time, days int, dur time.Duration, rng *rand.Rand) (mobility.Model, error) {
	area := mobility.Area{W: mob.AreaW, H: mob.AreaH}
	switch mob.Model {
	case "", MobilityRandomWaypoint:
		if area == (mobility.Area{}) {
			area = mobility.Area{W: 3000, H: 3000}
		}
		return mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Area: area, Start: midnight, Duration: simDayStart + dur,
			SpeedMin: mob.SpeedMin, SpeedMax: mob.SpeedMax,
		}, rng)
	case MobilityDiurnal:
		return mobility.NewDiurnal(mobility.DiurnalConfig{
			Area: area, Start: midnight, Days: days,
		}, rng)
	case MobilityWorkingDay:
		return mobility.NewWorkingDay(mobility.WorkingDayConfig{
			Area: area, Start: midnight, Days: days,
		}, rng)
	default:
		return nil, fmt.Errorf("lab: unknown mobility model %q", mob.Model)
	}
}

// churnActivity turns the plan's churn into per-node activity functions
// for the simulator, anchored at the virtual start. A node's transitions
// alternate down, up, down, …, so it is active at t when an even number
// of them lie at or before t. A node without churn gets nil (always
// active, zero per-tick cost).
func churnActivity(p plan, nodes int, start time.Time) []func(time.Time) bool {
	flips := make([][]time.Time, nodes)
	for _, s := range p.steps {
		if s.kind == OpDown || s.kind == OpUp {
			flips[s.node] = append(flips[s.node], start.Add(s.at))
		}
	}
	out := make([]func(time.Time) bool, nodes)
	for i, ts := range flips {
		if len(ts) > 0 {
			out[i] = func(at time.Time) bool {
				return sort.Search(len(ts), func(k int) bool { return ts[k].After(at) })%2 == 0
			}
		}
	}
	return out
}
