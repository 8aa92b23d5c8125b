package lab

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sos/internal/geo"
	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/mobility"
	"sos/internal/obs"
	"sos/internal/sim"
	"sos/internal/socialgraph"
	"sos/internal/telemetry"
)

// simMidnight and simDayStart place every spec fleet's ModeSim run at
// 09:00 on the paper's Monday. Random waypoint does not key on the time
// of day; they stay fixed because a contact trace's base time, every sim
// report's timestamps and each random-waypoint itinerary (which starts at
// simMidnight, simDayStart before the run) are read from them, so moving
// either changes the committed reports.
var simMidnight = time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC)

const simDayStart = 9 * time.Hour

// runSim executes the experiment in silico: the same declarative spec,
// run at virtual time through the discrete-event simulator instead of
// wall time through real sockets. This is the mode that scales — a
// thousand-node fleet with a full day of virtual mobility finishes in
// CI — and the only mode that takes Mobility, a contact Trace or a
// built-in Scenario, since the live modes have no geometry.
func runSim(spec *Spec, opts Options) (*Report, error) {
	if opts.ExtraObserver != nil || opts.OnEvent != nil {
		// The simulator folds its nodes' observers into its own
		// aggregator and takes no observer or event hook from outside.
		// Harmless for OnEvent (it would just never fire), but an
		// ExtraObserver caller expects cross-checkable events, so fail
		// loudly for both.
		return nil, fmt.Errorf("lab: %s mode has no telemetry stream for OnEvent/ExtraObserver", ModeSim)
	}

	p := compilePlan(spec, 0) // empty for a scenario, which brings its own workload
	var (
		cfg   sim.Config
		study *sim.Gainesville
		err   error
	)
	if spec.Scenario == scenarioGainesville {
		study, err = sim.NewGainesville(sim.GainesvilleConfig{
			Seed:   spec.Seed,
			Days:   int(spec.Duration.D() / (24 * time.Hour)),
			Scheme: spec.Scheme,
			Users:  spec.Nodes,
		})
		if err == nil {
			cfg = study.Config
		}
	} else {
		cfg, err = fleetConfig(spec, p, opts)
	}
	if err != nil {
		return nil, err
	}
	if spec.Store.RelayTTL > 0 {
		cfg.RelayTTL = spec.Store.RelayTTL.D()
	}
	cfg.StoreQuota, cfg.StorePolicy = spec.Store.Quota, spec.Store.Policy

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
	subs := spec.Subscriptions(users)
	if study != nil {
		subs = study.Subscriptions
	}

	// Virtual start and elapsed time: the report describes the
	// experiment, not the host that happened to run it, so two runs of
	// one seed write the same bytes.
	report := buildReport(spec, ModeSim, cfg.Start, spec.Duration.D(),
		res.Collector, telemetry.AggregatorStats{}, subs,
		reports, p.posts, p.skipped)
	if study != nil {
		attachStudy(report, study, res)
	}
	// The timeline buckets virtual-time deliveries from the virtual run
	// start; there is no live fleet to sample gauges from.
	attachTimeline(report, cfg.Start, opts.TimelineInterval, spec.Duration.D(), nil)
	return report, nil
}

// fleetConfig builds the simulation of a spec's own fleet: its handles,
// social graph and post plan, moving by random waypoint or linked by its
// contact trace, starting simDayStart into the paper's Monday.
func fleetConfig(spec *Spec, p plan, opts Options) (sim.Config, error) {
	start := simMidnight.Add(simDayStart)
	cfg := sim.Config{
		Start:    start,
		Duration: spec.Duration.D(),
		Scheme:   spec.Scheme,
		Seed:     spec.Seed,
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
	activity := churnActivity(p, spec.Nodes, start)

	// The fleet: per-node seeded mobility, or none when a contact trace
	// drives the links directly.
	nodes := make([]sim.NodeSpec, spec.Nodes)
	for i, handle := range spec.Handles {
		nodes[i] = sim.NodeSpec{Handle: handle, Activity: activity[i]}
	}
	if spec.Trace != "" {
		events, traceHandles, err := sim.LoadContactTrace(spec.TracePath(), start)
		if err != nil {
			return sim.Config{}, err
		}
		known := make(map[string]bool, spec.Nodes)
		for _, h := range spec.Handles {
			known[h] = true
		}
		for _, h := range traceHandles {
			if !known[h] {
				return sim.Config{}, fmt.Errorf("lab: trace names node %q not in the spec's handles", h)
			}
		}
		cfg.Contacts = events
		opts.logf("lab: trace %s: %d link transitions across %d nodes", spec.TracePath(), len(events), len(traceHandles))
	} else {
		master := rand.New(rand.NewSource(spec.Seed))
		for i := range nodes {
			model, err := buildMobility(mob, spec.Duration.D(), rand.New(rand.NewSource(master.Int63())))
			if err != nil {
				return sim.Config{}, err
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
	return cfg, nil
}

// attachStudy computes the report's Gainesville section from the
// replay and keeps what its CSV series are written from.
func attachStudy(r *Report, g *sim.Gainesville, res *sim.Result) {
	col := res.Collector
	all, oneHop := col.DelayCDF(metrics.AllHops), col.DelayCDF(metrics.OneHop)
	ratiosAll := col.DeliveryRatios(g.Subscriptions, metrics.AllHops)
	ratiosOne := col.DeliveryRatios(g.Subscriptions, metrics.OneHop)
	st := &StudyReport{
		Graph:           socialgraph.ComputeStats(g.Graph),
		Follows:         res.Follows,
		OneHopAtLeast80: metrics.FractionAtLeast(ratiosOne, 0.80),
		Generated:       len(res.Recorder.Events(geo.EventCreated)),
		Passed:          len(res.Recorder.Events(geo.EventPassed)),
		Contacts:        res.Recorder.ContactCount(),
		Medium:          res.MediumStats,
	}
	for _, h := range []float64{6, 12, 24, 36, 48, 72, 94, 120, 168} {
		st.DelayCDF = append(st.DelayCDF, [3]float64{h, all.At(h), oneHop.At(h)})
	}
	for _, x := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		st.RatioAbove = append(st.RatioAbove, [3]float64{x, metrics.FractionAbove(ratiosAll, x), metrics.FractionAbove(ratiosOne, x)})
	}
	st.AreaMin, st.AreaMax = res.Recorder.BoundingBox()
	for _, ns := range res.NodeStats {
		st.Handshakes += ns.Adhoc.HandshakesOK
		st.CertRejections += ns.Adhoc.CertRejections
		st.TransfersAborted += ns.Message.TransfersAborted
		st.VerifyFailures += ns.Message.VerifyFailures
	}
	// The scenario's own workload happens in full.
	r.PostsScheduled, r.PostsExecuted = res.Posts, res.Posts
	r.Study = st
	r.recorder = res.Recorder
	r.subs = g.Subscriptions
}

// buildMobility constructs one node's random-waypoint itinerary per the
// spec, from simMidnight to the end of the run.
func buildMobility(mob *MobilitySpec, dur time.Duration, rng *rand.Rand) (mobility.Model, error) {
	return mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
		Area:  mobility.Area{W: mob.AreaW, H: mob.AreaH},
		Start: simMidnight, Duration: simDayStart + dur,
		SpeedMin: mob.SpeedMin, SpeedMax: mob.SpeedMax,
	}, rng)
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
