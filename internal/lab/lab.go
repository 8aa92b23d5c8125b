package lab

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/pki"
	"sos/internal/telemetry"
)

// Run modes.
const (
	// ModeInProcess runs the fleet as N middleware instances inside
	// this process, each with its own loopback NetMedium endpoint (real
	// UDP beacons, real TCP sessions).
	ModeInProcess = "inprocess"
	// ModeProcess runs the fleet as N real sosd child processes wired
	// together over loopback — the full in-vivo deployment shape.
	ModeProcess = "process"
	// ModeSim runs the fleet through the discrete-event simulator at
	// virtual time: same spec, same report, but contacts come from
	// synthetic mobility (spec.Mobility), a recorded contact trace
	// (spec.Trace) or a built-in study (spec.Scenario), and a
	// thousand-node day finishes in CI minutes.
	ModeSim = "sim"
)

// Options tunes a run beyond what the spec declares.
type Options struct {
	// Mode selects ModeInProcess (default) or ModeProcess.
	Mode string
	// SosdPath locates the sosd binary for ModeProcess; default "sosd"
	// (resolved via PATH).
	SosdPath string
	// WorkDir holds credentials and disk stores; empty creates (and
	// removes) a temporary directory.
	WorkDir string
	// Logf, when set, receives progress and child-process output.
	Logf func(format string, args ...any)
	// OnEvent observes every aggregated telemetry event (live progress).
	OnEvent func(ev telemetry.Event)
	// ExtraObserver, when set, attaches a second observer to every
	// in-process node — the acceptance tests use it to watch the same
	// run directly and cross-check the aggregated metrics.
	ExtraObserver func(handle string, user id.UserID) core.Observer
	// TimelineInterval, when > 0, samples the fleet every interval into
	// Report.Timeline: per-interval deliveries (every mode, bucketed
	// from the aggregated delivery records) plus live gauges — exporter
	// queue depth, sync-plane scan and byte counters — in modes that can
	// reach them.
	TimelineInterval time.Duration
	// TraceDir, when set, makes every in-process node record
	// contact-session spans and dumps each node's flight recorder to
	// "<TraceDir>/<handle>.trace.json" (Chrome trace_event JSON) at
	// teardown. When unset, tracing still runs in-process and the rings
	// are dumped to a temporary directory only if the run ends with
	// observability violations.
	TraceDir string
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Run executes the experiment and returns its report.
func Run(spec *Spec, opts Options) (*Report, error) {
	if spec == nil {
		return nil, fmt.Errorf("lab: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch opts.Mode {
	case "", ModeInProcess, ModeProcess:
		// The live modes have no geometry: a spec carrying sim-only
		// scenario fields is almost certainly meant for ModeSim, so
		// running it live would silently drop the scenario.
		if spec.Trace != "" || spec.Mobility != nil || spec.Scenario != "" {
			return nil, fmt.Errorf("lab: spec has sim-only fields (trace/mobility/scenario); run with mode %q", ModeSim)
		}
		if opts.Mode == ModeProcess {
			return runLive(spec, opts, ModeProcess, &processFleet{})
		}
		return runLive(spec, opts, ModeInProcess, &inProcessFleet{})
	case ModeSim:
		return runSim(spec, opts)
	default:
		return nil, fmt.Errorf("lab: unknown mode %q (want %q, %q, or %q)", opts.Mode, ModeInProcess, ModeProcess, ModeSim)
	}
}

// A step is one thing the experiment does, at an offset from its start.
type step struct {
	at   time.Duration
	kind string // OpDown, OpUp, stepPost or stepSample
	node int    // index into Spec.Handles (churn and posts)
	body string // post text
}

// Step kinds besides the churn operations.
const (
	stepPost   = "post"
	stepSample = "sample"
)

// plan is a spec compiled into what happens, in time order: at one
// instant churn runs first (so a node that wakes at t can post at t),
// then posts, then the timeline sample.
type plan struct {
	steps []step
	// posts counts the posts in steps; skipped counts the scheduled
	// posts left out because their author was asleep.
	posts, skipped int
}

// compilePlan merges the post schedule, the churn schedule and, when
// sampleEvery > 0, the timeline samples at k·sampleEvery through the
// run's end into one plan. It is the lab's one definition of asleep, in
// every mode: a node sleeps from a down to its next up. A repeated down,
// or an up while awake, changes nothing and is dropped. A post whose
// author is asleep — a post at the instant of its author's down included
// — does not happen: a sleeping app has no user in front of it.
func compilePlan(spec *Spec, sampleEvery time.Duration) plan {
	index := make(map[string]int, spec.Nodes)
	for i, h := range spec.Handles {
		index[h] = i
	}
	var all []step
	for _, c := range spec.Churn {
		all = append(all, step{at: c.At.D(), kind: c.Op, node: index[c.Node]})
	}
	// Posts spread evenly over PostWindow, round-robin over authors: a
	// deterministic stand-in for the field study's user posts.
	for i := 0; i < spec.Posts; i++ {
		var at time.Duration
		if spec.Posts > 1 {
			at = time.Duration(int64(spec.PostWindow) * int64(i) / int64(spec.Posts-1))
		}
		author := i % spec.Nodes
		all = append(all, step{at: at, kind: stepPost, node: author,
			body: fmt.Sprintf("%s post %d from %s", spec.Name, i+1, spec.Handles[author])})
	}
	for at := sampleEvery; sampleEvery > 0 && at <= spec.Duration.D(); at += sampleEvery {
		all = append(all, step{at: at, kind: stepSample})
	}
	// Stable, so one instant keeps the append order above.
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })

	var p plan
	asleep := make([]bool, spec.Nodes)
	for _, s := range all {
		switch s.kind {
		case OpDown, OpUp:
			if asleep[s.node] == (s.kind == OpDown) {
				continue
			}
			asleep[s.node] = s.kind == OpDown
		case stepPost:
			if asleep[s.node] {
				p.skipped++
				continue
			}
			p.posts++
		}
		p.steps = append(p.steps, s)
	}
	return p
}

// fleet is how a live mode runs its nodes, each named by its index in
// Spec.Handles. Everything else about a live run belongs to runLive.
type fleet interface {
	// start provisions and launches every node, awake.
	start(env liveEnv) error
	post(node int, body string) error
	setAwake(node int, awake bool) error
	// gauges reads the fleet's live timeline columns.
	gauges() timelineSample
	// stop tears down whatever start launched, even after a failed
	// start, and returns one report per node plus the fleet's chaos
	// report, if it injected faults.
	stop() ([]NodeReport, *ChaosReport)
}

// liveEnv is what runLive provisions for a fleet.
type liveEnv struct {
	spec      *Spec
	opts      Options
	workDir   string
	collector string               // the telemetry server's address
	creds     []*cloud.Credentials // by handle index
}

// runLive runs the spec's plan over a live fleet on the wall clock. It
// owns the work directory, the telemetry collector, the fleet's
// credentials, the walk and the report; the fleet owns the nodes.
func runLive(spec *Spec, opts Options, mode string, f fleet) (*Report, error) {
	workDir := opts.WorkDir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "soslab-*")
		if err != nil {
			return nil, fmt.Errorf("lab: temp dir: %w", err)
		}
		defer os.RemoveAll(dir)
		workDir = dir
	}

	agg := telemetry.NewAggregator()
	agg.TracePaths()
	if opts.OnEvent != nil {
		agg.OnEvent(opts.OnEvent)
	}
	srv, err := telemetry.NewServer("127.0.0.1:0", agg, opts.Logf)
	if err != nil {
		return nil, err
	}
	defer srv.Close(5 * time.Second)
	opts.logf("lab: telemetry collector on %s", srv.Addr())

	// Provision the whole fleet ahead of deployment (the paper's
	// one-time infrastructure requirement): one CA, one cloud, and
	// credentials per handle, deterministic under the spec seed.
	master := rand.New(rand.NewSource(spec.Seed))
	ca, err := pki.NewCA(spec.Name+" Lab CA", pki.WithEntropy(rand.New(rand.NewSource(master.Int63()))))
	if err != nil {
		return nil, fmt.Errorf("lab: creating CA: %w", err)
	}
	svc := cloud.New(ca)
	env := liveEnv{spec: spec, opts: opts, workDir: workDir, collector: srv.Addr()}
	users := make(map[string]id.UserID, spec.Nodes)
	for _, handle := range spec.Handles {
		creds, err := cloud.Bootstrap(svc, handle, rand.New(rand.NewSource(master.Int63())))
		if err != nil {
			return nil, fmt.Errorf("lab: bootstrapping %q: %w", handle, err)
		}
		env.creds = append(env.creds, creds)
		users[handle] = creds.Ident.User
	}

	p := compilePlan(spec, opts.TimelineInterval)
	err = f.start(env)
	startedAt := time.Now()
	var samples []timelineSample
	if err == nil {
		samples, err = walk(spec, opts, p, f, startedAt, func() timelineSample {
			g := f.gauges()
			g.disseminations = agg.Stats().Disseminated
			return g
		})
	}
	elapsed := time.Since(startedAt)

	// Teardown in telemetry-safe order: stop the nodes (no more events,
	// every exporter flushed), then wait for the collector to finish
	// reading every stream — only then is the aggregate complete.
	nodes, chaosReport := f.stop()
	if err != nil {
		return nil, err
	}
	if err := srv.Close(10 * time.Second); err != nil {
		opts.logf("lab: closing collector: %v", err)
	}

	report := buildReport(spec, mode, startedAt, elapsed,
		agg.Collector(), agg.Stats(), spec.Subscriptions(users), nodes, p.posts, p.skipped)
	report.Chaos = chaosReport
	attachPaths(report, agg)
	attachTimeline(report, startedAt, opts.TimelineInterval, elapsed, samples)
	dumpFleetTraces(report, opts)
	return report, nil
}

// walk performs the plan on the wall clock from start and returns at
// the run's end with the timeline samples. Each step waits for its
// instant and runs to completion, so a step that blocks (a child process
// slow to quit) delays the steps behind it without reordering them; a
// sample that fell due meanwhile is read when the walk reaches it and
// keeps its planned offset.
func walk(spec *Spec, opts Options, p plan, f fleet, start time.Time, gauges func() timelineSample) ([]timelineSample, error) {
	var samples []timelineSample
	posted := 0
	for _, s := range p.steps {
		sleepUntil(start.Add(s.at))
		handle := spec.Handles[s.node]
		switch s.kind {
		case stepPost:
			if err := f.post(s.node, s.body); err != nil {
				return nil, err
			}
			posted++
			opts.logf("lab: %s posted (%d/%d)", handle, posted, spec.Posts)
		case stepSample:
			g := gauges()
			g.at = s.at
			samples = append(samples, g)
		default:
			if err := f.setAwake(s.node, s.kind == OpUp); err != nil {
				return nil, err
			}
			opts.logf("lab: churn %s %s", handle, s.kind)
		}
	}
	sleepUntil(start.Add(spec.Duration.D()))
	return samples, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// dumpFleetTraces writes each node's flight recorder as Chrome
// trace_event JSON into Options.TraceDir; with no TraceDir configured,
// the rings are dumped to a fresh temporary directory — kept, and named
// in the log — only when the run ended with observability violations,
// so a failing run always leaves its black box behind.
func dumpFleetTraces(report *Report, opts Options) {
	if len(report.Nodes) == 0 || report.Nodes[0].tracer == nil {
		return // a fleet records spans on every node or on none
	}
	dir := opts.TraceDir
	if dir == "" {
		if len(report.ObservabilityViolations()) == 0 {
			return
		}
		tmp, err := os.MkdirTemp("", "sos-traces-*")
		if err != nil {
			opts.logf("lab: trace dump dir: %v", err)
			return
		}
		dir = tmp
		opts.logf("lab: observability violations; dumping flight recorders to %s", dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		opts.logf("lab: trace dir %s: %v", dir, err)
		return
	}
	for _, n := range report.Nodes {
		path := filepath.Join(dir, n.Handle+".trace.json")
		f, err := os.Create(path)
		if err != nil {
			opts.logf("lab: creating %s: %v", path, err)
			continue
		}
		err = n.tracer.WriteTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			opts.logf("lab: writing %s: %v", path, err)
			continue
		}
		report.TraceFiles = append(report.TraceFiles, path)
	}
}
