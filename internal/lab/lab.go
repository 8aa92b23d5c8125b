package lab

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sos/internal/chaos"
	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/netmedium"
	"sos/internal/obs"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
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
	// synthetic mobility (spec.Mobility) or a recorded contact trace
	// (spec.Trace), and a thousand-node day finishes in CI minutes.
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
		if spec.Trace != "" || spec.Mobility != nil {
			return nil, fmt.Errorf("lab: spec has sim-only fields (trace/mobility); run with mode %q", ModeSim)
		}
		if opts.Mode == ModeProcess {
			// Child processes own their sockets, so the in-process chaos
			// wrapper cannot reach their frames.
			if spec.Chaos != nil {
				return nil, fmt.Errorf("lab: chaos profiles run in mode %q only", ModeInProcess)
			}
			return runProcess(spec, opts)
		}
		return runInProcess(spec, opts)
	case ModeSim:
		// The simulator moves messages at virtual time with no frame
		// medium, so there is nothing for a chaos profile to disturb.
		if spec.Chaos != nil {
			return nil, fmt.Errorf("lab: chaos profiles run in mode %q only", ModeInProcess)
		}
		return runSim(spec, opts)
	default:
		return nil, fmt.Errorf("lab: unknown mode %q (want %q, %q, or %q)", opts.Mode, ModeInProcess, ModeProcess, ModeSim)
	}
}

// timelineEvent is one scheduled action: a workload post or a churn op.
type timelineEvent struct {
	at    time.Duration
	post  *postEvent
	churn *ChurnEvent
}

// timeline merges the post schedule and churn schedule in time order
// (churn before posts at the same instant, so a node that wakes at t can
// post at t).
func timeline(spec *Spec) []timelineEvent {
	var out []timelineEvent
	posts := spec.postSchedule()
	for i := range posts {
		out = append(out, timelineEvent{at: posts[i].at, post: &posts[i]})
	}
	for i := range spec.Churn {
		out = append(out, timelineEvent{at: spec.Churn[i].At.D(), churn: &spec.Churn[i]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].churn != nil && out[j].churn == nil
	})
	return out
}

// inNode is one in-process fleet member.
type inNode struct {
	handle   string
	user     id.UserID
	peer     mpc.PeerID
	mw       *core.Middleware
	exporter *telemetry.Exporter
	registry *obs.Registry
	tracer   *obs.Tracer
	down     bool
}

// runInProcess executes the whole fleet inside this process over a
// shared loopback NetMedium instance: every endpoint binds its own real
// sockets, and churn toggles radios with Medium.SetReachable — the same
// severing a device sleeping mid-gathering causes in the field.
func runInProcess(spec *Spec, opts Options) (*Report, error) {
	workDir := opts.WorkDir
	if spec.storeEngine(ModeInProcess) == "disk" && workDir == "" {
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

	// One-time infrastructure: CA, cloud, and per-node credentials,
	// deterministic under the spec seed.
	master := rand.New(rand.NewSource(spec.Seed))
	ca, err := pki.NewCA(spec.Name+" Lab CA", pki.WithEntropy(rand.New(rand.NewSource(master.Int63()))))
	if err != nil {
		return nil, fmt.Errorf("lab: creating CA: %w", err)
	}
	svc := cloud.New(ca)

	medium, err := netmedium.New(netmedium.Config{
		BeaconListen:   "127.0.0.1:0",
		ListenIP:       "127.0.0.1",
		BeaconInterval: spec.BeaconInterval.D(),
		LossTimeout:    spec.LossTimeout.D(),
	})
	if err != nil {
		return nil, fmt.Errorf("lab: creating medium: %w", err)
	}

	// With a chaos block, every node sees the medium through the fault
	// injector; churn severs through the same wrapper so scheduled
	// partitions and spec churn compose instead of fighting.
	var nodeMedium mpc.Medium = medium
	var radio chaos.Reachability = medium
	var chaosMedium *chaos.Medium
	if prof, perr := spec.chaosProfile(); perr != nil {
		return nil, perr
	} else if spec.Chaos != nil {
		chaosMedium, err = chaos.Wrap(medium, prof)
		if err != nil {
			return nil, fmt.Errorf("lab: wrapping medium: %w", err)
		}
		defer chaosMedium.Close()
		nodeMedium = chaosMedium
		radio = chaosMedium
		opts.logf("lab: chaos profile %s armed (seed %d)", spec.Chaos.Label(), prof.Seed)
	}

	policy, err := store.PolicyByName(spec.Store.Policy, spec.Store.RelayTTL.D())
	if err != nil {
		return nil, fmt.Errorf("lab: store policy: %w", err)
	}

	nodes := make([]*inNode, 0, spec.Nodes)
	byHandle := make(map[string]*inNode, spec.Nodes)
	users := make(map[string]id.UserID, spec.Nodes)
	defer func() {
		for _, n := range nodes {
			if n.mw != nil {
				n.mw.Close()
			}
			n.exporter.Close()
		}
	}()
	for _, handle := range spec.Handles {
		creds, err := cloud.Bootstrap(svc, handle, rand.New(rand.NewSource(master.Int63())))
		if err != nil {
			return nil, fmt.Errorf("lab: bootstrapping %q: %w", handle, err)
		}
		// Every in-process node records contact-session spans: the ring
		// is bounded and allocation-free, so the flight recorder is
		// always on and readable after any run.
		tracer := obs.NewTracer(0)
		n := &inNode{
			handle: handle,
			user:   creds.Ident.User,
			peer:   mpc.PeerID(handle),
			tracer: tracer,
			exporter: telemetry.NewExporter(srv.Addr(), telemetry.ExporterOptions{
				Logf:   opts.Logf,
				Tracer: tracer,
			}),
		}
		// Registered before the fallible steps below, so the deferred
		// cleanup stops this exporter even when construction fails.
		nodes = append(nodes, n)
		observer := core.Observer(telemetry.NewObserver(n.user, clock.System(), n.exporter))
		if opts.ExtraObserver != nil {
			observer = core.CombineObservers(observer, opts.ExtraObserver(handle, n.user))
		}
		engine, err := buildEngine(spec, ModeInProcess, workDir, handle, creds.Ident.User, policy, tracer)
		if err != nil {
			return nil, err
		}
		mw, err := core.New(core.Config{
			Creds:    creds,
			Medium:   nodeMedium,
			PeerName: n.peer,
			Scheme:   spec.Scheme,
			Routing:  routing.Options{RelayTTL: spec.Store.RelayTTL.D()},
			Store:    engine,
			Observer: observer,
			Tracer:   tracer,
			// The lab radio answers in milliseconds, so a wedged
			// handshake or a lost frame is knowable — and retryable — at
			// the discovery timescale instead of the field default.
			ResyncInterval: spec.LossTimeout.D(),
		})
		if err != nil {
			engine.Close() // core.New takes ownership only on success
			return nil, fmt.Errorf("lab: starting %q: %w", handle, err)
		}
		n.mw = mw
		// The same metric bridge a sosd daemon serves over HTTP, here
		// snapshotted directly into the node's report slice at teardown.
		n.registry = obs.NewRegistry()
		obs.RegisterNodeMetrics(n.registry, obs.NodeMetrics{
			Middleware: mw,
			Medium:     medium,
			Exporter:   n.exporter,
			Chaos:      chaosMedium,
		})
		byHandle[handle] = n
		users[handle] = n.user
	}

	// Pre-seeded social graph (quiet subscriptions, as in the field
	// study where relationships predate the experiment).
	for _, e := range spec.FollowEdges() {
		follower := nodes[e[0]]
		followee := nodes[e[1]]
		follower.mw.Subscribe(followee.user)
	}
	for _, n := range nodes {
		if err := n.mw.Advertise(); err != nil {
			return nil, fmt.Errorf("lab: advertising %q: %w", n.handle, err)
		}
	}

	setRadio := func(n *inNode, up bool) {
		for _, other := range nodes {
			if other == n {
				continue
			}
			// Waking restores only links to awake peers; sleeping
			// severs everything.
			if up && other.down {
				continue
			}
			radio.SetReachable(n.peer, other.peer, up)
		}
		n.down = !up
	}

	// The experiment clock: wall time, real sockets.
	startedAt := time.Now()
	var sampler *timelineSampler
	if opts.TimelineInterval > 0 {
		sampler = startTimelineSampler(startedAt, opts.TimelineInterval, func() timelineSample {
			s := timelineSample{disseminations: agg.Stats().Disseminated}
			for _, n := range nodes {
				s.exporterQueue += n.exporter.QueueDepth()
				ms := n.mw.Stats().Message
				s.syncEntries += ms.PlanEntriesScanned
				s.summaryBytes += ms.SummaryBytesSent
				s.payloadBytes += ms.PayloadBytesSent
			}
			return s
		})
	}
	executed, skipped := 0, 0
	for _, ev := range timeline(spec) {
		if d := time.Until(startedAt.Add(ev.at)); d > 0 {
			time.Sleep(d)
		}
		switch {
		case ev.post != nil:
			n := nodes[ev.post.author]
			if n.down {
				// Same rule as process mode: a sleeping app has no user
				// in front of it, so the post does not happen.
				skipped++
				opts.logf("lab: skipping post by sleeping node %s", n.handle)
				continue
			}
			if _, err := n.mw.Post([]byte(ev.post.body)); err != nil {
				return nil, fmt.Errorf("lab: %s posting: %w", n.handle, err)
			}
			executed++
			opts.logf("lab: %s posted (%d/%d)", n.handle, executed, spec.Posts)
		case ev.churn != nil:
			n := byHandle[ev.churn.Node]
			up := ev.churn.Op == OpUp
			if n.down != up {
				opts.logf("lab: churn %s %s (no-op)", ev.churn.Node, ev.churn.Op)
				continue
			}
			setRadio(n, up)
			opts.logf("lab: churn %s %s", ev.churn.Node, ev.churn.Op)
		}
	}
	if d := time.Until(startedAt.Add(spec.Duration.D())); d > 0 {
		time.Sleep(d)
	}
	elapsed := time.Since(startedAt)
	var samples []timelineSample
	if sampler != nil {
		// Stopped before teardown: the gauge closure walks live nodes.
		samples = sampler.Stop()
	}

	// Teardown in telemetry-safe order: stop the middlewares (no more
	// events), flush and close the exporters, then wait for the server
	// to finish reading every stream — only then is the aggregate
	// complete.
	reports := make([]NodeReport, 0, len(nodes))
	for _, n := range nodes {
		stats := n.mw.Stats()
		if err := n.mw.Close(); err != nil {
			opts.logf("lab: closing %s: %v", n.handle, err)
		}
		n.mw = nil
		n.exporter.Close()
		es := n.exporter.Stats()
		reports = append(reports, NodeReport{
			Handle:              n.handle,
			User:                n.user.String(),
			Stats:               &stats,
			TelemetrySent:       es.Sent,
			TelemetryDropped:    es.Dropped,
			TelemetryReconnects: es.Reconnects,
			// Snapshot after exporter.Close so the export counters are
			// final; the bridges read mutex-guarded stats, safe after
			// middleware shutdown.
			Metrics: n.registry.Snapshot(),
		})
	}
	if err := srv.Close(10 * time.Second); err != nil {
		opts.logf("lab: closing collector: %v", err)
	}

	report := buildReport(spec, ModeInProcess, startedAt, elapsed,
		agg.Collector(), agg.Stats(), spec.Subscriptions(users), reports, executed, skipped)
	if chaosMedium != nil {
		cs := chaosMedium.Stats()
		report.Chaos = &ChaosReport{
			Profile:           spec.Chaos.Label(),
			FramesPassed:      cs.FramesPassed,
			FramesDropped:     cs.FramesDropped,
			FramesDuplicated:  cs.FramesDuplicated,
			FramesReordered:   cs.FramesReordered,
			FramesDelayed:     cs.FramesDelayed,
			OneWayDrops:       cs.OneWayDrops,
			PartitionsStarted: cs.PartitionsStarted,
			PartitionsHealed:  cs.PartitionsHealed,
		}
	}
	attachPaths(report, agg)
	attachTimeline(report, startedAt, opts.TimelineInterval, elapsed, samples)
	dumpFleetTraces(report, opts, nodes)
	return report, nil
}

// dumpFleetTraces writes each node's flight recorder as Chrome
// trace_event JSON into Options.TraceDir; with no TraceDir configured,
// the rings are dumped to a fresh temporary directory — kept, and named
// in the log — only when the run ended with observability violations,
// so a failing run always leaves its black box behind.
func dumpFleetTraces(report *Report, opts Options, nodes []*inNode) {
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
	for _, n := range nodes {
		if n.tracer == nil {
			continue
		}
		path := filepath.Join(dir, n.handle+".trace.json")
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

// buildEngine constructs one node's storage engine per the spec.
func buildEngine(spec *Spec, mode, workDir, handle string, owner id.UserID, policy store.Policy, tracer *obs.Tracer) (store.Engine, error) {
	sOpts := store.Options{
		MaxMessages: spec.Store.Quota,
		MaxBytes:    spec.Store.QuotaBytes,
		Policy:      policy,
		Tracer:      tracer,
	}
	switch spec.storeEngine(mode) {
	case "disk":
		dir := filepath.Join(workDir, handle+".store")
		engine, err := store.OpenDisk(dir, owner, sOpts)
		if err != nil {
			return nil, fmt.Errorf("lab: opening disk store for %q: %w", handle, err)
		}
		return engine, nil
	default:
		return store.NewMemory(owner, sOpts), nil
	}
}
