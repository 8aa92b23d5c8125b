package lab

import (
	"fmt"

	"sos/internal/chaos"
	"sos/internal/clock"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/netmedium"
	"sos/internal/obs"
	"sos/internal/store"
	"sos/internal/telemetry"
)

// inProcessFleet runs every node as a middleware inside this process
// over one shared loopback NetMedium instance: every endpoint binds its
// own real sockets, and churn toggles radios with Medium.SetReachable —
// the same severing a device sleeping mid-gathering causes in the field.
type inProcessFleet struct {
	opts  Options
	radio chaos.Reachability
	// chaos, when the spec names a chaos preset, is the fault injector
	// every node sees the medium through.
	chaos *chaos.Medium
	label string
	nodes []*inNode
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
	asleep   bool
}

func (f *inProcessFleet) start(env liveEnv) error {
	spec := env.spec
	f.opts = env.opts
	medium, err := netmedium.New(netmedium.Config{
		BeaconListen:   "127.0.0.1:0",
		ListenIP:       "127.0.0.1",
		BeaconInterval: spec.BeaconInterval.D(),
		LossTimeout:    spec.lossTimeout(),
	})
	if err != nil {
		return fmt.Errorf("lab: creating medium: %w", err)
	}

	// Under a chaos preset, every node sees the medium through the fault
	// injector; churn severs through the same wrapper so scheduled
	// partitions and spec churn compose instead of fighting.
	var nodeMedium mpc.Medium = medium
	f.radio = medium
	prof, err := spec.chaosProfile()
	if err != nil {
		return err
	}
	if !prof.IsZero() {
		if f.chaos, err = chaos.Wrap(medium, prof); err != nil {
			return fmt.Errorf("lab: wrapping medium: %w", err)
		}
		nodeMedium, f.radio, f.label = f.chaos, f.chaos, spec.chaos
		f.opts.logf("lab: chaos profile %s armed (seed %d)", f.label, prof.Seed)
	}

	policy, err := store.PolicyByName(spec.Store.Policy, spec.Store.RelayTTL.D())
	if err != nil {
		return fmt.Errorf("lab: store policy: %w", err)
	}
	for i, handle := range spec.Handles {
		creds := env.creds[i]
		// Every in-process node records contact-session spans: the ring
		// is bounded and allocation-free, so the flight recorder is
		// always on and readable after any run.
		tracer := obs.NewTracer(0)
		n := &inNode{
			handle: handle,
			user:   creds.Ident.User,
			peer:   mpc.PeerID(handle),
			tracer: tracer,
			exporter: telemetry.NewExporter(env.collector, telemetry.ExporterOptions{
				Logf:   f.opts.Logf,
				Tracer: tracer,
			}),
		}
		// Registered before the fallible steps below, so stop closes
		// this exporter even when construction fails.
		f.nodes = append(f.nodes, n)
		observer := core.Observer(telemetry.NewObserver(n.user, clock.System(), n.exporter))
		if f.opts.ExtraObserver != nil {
			observer = core.CombineObservers(observer, f.opts.ExtraObserver(handle, n.user))
		}
		engine := store.NewMemory(n.user, store.Options{
			MaxMessages: spec.Store.Quota,
			Policy:      policy,
			Tracer:      tracer,
		})
		mw, err := core.New(core.Config{
			Creds:    creds,
			Medium:   nodeMedium,
			PeerName: n.peer,
			Scheme:   spec.Scheme,
			Store:    engine,
			Observer: observer,
			Tracer:   tracer,
			// The lab radio answers in milliseconds, so a wedged
			// handshake or a lost frame is knowable — and retryable — at
			// the discovery timescale instead of the field default.
			ResyncInterval: spec.lossTimeout(),
		})
		if err != nil {
			engine.Close() // core.New takes ownership only on success
			return fmt.Errorf("lab: starting %q: %w", handle, err)
		}
		n.mw = mw
		// The same metric bridge a sosd daemon serves over HTTP, here
		// snapshotted directly into the node's report slice at teardown.
		n.registry = obs.NewRegistry()
		obs.RegisterNodeMetrics(n.registry, obs.NodeMetrics{
			Middleware: mw,
			Medium:     medium,
			Exporter:   n.exporter,
			Chaos:      f.chaos,
		})
	}

	// Pre-seeded social graph (quiet subscriptions, as in the field
	// study where relationships predate the experiment).
	for _, e := range spec.FollowEdges() {
		f.nodes[e[0]].mw.Subscribe(f.nodes[e[1]].user)
	}
	for _, n := range f.nodes {
		if err := n.mw.Advertise(); err != nil {
			return fmt.Errorf("lab: advertising %q: %w", n.handle, err)
		}
	}
	return nil
}

func (f *inProcessFleet) post(node int, body string) error {
	n := f.nodes[node]
	if _, err := n.mw.Post([]byte(body)); err != nil {
		return fmt.Errorf("lab: %s posting: %w", n.handle, err)
	}
	return nil
}

func (f *inProcessFleet) setAwake(node int, awake bool) error {
	n := f.nodes[node]
	for _, other := range f.nodes {
		// Waking restores only links to awake peers; sleeping severs
		// everything.
		if other != n && !(awake && other.asleep) {
			f.radio.SetReachable(n.peer, other.peer, awake)
		}
	}
	n.asleep = !awake
	return nil
}

func (f *inProcessFleet) gauges() timelineSample {
	var s timelineSample
	for _, n := range f.nodes {
		s.exporterQueue += n.exporter.QueueDepth()
		ms := n.mw.Stats().Message
		s.syncEntries += ms.PlanEntriesScanned
		s.summaryBytes += ms.SummaryBytesSent
		s.payloadBytes += ms.PayloadBytesSent
	}
	return s
}

func (f *inProcessFleet) stop() ([]NodeReport, *ChaosReport) {
	reports := make([]NodeReport, 0, len(f.nodes))
	for _, n := range f.nodes {
		r := NodeReport{Handle: n.handle, User: n.user.String(), tracer: n.tracer}
		if n.mw != nil {
			if err := n.mw.Close(); err != nil {
				f.opts.logf("lab: closing %s: %v", n.handle, err)
			}
		}
		n.exporter.Close()
		if n.registry != nil {
			// Snapshot after exporter.Close so the export counters are
			// final; the bridges read mutex-guarded stats, safe after
			// middleware shutdown.
			r.Metrics = n.registry.Snapshot()
		}
		reports = append(reports, r)
	}
	if f.chaos == nil {
		return reports, nil
	}
	cs := f.chaos.Stats()
	f.chaos.Close()
	return reports, &ChaosReport{
		Profile:           f.label,
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
