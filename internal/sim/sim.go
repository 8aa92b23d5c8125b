// Package sim is the discrete-event simulator that replays the paper's
// in vivo evaluation in silico. It binds node mobility models to the
// simulated Multipeer-Connectivity medium, runs the complete, unmodified
// SOS stack (PKI bootstrap, certificate handshakes, encrypted sessions,
// routing schemes, message manager) on every simulated device, detects
// radio contacts from node positions, and executes a scheduled workload
// of user actions. Every node reports through core.Observer, the one
// observation path the live modes use too: a telemetry.Observer folds
// into one telemetry.Aggregator per run (the collector behind every
// Figure-4 series, with core deciding delivery), and a geo observer feeds
// the geo recorder.
//
// One seed is one run. It fixes the mobility itineraries, the workload
// and every node's reader; keys come from that reader's bytes alone
// (id.GenerateKey) and signatures under it are RFC 6979, so two runs of
// one seed deliver the same messages in the same frames, byte for byte
// (TestDeterminism).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/geo"
	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/mobility"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/store"
	"sos/internal/telemetry"
)

// Action enumerates workload user actions.
type Action int

// Workload actions.
const (
	ActionPost Action = iota + 1
	ActionFollow
	ActionUnfollow
)

// Event is one scheduled user action.
type Event struct {
	At      time.Time
	Handle  string
	Action  Action
	Target  string // follow/unfollow target handle
	Payload []byte // post body
}

// NodeSpec describes one simulated device/user.
type NodeSpec struct {
	Handle string
	// Scheme selects the node's routing protocol; empty uses Config.Scheme.
	Scheme string
	// Mobility drives the node's position; required.
	Mobility mobility.Model
	// Follows pre-seeds quiet subscriptions (relationships that existed
	// before the study, not counted as in-app actions).
	Follows []string
	// Activity, when non-nil, reports whether the app is in the
	// foreground at a given instant. Apple's Multipeer Connectivity only
	// browses, advertises, and transfers while the app is active, so two
	// devices form a contact only when in range AND both active. Nil
	// means always active.
	Activity func(at time.Time) bool
}

// Config assembles a simulation.
type Config struct {
	Start    time.Time
	Duration time.Duration
	// Tick is the contact-detection sampling period (default 30 s).
	Tick time.Duration
	// Range is the radio contact radius in meters (default 35).
	Range float64
	// Tech is the link technology for detected contacts (default p2p WiFi).
	Tech mpc.Technology
	// Scheme is the default routing protocol (default interest-based).
	Scheme string
	// RelayTTL bounds how long nodes forward other users' messages; it
	// becomes each node's TTL eviction policy. Zero disables expiry.
	RelayTTL time.Duration
	// StoreQuota bounds each node's message buffer (messages); 0 =
	// unbounded. A finite quota opens the constrained-device workload:
	// the storage engines evict under pressure and the collector counts
	// every drop.
	StoreQuota int
	// StoreQuotaBytes bounds each node's buffer in bytes; 0 = unbounded.
	StoreQuotaBytes int
	// StorePolicy names the eviction policy (store.PolicyByName);
	// empty selects TTL when RelayTTL is set and drop-oldest otherwise.
	StorePolicy string
	// Seed fixes all randomness.
	Seed int64
	// Nodes are the simulated users.
	Nodes []NodeSpec
	// Workload is the scheduled action list (sorted internally).
	Workload []Event
	// Contacts, when non-empty, switches the run to trace-driven
	// contacts: the listed link up/down events are replayed verbatim
	// (Haggle/CRAWDAD-style encounter dumps parsed by parseContactTrace)
	// and position-based contact detection is bypassed entirely. Nodes
	// may then omit their mobility model.
	Contacts []ContactEvent
}

// Node is one running simulated device.
type Node struct {
	Handle   string
	User     id.UserID
	MW       *core.Middleware
	Model    mobility.Model
	activity func(at time.Time) bool
	peer     mpc.PeerID
	idx      int
}

// Active reports whether the node's app is foregrounded at the instant.
func (n *Node) Active(at time.Time) bool {
	return n.activity == nil || n.activity(at)
}

// Position returns the node's current position. Trace-driven nodes
// without a mobility model sit at the origin.
func (n *Node) Position(at time.Time) mobility.Point {
	if n.Model == nil {
		return mobility.Point{}
	}
	return n.Model.Position(at)
}

// Result bundles a finished run's outputs.
type Result struct {
	Collector   *metrics.Collector
	Recorder    *geo.Recorder
	MediumStats mpc.SimStats
	NodeStats   map[string]core.Stats
	Posts       int
	Follows     int
	Elapsed     time.Duration
}

// Sim is a configured simulation.
type Sim struct {
	cfg      Config
	clk      *clock.Virtual
	medium   *mpc.SimMedium
	svc      *cloud.Service
	nodes    []*Node
	byHandle map[string]*Node

	agg      *telemetry.Aggregator
	recorder *geo.Recorder
	linked   map[[2]int32]bool
	workload []Event
	contacts []ContactEvent
	// desired is the trace's current wish per pair: scripted up, not yet
	// scripted down. The effective link additionally requires both apps
	// active, so linked ⊆ desired at all times in trace mode.
	desired map[[2]int32]bool

	// Contact-detection state, reused across ticks so the hot loop does
	// not allocate.
	index     *ContactIndex
	positions []mobility.Point
	active    []bool
	curr      [][2]int32
	currSet   map[[2]int32]bool
	cuts      [][2]int32
}

// New builds a simulation: CA, cloud, bootstrap of every node, and the
// full middleware stack per node.
func New(cfg Config) (*Sim, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("sim: no nodes")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("sim: non-positive duration")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 30 * time.Second
	}
	if cfg.Range <= 0 {
		cfg.Range = 35
	}
	if cfg.Tech == 0 {
		cfg.Tech = mpc.PeerToPeerWiFi
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "interest"
	}

	master := rand.New(rand.NewSource(cfg.Seed))
	clk := clock.NewVirtual(cfg.Start)
	medium := mpc.NewSimMedium(clk)
	recorder := geo.NewRecorder()
	agg := telemetry.NewAggregator()
	medium.OnContact = recorder.RecordContact

	ca, err := pki.NewCA("AlleyOop Root CA",
		pki.WithClock(clk.Now),
		pki.WithEntropy(rand.New(rand.NewSource(master.Int63()))),
	)
	if err != nil {
		return nil, fmt.Errorf("sim: creating CA: %w", err)
	}
	svc := cloud.New(ca, cloud.WithClock(clk.Now))

	s := &Sim{
		cfg:      cfg,
		clk:      clk,
		medium:   medium,
		svc:      svc,
		byHandle: make(map[string]*Node, len(cfg.Nodes)),
		agg:      agg,
		recorder: recorder,
		linked:   make(map[[2]int32]bool),
	}

	for _, spec := range cfg.Nodes {
		if spec.Mobility == nil && len(cfg.Contacts) == 0 {
			return nil, fmt.Errorf("sim: node %q has no mobility model", spec.Handle)
		}
		if _, dup := s.byHandle[spec.Handle]; dup {
			return nil, fmt.Errorf("sim: duplicate handle %q", spec.Handle)
		}
		nodeRng := rand.New(rand.NewSource(master.Int63()))
		creds, err := cloud.Bootstrap(svc, spec.Handle, nodeRng)
		if err != nil {
			return nil, fmt.Errorf("sim: bootstrapping %q: %w", spec.Handle, err)
		}
		scheme := spec.Scheme
		if scheme == "" {
			scheme = cfg.Scheme
		}
		n := &Node{
			Handle:   spec.Handle,
			User:     creds.Ident.User,
			Model:    spec.Mobility,
			activity: spec.Activity,
			peer:     mpc.PeerID(spec.Handle),
		}
		// Every node runs a bounded storage engine; its drops reach the
		// collector through the observer, so buffer pressure is a
		// first-class metric.
		policy, err := store.PolicyByName(cfg.StorePolicy, cfg.RelayTTL)
		if err != nil {
			return nil, fmt.Errorf("sim: store policy: %w", err)
		}
		st := store.NewMemory(creds.Ident.User, store.Options{
			MaxMessages: cfg.StoreQuota,
			MaxBytes:    cfg.StoreQuotaBytes,
			Policy:      policy,
			Clock:       clk,
		})
		mw, err := core.New(core.Config{
			Creds:    creds,
			Medium:   medium,
			PeerName: n.peer,
			Scheme:   scheme,
			Clock:    clk,
			Rand:     nodeRng,
			Store:    st,
			// No heartbeat driver: its wall-clock ticks would call into this
			// single-threaded simulator from their own goroutine, and the
			// lossless SimMedium leaves them nothing to recover.
			ResyncInterval: -1,
			Observer: core.CombineObservers(
				telemetry.NewObserver(n.User, clk, agg),
				geoObserver{node: n, clk: clk, rec: recorder}),
		})
		if err != nil {
			return nil, fmt.Errorf("sim: starting middleware for %q: %w", spec.Handle, err)
		}
		n.MW = mw
		n.idx = len(s.nodes)
		s.nodes = append(s.nodes, n)
		s.byHandle[spec.Handle] = n
	}

	// Pre-seeded relationships (quiet: no action message).
	for _, spec := range cfg.Nodes {
		n := s.byHandle[spec.Handle]
		for _, target := range spec.Follows {
			followee, ok := s.byHandle[target]
			if !ok {
				return nil, fmt.Errorf("sim: %q follows unknown handle %q", spec.Handle, target)
			}
			n.MW.Subscribe(followee.User)
		}
	}

	s.workload = make([]Event, len(cfg.Workload))
	copy(s.workload, cfg.Workload)
	sort.SliceStable(s.workload, func(i, j int) bool { return s.workload[i].At.Before(s.workload[j].At) })

	// Trace-driven contacts: validate the handles once, then replay in
	// chronological order.
	s.contacts = make([]ContactEvent, len(cfg.Contacts))
	copy(s.contacts, cfg.Contacts)
	sort.SliceStable(s.contacts, func(i, j int) bool { return s.contacts[i].At.Before(s.contacts[j].At) })
	for _, ev := range s.contacts {
		if _, ok := s.byHandle[ev.A]; !ok {
			return nil, fmt.Errorf("sim: contact trace names unknown handle %q", ev.A)
		}
		if _, ok := s.byHandle[ev.B]; !ok {
			return nil, fmt.Errorf("sim: contact trace names unknown handle %q", ev.B)
		}
		if ev.A == ev.B {
			return nil, fmt.Errorf("sim: contact trace links %q to itself", ev.A)
		}
	}

	// Contact-detection scratch, sized once for the fleet.
	s.index = NewContactIndex(cfg.Range)
	s.positions = make([]mobility.Point, len(s.nodes))
	s.active = make([]bool, len(s.nodes))
	s.currSet = make(map[[2]int32]bool)
	s.desired = make(map[[2]int32]bool)
	return s, nil
}

// Nodes returns the running nodes.
func (s *Sim) Nodes() []*Node { return s.nodes }

// geoObserver geo-tags one node's messages for the geo recorder: each
// post it authors (the workload, as the collector tracks it) and each
// message it receives, at the node's position.
type geoObserver struct {
	node *Node
	clk  clock.Clock
	rec  *geo.Recorder
}

func (g geoObserver) MessageCreated(m *msg.Message) {
	if m.Kind == msg.KindPost {
		g.rec.RecordCreated(m.Ref(), g.node.User, m.Created, g.node.Position(m.Created))
	}
}

func (g geoObserver) MessageReceived(m *msg.Message, _ id.UserID, _ bool) {
	now := g.clk.Now()
	g.rec.RecordPassed(m.Ref(), g.node.User, now, g.node.Position(now))
}

func (geoObserver) MessageEvicted(store.Eviction) {}
func (geoObserver) ContactUp(id.UserID)           {}
func (geoObserver) ContactDown(id.UserID)         {}

// Run executes the simulation to completion.
func (s *Sim) Run() (*Result, error) {
	end := s.cfg.Start.Add(s.cfg.Duration)
	posts, follows := 0, 0
	wi := 0

	ci := 0
	// drain executes workload actions and trace contact events due at or
	// before `upto`, merged in time order (contacts first on ties, so a
	// link that comes up at t carries a post made at t), with the medium
	// run up to each event's instant.
	drain := func(upto time.Time) error {
		for {
			wDue := wi < len(s.workload) && !s.workload[wi].At.After(upto)
			cDue := ci < len(s.contacts) && !s.contacts[ci].At.After(upto)
			if !wDue && !cDue {
				return nil
			}
			if cDue && (!wDue || !s.workload[wi].At.Before(s.contacts[ci].At)) {
				ev := s.contacts[ci]
				ci++
				s.medium.RunUntil(ev.At)
				s.clk.Set(ev.At)
				s.applyContact(ev)
				continue
			}
			ev := s.workload[wi]
			wi++
			s.medium.RunUntil(ev.At)
			s.clk.Set(ev.At)
			if err := s.execute(ev); err != nil {
				return err
			}
			switch ev.Action {
			case ActionPost:
				posts++
			case ActionFollow:
				follows++
			}
		}
	}
	for tick := s.cfg.Start; !tick.After(end); tick = tick.Add(s.cfg.Tick) {
		if err := drain(tick); err != nil {
			return nil, err
		}
		s.medium.RunUntil(tick)
		s.clk.Set(tick)
		if len(s.contacts) == 0 {
			// Position-driven detection; a contact trace replaces it.
			s.updateContacts(tick)
		} else {
			// Activity (churn) is resampled each tick in trace mode too:
			// a scripted contact only holds while both apps are up.
			s.reconcileTraceLinks(tick)
		}
	}
	// The duration need not be a multiple of the tick: events scheduled
	// in the partial tail still happen.
	if err := drain(end); err != nil {
		return nil, err
	}
	s.medium.RunUntil(end)
	s.clk.Set(end)

	nodeStats := make(map[string]core.Stats, len(s.nodes))
	for _, n := range s.nodes {
		nodeStats[n.Handle] = n.MW.Stats()
	}
	return &Result{
		Collector:   s.agg.Collector(),
		Recorder:    s.recorder,
		MediumStats: s.medium.Stats(),
		NodeStats:   nodeStats,
		Posts:       posts,
		Follows:     follows,
		Elapsed:     s.cfg.Duration,
	}, nil
}

// execute performs one workload action.
func (s *Sim) execute(ev Event) error {
	n, ok := s.byHandle[ev.Handle]
	if !ok {
		return fmt.Errorf("sim: workload names unknown handle %q", ev.Handle)
	}
	switch ev.Action {
	case ActionPost:
		if _, err := n.MW.Post(ev.Payload); err != nil {
			return fmt.Errorf("sim: %s posting: %w", ev.Handle, err)
		}
	case ActionFollow:
		target, ok := s.byHandle[ev.Target]
		if !ok {
			return fmt.Errorf("sim: follow target %q unknown", ev.Target)
		}
		if _, err := n.MW.Follow(target.User); err != nil {
			return fmt.Errorf("sim: %s following %s: %w", ev.Handle, ev.Target, err)
		}
	case ActionUnfollow:
		target, ok := s.byHandle[ev.Target]
		if !ok {
			return fmt.Errorf("sim: unfollow target %q unknown", ev.Target)
		}
		if _, err := n.MW.Unfollow(target.User); err != nil {
			return fmt.Errorf("sim: %s unfollowing %s: %w", ev.Handle, ev.Target, err)
		}
	default:
		return fmt.Errorf("sim: unknown action %d", ev.Action)
	}
	return nil
}

// applyContact records one trace-driven link transition and applies its
// effective state. The trace says what the radios scripted; activity
// (churn, app foregrounding) still gates the actual link, matching the
// live modes where a sleeping device drops out of every contact.
func (s *Sim) applyContact(ev ContactEvent) {
	a, b := s.byHandle[ev.A], s.byHandle[ev.B]
	key := pairKeyOf(a.idx, b.idx)
	if ev.Up {
		s.desired[key] = true
	} else {
		delete(s.desired, key)
	}
	s.reconcilePair(key, s.clk.Now())
}

// pairKeyOf orders two node indices into a link key.
func pairKeyOf(i, j int) [2]int32 {
	if i > j {
		i, j = j, i
	}
	return [2]int32{int32(i), int32(j)}
}

// reconcilePair applies the effective state of one scripted pair: linked
// iff the trace wants it up and both apps are in the foreground.
func (s *Sim) reconcilePair(key [2]int32, at time.Time) {
	a, b := s.nodes[key[0]], s.nodes[key[1]]
	up := s.desired[key] && a.Active(at) && b.Active(at)
	switch {
	case up && !s.linked[key]:
		s.medium.SetLink(a.peer, b.peer, s.cfg.Tech)
		s.linked[key] = true
	case !up && s.linked[key]:
		s.medium.CutLink(a.peer, b.peer)
		delete(s.linked, key)
	}
}

// reconcileTraceLinks resamples activity for every scripted-up pair each
// tick — cutting links whose endpoint slept, restoring links whose
// endpoints woke while still scripted together — in sorted order for
// deterministic replay. linked ⊆ desired, so iterating desired covers
// every link that could need cutting.
func (s *Sim) reconcileTraceLinks(at time.Time) {
	if len(s.desired) == 0 {
		return
	}
	s.cuts = s.cuts[:0] // scratch: unused by the grid path in trace mode
	for key := range s.desired {
		s.cuts = append(s.cuts, key)
	}
	sort.Slice(s.cuts, func(i, j int) bool {
		if s.cuts[i][0] != s.cuts[j][0] {
			return s.cuts[i][0] < s.cuts[j][0]
		}
		return s.cuts[i][1] < s.cuts[j][1]
	})
	for _, key := range s.cuts {
		s.reconcilePair(key, at)
	}
}

// updateContacts samples all node positions and app activity (sharded
// across CPUs), finds the in-range pairs through the spatial grid index,
// and reconciles radio links against the previous tick: a contact
// requires proximity and both apps in the foreground (the MPC
// constraint). Sleeping nodes are skipped entirely — they are never
// inserted into the grid, and any link they held is cut by the diff.
// Every per-tick structure is reused, so the pass allocates nothing in
// steady state, and both the sweep order and the sorted cut order are
// deterministic for bit-identical replays.
func (s *Sim) updateContacts(at time.Time) {
	s.samplePositions(at)

	s.curr = s.curr[:0]
	s.index.Sweep(s.positions, s.active, func(i, j int32) {
		s.curr = append(s.curr, [2]int32{i, j})
	})

	clear(s.currSet)
	for _, key := range s.curr {
		s.currSet[key] = true
		if !s.linked[key] {
			s.medium.SetLink(s.nodes[key[0]].peer, s.nodes[key[1]].peer, s.cfg.Tech)
			s.linked[key] = true
		}
	}
	// Every current pair is in linked by now, so linked ⊇ currSet and a
	// size mismatch is exactly "some link must be cut".
	if len(s.linked) > len(s.currSet) {
		s.cuts = s.cuts[:0]
		for key := range s.linked {
			if !s.currSet[key] {
				s.cuts = append(s.cuts, key)
			}
		}
		// Map iteration order is random; sort so CutLink event order (and
		// hence the whole event-queue schedule) replays identically.
		sort.Slice(s.cuts, func(i, j int) bool {
			if s.cuts[i][0] != s.cuts[j][0] {
				return s.cuts[i][0] < s.cuts[j][0]
			}
			return s.cuts[i][1] < s.cuts[j][1]
		})
		for _, key := range s.cuts {
			s.medium.CutLink(s.nodes[key[0]].peer, s.nodes[key[1]].peer)
			delete(s.linked, key)
		}
	}
}
