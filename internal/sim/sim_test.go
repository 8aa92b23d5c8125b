package sim

import (
	"reflect"
	"testing"
	"time"

	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/mobility"
	"sos/internal/msg"
)

var start = time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC)

// twoNodeConfig builds a minimal scenario: two stationary nodes in range.
// pinned is a mobility model that never moves.
type pinned mobility.Point

func (p pinned) Position(time.Time) mobility.Point { return mobility.Point(p) }

func twoNodeConfig(scheme string, workload []Event) Config {
	return Config{
		Start:    start,
		Duration: time.Hour,
		Tick:     10 * time.Second,
		Range:    50,
		Scheme:   scheme,
		Seed:     1,
		Nodes: []NodeSpec{
			{Handle: "alice", Mobility: pinned{X: 0, Y: 0}},
			{Handle: "bob", Mobility: pinned{X: 10, Y: 0}, Follows: []string{"alice"}},
		},
		Workload: workload,
	}
}

func TestTwoNodeDelivery(t *testing.T) {
	workload := []Event{
		{At: start.Add(5 * time.Minute), Handle: "alice", Action: ActionPost, Payload: []byte("hi")},
	}
	s, err := New(twoNodeConfig("interest", workload))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Posts != 1 {
		t.Errorf("posts = %d, want 1", res.Posts)
	}
	if res.Collector.CreatedCount() != 1 {
		t.Errorf("created = %d, want 1", res.Collector.CreatedCount())
	}
	deliveries := res.Collector.Deliveries(metrics.AllHops)
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(deliveries))
	}
	if deliveries[0].Hops != 1 {
		t.Errorf("hops = %d, want 1", deliveries[0].Hops)
	}
	if deliveries[0].Delay() <= 0 || deliveries[0].Delay() > 10*time.Minute {
		t.Errorf("delay = %v, want small positive", deliveries[0].Delay())
	}
}

// TestNoWallClockHeartbeatInsideReplay holds a replay, mid-contact, for
// longer than the stack's wall-clock resync heartbeat. A sim-built node
// must not have started core's heartbeat driver: its ticks would
// re-advertise on the live link, calling into the single-threaded medium from outside the
// simulator's goroutine (under -race, a reported data race; without it,
// the extra advertisements counted here).
func TestNoWallClockHeartbeatInsideReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps past the resync interval")
	}
	cfg := twoNodeConfig("epidemic", []Event{
		{At: start.Add(5 * time.Minute), Handle: "alice", Action: ActionPost, Payload: []byte("hi")},
	})
	var s *Sim
	adsSent := func() (n uint64) {
		for _, node := range s.Nodes() {
			st := node.MW.Stats().Message
			n += st.AdsFullSent + st.AdsDeltaSent
		}
		return n
	}
	held := false
	cfg.Nodes[0].Activity = func(at time.Time) bool {
		if !held && !at.Before(start.Add(10*time.Minute)) {
			held = true
			if len(s.Nodes()[0].MW.ActiveLinks()) == 0 {
				t.Error("no live link to hold: the test is vacuous")
			}
			before := adsSent()
			time.Sleep(core.DefaultResyncInterval + 500*time.Millisecond)
			if after := adsSent(); after != before {
				t.Errorf("%d advertisements sent while the replay stood still: a wall-clock timer is live", after-before)
			}
		}
		return true
	}
	var err error
	if s, err = New(cfg); err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !held {
		t.Fatal("the replay never reached the hold point")
	}
}

func TestMovingNodesMeetAndDeliver(t *testing.T) {
	// Bob oscillates: far from alice for 30 minutes, then at her position.
	bobTrace, err := mobility.NewTrace([]mobility.Waypoint{
		{At: start, Pos: mobility.Point{X: 5000, Y: 5000}},
		{At: start.Add(30 * time.Minute), Pos: mobility.Point{X: 5000, Y: 5000}},
		{At: start.Add(40 * time.Minute), Pos: mobility.Point{X: 0, Y: 0}},
		{At: start.Add(2 * time.Hour), Pos: mobility.Point{X: 0, Y: 0}},
	})
	if err != nil {
		t.Fatalf("NewTrace: %v", err)
	}
	cfg := Config{
		Start:    start,
		Duration: 90 * time.Minute,
		Tick:     15 * time.Second,
		Range:    35,
		Scheme:   "interest",
		Seed:     2,
		Nodes: []NodeSpec{
			{Handle: "alice", Mobility: pinned{X: 0, Y: 0}},
			{Handle: "bob", Mobility: bobTrace, Follows: []string{"alice"}},
		},
		Workload: []Event{
			{At: start.Add(time.Minute), Handle: "alice", Action: ActionPost, Payload: []byte("catch me later")},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	deliveries := res.Collector.Deliveries(metrics.AllHops)
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(deliveries))
	}
	// The post existed from minute 1, but bob only arrived ~minute 40:
	// the delay reflects the DTN wait, not transmission time.
	if d := deliveries[0].Delay(); d < 35*time.Minute || d > 50*time.Minute {
		t.Errorf("delay = %v, want ≈ 39–45 min", d)
	}
	if res.Recorder.ContactCount() == 0 {
		t.Error("no contacts recorded")
	}
}

func TestFollowActionCreatesSubscription(t *testing.T) {
	workload := []Event{
		{At: start.Add(time.Minute), Handle: "bob", Action: ActionFollow, Target: "alice"},
		{At: start.Add(10 * time.Minute), Handle: "alice", Action: ActionPost, Payload: []byte("to my new follower")},
	}
	cfg := twoNodeConfig("interest", workload)
	cfg.Nodes[1].Follows = nil // no pre-seeded subscription this time
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Follows != 1 {
		t.Errorf("follow actions = %d, want 1", res.Follows)
	}
	if len(res.Collector.Deliveries(metrics.AllHops)) != 1 {
		t.Error("post not delivered after in-app follow")
	}
}

func TestDeterminism(t *testing.T) {
	scenario := func() (*Result, error) {
		g, err := NewGainesville(GainesvilleConfig{Seed: 99, Days: 1, posts: 20, inAppFollows: 10})
		if err != nil {
			return nil, err
		}
		s, err := New(g.Config)
		if err != nil {
			return nil, err
		}
		return s.Run()
	}
	a, err := scenario()
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := scenario()
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if a.Collector.Disseminations() != b.Collector.Disseminations() {
		t.Errorf("disseminations differ: %d vs %d", a.Collector.Disseminations(), b.Collector.Disseminations())
	}
	// One seed is one run: every key comes from the node's seeded reader
	// and every signature is RFC 6979, so frame sizes, and with them the
	// byte totals, repeat exactly.
	if !reflect.DeepEqual(a.Collector.Deliveries(metrics.AllHops), b.Collector.Deliveries(metrics.AllHops)) {
		t.Error("delivery lists differ between identical seeds")
	}
	if a.MediumStats != b.MediumStats {
		t.Errorf("medium stats differ: %+v vs %+v", a.MediumStats, b.MediumStats)
	}
}

func TestGainesvilleScenarioShape(t *testing.T) {
	g, err := NewGainesville(GainesvilleConfig{Seed: 7})
	if err != nil {
		t.Fatalf("NewGainesville: %v", err)
	}
	if len(g.Config.Nodes) != 10 {
		t.Errorf("nodes = %d, want 10", len(g.Config.Nodes))
	}
	if len(g.Subscriptions) != 58 {
		t.Errorf("subscriptions = %d, want 58 (relationship edges)", len(g.Subscriptions))
	}
	posts, follows := 0, 0
	for _, ev := range g.Config.Workload {
		switch ev.Action {
		case ActionPost:
			posts++
		case ActionFollow:
			follows++
		}
	}
	if posts != 259 {
		t.Errorf("posts = %d, want 259", posts)
	}
	if follows != 46 {
		t.Errorf("in-app follows = %d, want 46", follows)
	}
	// Pre-seeded follows cover the remaining 12 edges.
	preSeeded := 0
	for _, n := range g.Config.Nodes {
		preSeeded += len(n.Follows)
	}
	if preSeeded != 12 {
		t.Errorf("pre-seeded follows = %d, want 12", preSeeded)
	}
	if g.Config.Duration != 7*24*time.Hour {
		t.Errorf("duration = %v, want 168h", g.Config.Duration)
	}
}

func TestGainesvilleAblationSize(t *testing.T) {
	g, err := NewGainesville(GainesvilleConfig{Seed: 7, Users: 20, Days: 1, posts: 10, inAppFollows: 5})
	if err != nil {
		t.Fatalf("NewGainesville: %v", err)
	}
	if len(g.Config.Nodes) != 20 {
		t.Errorf("nodes = %d, want 20", len(g.Config.Nodes))
	}
	if g.Graph.N() != 20 {
		t.Errorf("graph size = %d, want 20", g.Graph.N())
	}
	// Density should approximate the deployment's 0.64.
	if d := g.Graph.Density(); d < 0.55 || d > 0.73 {
		t.Errorf("ablation graph density = %f, want ≈ 0.64", d)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Duration: time.Hour}); err == nil {
		t.Error("no nodes accepted")
	}
	bad := twoNodeConfig("interest", nil)
	bad.Duration = 0
	if _, err := New(bad); err == nil {
		t.Error("zero duration accepted")
	}
	noMobility := twoNodeConfig("interest", nil)
	noMobility.Nodes[0].Mobility = nil
	if _, err := New(noMobility); err == nil {
		t.Error("nil mobility accepted")
	}
	dup := twoNodeConfig("interest", nil)
	dup.Nodes[1].Handle = "alice"
	if _, err := New(dup); err == nil {
		t.Error("duplicate handle accepted")
	}
	unknownFollow := twoNodeConfig("interest", nil)
	unknownFollow.Nodes[1].Follows = []string{"ghost"}
	if _, err := New(unknownFollow); err == nil {
		t.Error("unknown follow target accepted")
	}
}

func TestWorkloadValidation(t *testing.T) {
	cfg := twoNodeConfig("interest", []Event{
		{At: start.Add(time.Minute), Handle: "ghost", Action: ActionPost},
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("workload with unknown handle ran")
	}
}

// TestBufferPressureScenario runs the constrained-device workload: a
// finite quota forces evictions on the ferry's critical path, the
// collector counts every drop, and deliveries still happen.
func TestBufferPressureScenario(t *testing.T) {
	run := func(quota int) (*Result, *bufferPressure) {
		bp, err := newBufferPressure(bufferPressureConfig{Seed: 3, Quota: quota})
		if err != nil {
			t.Fatalf("newBufferPressure: %v", err)
		}
		s, err := New(bp.Config)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, bp
	}

	pressured, bp := run(12)
	if got := pressured.Collector.Evictions(); got == 0 {
		t.Error("finite quota produced no evictions")
	}
	delivered := len(pressured.Collector.Deliveries(metrics.AllHops))
	if delivered == 0 {
		t.Error("no deliveries under buffer pressure")
	}
	// Per-node store stats surface the drops too.
	var storeEvictions uint64
	for _, st := range pressured.NodeStats {
		storeEvictions += st.Store.Evictions + st.Store.Expirations
	}
	if storeEvictions == 0 {
		t.Error("node store stats recorded no evictions")
	}
	if q := bp.Config.StoreQuota; q != 12 {
		t.Fatalf("scenario quota = %d, want 12", q)
	}
	// Non-authoring nodes must respect the quota exactly; authors may
	// exceed it with their own messages, which are never evicted.
	for handle, st := range pressured.NodeStats {
		if handle[0] == 'a' {
			continue
		}
		if st.Store.Messages > 12 {
			t.Errorf("%s holds %d messages, quota 12", handle, st.Store.Messages)
		}
	}

	// The unbounded control arm evicts nothing and delivers at least as
	// much as the pressured run.
	control, _ := run(-1)
	if got := control.Collector.Evictions(); got != 0 {
		t.Errorf("unbounded control arm evicted %d messages", got)
	}
	if controlDelivered := len(control.Collector.Deliveries(metrics.AllHops)); controlDelivered < delivered {
		t.Errorf("control deliveries %d < pressured deliveries %d", controlDelivered, delivered)
	}
}

func TestEpidemicOutperformsInterestInCoverage(t *testing.T) {
	// Three nodes in a line; only the far node subscribed. Epidemic
	// relays through the middle non-subscriber; interest-based cannot.
	line := func(scheme string) int {
		cfg := Config{
			Start:    start,
			Duration: 30 * time.Minute,
			Tick:     10 * time.Second,
			Range:    30,
			Scheme:   scheme,
			Seed:     5,
			Nodes: []NodeSpec{
				{Handle: "alice", Mobility: pinned{X: 0, Y: 0}},
				{Handle: "mid", Mobility: pinned{X: 25, Y: 0}},
				{Handle: "far", Mobility: pinned{X: 50, Y: 0}, Follows: []string{"alice"}},
			},
			Workload: []Event{
				{At: start.Add(time.Minute), Handle: "alice", Action: ActionPost, Payload: []byte("relay me")},
			},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return len(res.Collector.Deliveries(metrics.AllHops))
	}
	if got := line("epidemic"); got != 1 {
		t.Errorf("epidemic deliveries = %d, want 1 (via relay)", got)
	}
	if got := line("interest"); got != 0 {
		t.Errorf("interest deliveries = %d, want 0 (mid node is not subscribed, so it never carries)", got)
	}
}

// staticGainesville builds a Gainesville replay whose follow graph never
// changes: the in-app follow actions become pre-seeded subscriptions, and
// no buffer ever drops a message.
func staticGainesville(t *testing.T, scheme string) *Sim {
	t.Helper()
	g, err := NewGainesville(GainesvilleConfig{Seed: 7, Days: 2, posts: 40, Scheme: scheme})
	if err != nil {
		t.Fatalf("NewGainesville: %v", err)
	}
	cfg := g.Config
	cfg.RelayTTL = 0
	idx := make(map[string]int, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		idx[n.Handle] = i
	}
	var workload []Event
	for _, ev := range cfg.Workload {
		switch ev.Action {
		case ActionFollow:
			cfg.Nodes[idx[ev.Handle]].Follows = append(cfg.Nodes[idx[ev.Handle]].Follows, ev.Target)
		case ActionPost:
			workload = append(workload, ev)
		default:
			t.Fatalf("unexpected workload action %d", ev.Action)
		}
	}
	cfg.Workload = workload
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestDeliveryOracle checks the collector against what the nodes hold at
// the end: with a static follow graph and unbounded stores, a node holds a
// post exactly when it received it, and received it as a subscriber
// exactly when it subscribes to the author. So the delivery set must be
// {(post, node) : node ≠ author, node follows the author, node holds the
// post}, under any schedule the replay happens to take.
func TestDeliveryOracle(t *testing.T) {
	for _, scheme := range []string{"interest", "epidemic"} {
		t.Run(scheme, func(t *testing.T) {
			s := staticGainesville(t, scheme)
			res, err := s.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			type pair struct {
				ref msg.Ref
				to  id.UserID
			}
			want := make(map[pair]bool)
			for _, author := range s.Nodes() {
				for _, m := range author.MW.Store().MessagesFrom(author.User, 0) {
					if m.Kind != msg.KindPost {
						continue
					}
					for _, n := range s.Nodes() {
						st := n.MW.Store()
						if n == author || !st.IsSubscribed(author.User) {
							continue
						}
						if _, held := st.Get(m.Ref()); held {
							want[pair{m.Ref(), n.User}] = true
						}
					}
				}
			}
			got := make(map[pair]bool)
			for _, d := range res.Collector.Deliveries(metrics.AllHops) {
				got[pair{d.Ref, d.To}] = true
			}
			if len(want) == 0 {
				t.Fatal("the replay delivered nothing: the oracle is vacuous")
			}
			for p := range want {
				if !got[p] {
					t.Errorf("%s held by subscriber %s but not counted as delivered", p.ref, p.to)
				}
			}
			for p := range got {
				if !want[p] {
					t.Errorf("%s counted as delivered to %s, which does not hold it as a subscriber", p.ref, p.to)
				}
			}
		})
	}
}

// TestDeliveriesStampedInVirtualTime: every delivery lies inside the run's
// virtual window, so no observer stamps it with wall time.
func TestDeliveriesStampedInVirtualTime(t *testing.T) {
	g, err := NewGainesville(GainesvilleConfig{Seed: 3, Days: 1, posts: 20})
	if err != nil {
		t.Fatalf("NewGainesville: %v", err)
	}
	s, err := New(g.Config)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	deliveries := res.Collector.Deliveries(metrics.AllHops)
	if len(deliveries) == 0 {
		t.Fatal("no deliveries to check")
	}
	end := g.Config.Start.Add(g.Config.Duration)
	for _, d := range deliveries {
		if d.DeliveredAt.Before(g.Config.Start) || d.DeliveredAt.After(end) {
			t.Errorf("%s delivered to %s at %v, outside [%v, %v]", d.Ref, d.To, d.DeliveredAt, g.Config.Start, end)
		}
	}
}
