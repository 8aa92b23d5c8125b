package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/mobility"
	"sos/internal/socialgraph"
)

// GainesvilleConfig parameterizes the replay of the paper's §VI field
// study. Zero values select the paper's workload: ten users, seven days,
// 259 unique posts, 46 in-app subscription actions, interest-based
// routing, in an 11 km × 8 km area.
//
// The scenario models the three real-world mechanisms the paper's results
// hinge on:
//
//   - Social meetings. The testers were students who "were friends before
//     the field study and typically interacted during the school week"
//     (§VI-A): contacts arise from pairwise meetings and group gatherings
//     at shared venues, with heterogeneous per-pair rates and a weekend
//     slowdown.
//   - Foreground-only radios. Multipeer Connectivity only works while the
//     app is active, so each user has app-usage windows: sporadic checks,
//     a burst after posting, and social prompts when a co-present friend
//     posts. Deliveries require co-location plus overlapping activity —
//     which is why the paper saw mostly 1-hop deliveries (0.826): authors
//     are reliably active right after posting, forwarders rarely are.
//   - Sleep. Nodes are home and inactive at night (§VI-B: "node mobility
//     tends to become stationary for at least 5-8 hours a day").
type GainesvilleConfig struct {
	Seed         int64
	Days         int
	Posts        int
	InAppFollows int
	Scheme       string
	Range        float64
	// AttendProb is the probability a user shows up to a scheduled
	// meeting (default 0.85).
	AttendProb float64
	// MeetRate is the mean weekday meetings/day for a related pair
	// (default 0.45).
	MeetRate float64
	// RateSpread is the log-normal σ of per-pair rate heterogeneity
	// (default 1.0).
	RateSpread float64
	// GatheringProb is the per-weekday probability of a group gathering
	// (default 0.35).
	GatheringProb float64
	// WeekendFactor scales meeting rates on weekends (default 0.60).
	WeekendFactor float64
	// SocialPostProb is the chance a post is authored during one of the
	// author's meetings rather than at a random time (default 0.50).
	SocialPostProb float64
	// ChecksPerDay is the mean number of spontaneous app checks per user
	// per day (default 2.5).
	ChecksPerDay float64
	// MeetingCheckProb is the chance a user opens the app spontaneously
	// during a meeting (default 0.45).
	MeetingCheckProb float64
	// PromptProb is the chance a co-present friend opens the app when the
	// author posts at a meeting (default 0.60).
	PromptProb float64
	// RelayTTL bounds forwarding of other users' messages (default 24h;
	// negative disables eviction).
	RelayTTL time.Duration
	// Users overrides the node count for density ablations (default 10,
	// the deployment size; other counts use a scaled random relationship
	// graph instead of the deployment graph).
	Users int
}

// Gainesville is a fully-built §VI scenario.
type Gainesville struct {
	Config        Config
	Graph         *socialgraph.Graph
	Subscriptions []metrics.Subscription
	Handles       []string
}

// paperStart is where every run starts: a Monday, so the 7-day run covers
// a school week plus a weekend — the structure §VI-B's delay tail depends
// on.
var paperStart = time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC)

// NewGainesville builds the scenario.
func NewGainesville(cfg GainesvilleConfig) (*Gainesville, error) {
	applyDefaults(&cfg)
	if cfg.Users < 2 {
		return nil, fmt.Errorf("sim: %d users", cfg.Users)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	// Relationship graph: the canonical deployment digraph at n=10, or a
	// random digraph with matching density for ablation sizes.
	var graph *socialgraph.Graph
	if cfg.Users == socialgraph.DeploymentSize {
		graph = socialgraph.Deployment()
	} else {
		graph = randomGraph(cfg.Users, 0.64, rng)
	}

	handles := make([]string, cfg.Users)
	for i := range handles {
		handles[i] = fmt.Sprintf("user%02d", i+1)
	}

	world, err := buildSocialWorld(cfg, graph, rng)
	if err != nil {
		return nil, err
	}

	// Posts: weighted by social degree (hubs post more); many are
	// authored mid-meeting (people post while together), the rest at
	// random daytime instants.
	weights, total := postWeights(cfg.Users, graph)
	type postPlan struct {
		author int
		at     time.Time
		social int // index into world.attended[author], or -1
	}
	plans := make([]postPlan, 0, cfg.Posts)
	for p := 0; p < cfg.Posts; p++ {
		author := pickWeighted(weights, total, rng)
		attended := world.attended[author]
		if len(attended) > 0 && rng.Float64() < cfg.SocialPostProb {
			// Uniform over attended meetings: pair meetings vastly
			// outnumber gatherings, so most social posts happen in
			// one-on-one company — which is why the field study's
			// deliveries were overwhelmingly single-hop.
			mi := rng.Intn(len(attended))
			mtg := attended[mi]
			at := mtg.at.Add(time.Duration(rng.Float64() * float64(mtg.dur) * 0.85))
			plans = append(plans, postPlan{author: author, at: at, social: mi})
			continue
		}
		day := rng.Intn(cfg.Days)
		secOfDay := 8*3600 + rng.Float64()*15*3600 // 08:00–23:00
		at := paperStart.Add(time.Duration(day)*24*time.Hour + time.Duration(secOfDay)*time.Second)
		plans = append(plans, postPlan{author: author, at: at, social: -1})
	}

	// Activity windows: spontaneous checks, post bursts, social prompts.
	for u := 0; u < cfg.Users; u++ {
		world.addDailyChecks(u, cfg, rng)
	}
	var workload []Event
	for pi, plan := range plans {
		// The author is glued to the app around their own post.
		world.addWindow(plan.author, plan.at.Add(-time.Minute), plan.at.Add(12*time.Minute))
		if plan.social >= 0 {
			// Co-present friends get prompted to open the app.
			mtg := world.attended[plan.author][plan.social]
			for _, other := range mtg.with {
				if rng.Float64() < cfg.PromptProb {
					world.addWindow(other, plan.at, plan.at.Add(time.Duration(4+rng.Float64()*8)*time.Minute))
				}
			}
		}
		payload := fmt.Sprintf("post %03d by %s: studying at the library, anyone around? #%06x",
			pi, handles[plan.author], rng.Int31())
		workload = append(workload, Event{
			At: plan.at, Handle: handles[plan.author], Action: ActionPost, Payload: []byte(payload),
		})
	}

	// Split relationships: InAppFollows become scheduled follow actions
	// during the first ~36 hours; the rest pre-existed the study and are
	// seeded quietly (the testers "were friends before the field study").
	nodes := make([]NodeSpec, cfg.Users)
	for i, handle := range handles {
		nodes[i] = NodeSpec{
			Handle:   handle,
			Mobility: world.models[i],
			Activity: world.activityFunc(i),
		}
	}
	edges := graph.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	inApp := cfg.InAppFollows
	if inApp > len(edges) {
		inApp = len(edges)
	}
	for k, e := range edges {
		follower, followee := handles[e[0]], handles[e[1]]
		if k < inApp {
			at := paperStart.Add(time.Duration(2+rng.Float64()*34) * time.Hour)
			workload = append(workload, Event{At: at, Handle: follower, Action: ActionFollow, Target: followee})
			// Following happens in the app: a small activity window.
			world.addWindow(e[0], at.Add(-time.Minute), at.Add(6*time.Minute))
		} else {
			nodes[e[0]].Follows = append(nodes[e[0]].Follows, followee)
		}
	}

	// Subscriptions for the Fig. 4d delivery-ratio series: every directed
	// relationship edge.
	subs := make([]metrics.Subscription, 0, len(edges))
	for _, e := range graph.Edges() {
		subs = append(subs, metrics.Subscription{
			Follower: id.NewUserID(handles[e[0]]),
			Followee: id.NewUserID(handles[e[1]]),
		})
	}

	return &Gainesville{
		Config: Config{
			Start:    paperStart,
			Duration: time.Duration(cfg.Days) * 24 * time.Hour,
			Range:    cfg.Range,
			Scheme:   cfg.Scheme,
			RelayTTL: cfg.RelayTTL,
			Seed:     rng.Int63(),
			Nodes:    nodes,
			Workload: workload,
		},
		Graph:         graph,
		Subscriptions: subs,
		Handles:       handles,
	}, nil
}

// applyDefaults fills zero fields with the calibrated defaults.
func applyDefaults(cfg *GainesvilleConfig) {
	if cfg.Days == 0 {
		cfg.Days = 7
	}
	if cfg.Posts == 0 {
		cfg.Posts = 259
	}
	if cfg.InAppFollows == 0 {
		cfg.InAppFollows = 46
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "interest"
	}
	if cfg.Range == 0 {
		cfg.Range = 35
	}
	if cfg.Users == 0 {
		cfg.Users = socialgraph.DeploymentSize
	}
	if cfg.AttendProb == 0 {
		cfg.AttendProb = 0.85
	}
	if cfg.MeetRate == 0 {
		cfg.MeetRate = 0.45
	}
	if cfg.RateSpread == 0 {
		cfg.RateSpread = 1.0
	}
	if cfg.GatheringProb == 0 {
		cfg.GatheringProb = 0.35
	}
	if cfg.WeekendFactor == 0 {
		cfg.WeekendFactor = 0.60
	}
	if cfg.SocialPostProb == 0 {
		cfg.SocialPostProb = 0.50
	}
	if cfg.ChecksPerDay == 0 {
		cfg.ChecksPerDay = 2.5
	}
	if cfg.MeetingCheckProb == 0 {
		cfg.MeetingCheckProb = 0.45
	}
	if cfg.PromptProb == 0 {
		cfg.PromptProb = 0.60
	}
	if cfg.RelayTTL == 0 {
		cfg.RelayTTL = 24 * time.Hour
	} else if cfg.RelayTTL < 0 {
		cfg.RelayTTL = 0
	}
}

// meeting is one co-location of two or more users at a venue.
type meeting struct {
	at    time.Time
	dur   time.Duration
	venue mobility.Point
	users []int
}

// attendedMeeting is a meeting one user actually attends, with the other
// attendees listed for prompt modelling.
type attendedMeeting struct {
	at    time.Time
	dur   time.Duration
	venue mobility.Point
	with  []int
}

// interval is a half-open activity window.
type interval struct{ start, end time.Time }

// socialWorld bundles the generated geography, itineraries, and activity.
type socialWorld struct {
	cfg      GainesvilleConfig
	models   []mobility.Model
	attended [][]attendedMeeting
	windows  [][]interval
}

// buildSocialWorld generates meetings, per-user movement traces, and the
// attended-meeting lists.
func buildSocialWorld(cfg GainesvilleConfig, graph *socialgraph.Graph, rng *rand.Rand) (*socialWorld, error) {
	n := cfg.Users
	area := mobility.Gainesville
	campus := mobility.Point{X: area.W * 0.45, Y: area.H * 0.5}
	venues := []mobility.Point{
		jitterPoint(campus, 300, rng),        // library
		jitterPoint(campus, 300, rng),        // food court
		jitterPoint(campus, 300, rng),        // courtyard
		{X: area.W * 0.65, Y: area.H * 0.68}, // downtown venue
		{X: area.W * 0.30, Y: area.H * 0.25}, // westside cafe
	}
	homes := make([]mobility.Point, n)
	for i := range homes {
		homes[i] = area.RandomPoint(rng)
	}
	und := graph.Undirected()

	// Pair meeting rates: log-normally heterogeneous around MeetRate,
	// mean-corrected so the average stays at MeetRate.
	type pair struct{ a, b int }
	rates := make(map[pair]float64)
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if und.HasEdge(i, j) {
				p := pair{a: i, b: j}
				pairs = append(pairs, p)
				rates[p] = cfg.MeetRate * math.Exp(cfg.RateSpread*rng.NormFloat64()-cfg.RateSpread*cfg.RateSpread/2)
			}
		}
	}

	var meetings []meeting
	for day := 0; day < cfg.Days; day++ {
		midnight := paperStart.Add(time.Duration(day) * 24 * time.Hour)
		wd := midnight.Weekday()
		factor := 1.0
		if wd == time.Saturday || wd == time.Sunday {
			factor = cfg.WeekendFactor
		}
		// Pairwise meetings.
		for _, p := range pairs {
			rate := rates[p] * factor
			count := 0
			for rate > 0 {
				if rng.Float64() < math.Min(rate, 0.95) {
					count++
				}
				rate -= 0.95
			}
			for k := 0; k < count; k++ {
				if rng.Float64() > cfg.AttendProb*cfg.AttendProb {
					continue // one of them flaked
				}
				venue := venues[rng.Intn(len(venues))]
				if rng.Float64() < 0.35 { // at one of the pair's homes
					venue = homes[[2]int{p.a, p.b}[rng.Intn(2)]]
				}
				at := midnight.Add(time.Duration(9*3600+rng.Float64()*12*3600) * time.Second)
				meetings = append(meetings, meeting{
					at:    at,
					dur:   time.Duration(20+rng.Float64()*50) * time.Minute,
					venue: jitterPoint(venue, 5, rng),
					users: []int{p.a, p.b},
				})
			}
		}
		// Group gathering: a seed user draws a sample of their friends.
		if rng.Float64() < cfg.GatheringProb*factor {
			seed := rng.Intn(n)
			var friends []int
			for j := 0; j < n; j++ {
				if j != seed && und.HasEdge(seed, j) && rng.Float64() < 0.5 {
					friends = append(friends, j)
				}
			}
			if len(friends) > 3 {
				friends = friends[:3]
			}
			var present []int
			for _, u := range append([]int{seed}, friends...) {
				if rng.Float64() < cfg.AttendProb {
					present = append(present, u)
				}
			}
			if len(present) >= 2 {
				at := midnight.Add(time.Duration(18*3600+rng.Float64()*3*3600) * time.Second)
				meetings = append(meetings, meeting{
					at:    at,
					dur:   time.Duration(60+rng.Float64()*90) * time.Minute,
					venue: jitterPoint(venues[rng.Intn(len(venues))], 8, rng),
					users: present,
				})
			}
		}
	}

	// Assemble per-user waypoint traces and attended-meeting lists.
	perUser := make([][]meeting, n)
	for _, m := range meetings {
		for _, u := range m.users {
			perUser[u] = append(perUser[u], m)
		}
	}
	world := &socialWorld{
		cfg:      cfg,
		models:   make([]mobility.Model, n),
		attended: make([][]attendedMeeting, n),
		windows:  make([][]interval, n),
	}
	for u := 0; u < n; u++ {
		ms := perUser[u]
		sort.Slice(ms, func(i, j int) bool { return ms[i].at.Before(ms[j].at) })
		points := []mobility.Waypoint{{At: paperStart, Pos: homes[u]}}
		lastEnd := paperStart
		for _, m := range ms {
			// Conflicting meetings are skipped: a realistic no-show.
			if m.at.Before(lastEnd.Add(20 * time.Minute)) {
				continue
			}
			depart := m.at.Add(-15 * time.Minute)
			if depart.After(lastEnd) {
				points = append(points, mobility.Waypoint{At: depart, Pos: points[len(points)-1].Pos})
			}
			end := m.at.Add(m.dur)
			points = append(points,
				mobility.Waypoint{At: m.at, Pos: m.venue},
				mobility.Waypoint{At: end, Pos: m.venue},
				mobility.Waypoint{At: end.Add(25 * time.Minute), Pos: homes[u]},
			)
			lastEnd = end.Add(25 * time.Minute)

			var with []int
			for _, other := range m.users {
				if other != u {
					with = append(with, other)
				}
			}
			world.attended[u] = append(world.attended[u], attendedMeeting{
				at: m.at, dur: m.dur, venue: m.venue, with: with,
			})
		}
		points = append(points, mobility.Waypoint{
			At:  paperStart.Add(time.Duration(cfg.Days) * 24 * time.Hour),
			Pos: homes[u],
		})
		model, err := mobility.NewTrace(points)
		if err != nil {
			return nil, fmt.Errorf("sim: building trace for user %d: %w", u, err)
		}
		world.models[u] = model
	}
	return world, nil
}

// addWindow registers an app-activity window for a user.
func (w *socialWorld) addWindow(u int, start, end time.Time) {
	w.windows[u] = append(w.windows[u], interval{start: start, end: end})
}

// addDailyChecks adds each user's spontaneous app checks plus one check
// per attended meeting with moderate probability (friends showing each
// other the app).
func (w *socialWorld) addDailyChecks(u int, cfg GainesvilleConfig, rng *rand.Rand) {
	for day := 0; day < cfg.Days; day++ {
		midnight := paperStart.Add(time.Duration(day) * 24 * time.Hour)
		count := int(cfg.ChecksPerDay/2 + rng.Float64()*cfg.ChecksPerDay)
		for k := 0; k < count; k++ {
			at := midnight.Add(time.Duration(8*3600+rng.Float64()*15.5*3600) * time.Second)
			w.addWindow(u, at, at.Add(time.Duration(4+rng.Float64()*8)*time.Minute))
		}
	}
	for _, mtg := range w.attended[u] {
		if rng.Float64() < cfg.MeetingCheckProb {
			offset := time.Duration(rng.Float64() * float64(mtg.dur) * 0.8)
			at := mtg.at.Add(offset)
			w.addWindow(u, at, at.Add(time.Duration(4+rng.Float64()*8)*time.Minute))
		}
	}
}

// activityFunc compiles a user's windows into a fast membership test.
func (w *socialWorld) activityFunc(u int) func(time.Time) bool {
	ivs := make([]interval, len(w.windows[u]))
	copy(ivs, w.windows[u])
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	// Merge overlaps.
	merged := ivs[:0]
	for _, iv := range ivs {
		if len(merged) > 0 && !iv.start.After(merged[len(merged)-1].end) {
			if iv.end.After(merged[len(merged)-1].end) {
				merged[len(merged)-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	final := make([]interval, len(merged))
	copy(final, merged)
	return func(at time.Time) bool {
		idx := sort.Search(len(final), func(i int) bool { return final[i].start.After(at) }) - 1
		return idx >= 0 && !at.After(final[idx].end)
	}
}

// postWeights biases post volume toward socially-central users.
func postWeights(n int, graph *socialgraph.Graph) ([]float64, float64) {
	und := graph.Undirected()
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		deg := 0
		for j := 0; j < n; j++ {
			if und.HasEdge(i, j) {
				deg++
			}
		}
		weights[i] = 1 + float64(deg)/4
		total += weights[i]
	}
	return weights, total
}

// randomGraph draws a strongly-social random digraph at the target
// density for node-count ablations: reciprocated edges are favored, as in
// the deployment graph.
func randomGraph(n int, density float64, rng *rand.Rand) *socialgraph.Graph {
	g := socialgraph.New(n)
	target := int(density * float64(n*(n-1)))
	added := 0
	for added < target {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || g.HasEdge(i, j) {
			continue
		}
		if err := g.AddEdge(i, j); err != nil {
			continue
		}
		added++
		// Reciprocate 80% of the time, mirroring the deployment ratio.
		if added < target && !g.HasEdge(j, i) && rng.Float64() < 0.8 {
			if err := g.AddEdge(j, i); err == nil {
				added++
			}
		}
	}
	return g
}

// pickWeighted draws an index proportional to weights.
func pickWeighted(weights []float64, total float64, rng *rand.Rand) int {
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// jitterPoint draws a point within radius r of center.
func jitterPoint(center mobility.Point, r float64, rng *rand.Rand) mobility.Point {
	for {
		dx := (rng.Float64()*2 - 1) * r
		dy := (rng.Float64()*2 - 1) * r
		if dx*dx+dy*dy <= r*r {
			return mobility.Point{X: center.X + dx, Y: center.Y + dy}
		}
	}
}
