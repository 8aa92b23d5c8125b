package main

import (
	"fmt"
	"runtime"
	"time"

	"sos/internal/metrics"
	"sos/internal/sim"
)

// simWorkload is sim-study: the researcher's loop. A round replays the
// default §VI scenario (10 users, 7 days, interest-based routing)
// several times and the 30-user epidemic variant a few times, each from
// scratch — sim.New builds CA, cloud and every node's full stack, Run
// drives them through virtual time. It is the only workload with many
// nodes, several schemes and a handshake per contact.
//
// A replay must stay short: the stack arms a wall-clock resync heartbeat
// (3 s) that must never fire inside the single-threaded simulator, so a
// replay over replayDeadline counts as failed and every node is closed
// as soon as its replay ends.
type simWorkload struct {
	in       *inputs
	defaults int // default-scenario replays per round
	dense    int // 30-user epidemic replays per round
	days     int // 0 = the scenario's own 7 days
}

const replayDeadline = 1500 * time.Millisecond

func newSim(cfg runConfig, in *inputs) *simWorkload {
	return &simWorkload{in: in, defaults: cfg.pick(8, 1), dense: cfg.pick(2, 1), days: cfg.pick(0, 1)}
}

func (w *simWorkload) shapes() shapes {
	// Alleyoop posts are short and a contact moves a handful of them.
	return shapes{payloadBytes: 64, frameBytes: 512, beaconEntries: 10, msgsPerBatch: 4}
}

// bands are the shape statistics of one default replay, in the order of
// bandNames, and bandLimits their {low, high} limits: the Gainesville
// bands of internal/sim/gainesville_test.go, which every default replay
// must stay inside.
type bands [6]float64

var bandNames = [6]string{
	"1-hop share", "CDF(94h)", "CDF(24h)", "subscriptions above 0.8", "weak-subscription tail", "disseminations",
}

var bandLimits = [6][2]float64{{0.70, 0.92}, {0.85, 1}, {0.30, 0.70}, {0.10, 0.50}, {0.20, 1}, {450, 1400}}

func measureBands(res *sim.Result, g *sim.Gainesville) bands {
	all := res.Collector.DelayCDF(metrics.AllHops)
	ratios := res.Collector.DeliveryRatios(g.Subscriptions, metrics.AllHops)
	return bands{
		res.Collector.OneHopShare(),
		all.At(94), all.At(24),
		metrics.FractionAbove(ratios, 0.80),
		1 - metrics.FractionAbove(ratios, 0.50),
		float64(res.Collector.Disseminations()),
	}
}

// outside names the first limit b breaks, or "".
func (b bands) outside() string {
	for i, v := range b {
		if v < bandLimits[i][0] || v > bandLimits[i][1] {
			return fmt.Sprintf("%s = %.3f outside [%.2f, %.2f]", bandNames[i], v, bandLimits[i][0], bandLimits[i][1])
		}
	}
	return ""
}

// replay is one scenario to run.
type replay struct {
	g        *sim.Gainesville
	standard bool // the default scenario, checked against the bands
}

func (w *simWorkload) scenario(label string, standard bool) (replay, error) {
	pick := w.in.sub("sim/" + label)
	cfg := sim.GainesvilleConfig{Seed: pick, Days: w.days}
	if standard {
		cfg.Seed = defaultScenarioSeeds[pick%int64(len(defaultScenarioSeeds))]
	} else {
		cfg.Users, cfg.Scheme = 30, "epidemic"
	}
	g, err := sim.NewGainesville(cfg)
	if err != nil {
		return replay{}, fmt.Errorf("building scenario %s: %w", label, err)
	}
	return replay{g: g, standard: standard}, nil
}

// run executes one replay from scratch and closes its nodes.
func (w *simWorkload) run(rp replay, tr *tracer) (res *sim.Result, took time.Duration, secure counts, err error) {
	start := time.Now()
	s, err := sim.New(rp.g.Config)
	if err != nil {
		return nil, 0, secure, fmt.Errorf("sim.New: %w", err)
	}
	defer func() {
		for _, n := range s.Nodes() {
			_ = n.MW.Close() // stops the node's wall-clock heartbeat; nothing to report to
		}
	}()
	if tr != nil {
		for _, n := range s.Nodes() {
			if err := installSchemeShim(n.MW, tr.node(n.Handle)); err != nil {
				return nil, 0, secure, fmt.Errorf("installing scheme shim: %w", err)
			}
		}
	}
	if res, err = s.Run(); err != nil {
		return nil, 0, secure, fmt.Errorf("sim.Run: %w", err)
	}
	took = time.Since(start)
	for _, n := range s.Nodes() {
		secure.addStats(res.NodeStats[n.Handle], n.MW.SecureStats())
	}
	return res, took, secure, nil
}

func (w *simWorkload) round(idx int, tr *tracer, t *tally) (roundResult, error) {
	roundStart := time.Now()
	var r roundResult

	// Set-up: build the round's scenarios and run one replay unmeasured.
	var replays []replay
	for i := 0; i < w.defaults; i++ {
		rp, err := w.scenario(fmt.Sprintf("r%d/default/%d", idx, i), true)
		if err != nil {
			return r, err
		}
		replays = append(replays, rp)
	}
	for i := 0; i < w.dense; i++ {
		rp, err := w.scenario(fmt.Sprintf("r%d/dense/%d", idx, i), false)
		if err != nil {
			return r, err
		}
		replays = append(replays, rp)
	}
	warm, err := w.scenario(fmt.Sprintf("r%d/warm-up", idx), true)
	if err != nil {
		return r, err
	}
	if _, _, _, err := w.run(warm, nil); err != nil {
		return r, err
	}
	runtime.GC()
	r.setup = time.Since(roundStart)

	spanAt := 0
	if tr != nil {
		spanAt, _ = tr.mark()
	}
	before := readMeter()
	sectionStart := time.Now()
	var (
		lt         layerTotals
		wall       time.Duration
		deliveries int
	)
	t.attempt(len(replays))
	for i, rp := range replays {
		res, took, cnt, err := w.run(rp, tr)
		if err != nil {
			return r, err
		}
		op := fmt.Sprintf("replay %d (seed %d)", i, rp.g.Config.Seed)
		delivered := len(res.Collector.Deliveries(metrics.AllHops))
		wall += took
		deliveries += delivered
		r.wireBytes += res.MediumStats.BytesDelivered
		lt.counts = lt.counts.add(cnt)
		lt.signed += res.Posts + res.Follows
		r.replayMs = append(r.replayMs, ms(took))
		lt.simContacts += res.MediumStats.ContactsUp
		lt.simFrames += res.MediumStats.FramesDelivered

		reason := ""
		switch {
		case took > replayDeadline:
			reason = fmt.Sprintf("took %v, over the %v the wall-clock heartbeat allows", took, replayDeadline)
		case delivered == 0:
			reason = "delivered nothing"
		case cnt[cVerifyFailures]+cnt[cMisbehavior]+cnt[cQuarantines] > 0:
			reason = fmt.Sprintf("%d verification failures, %d misbehaviour events, %d quarantines among honest nodes",
				cnt[cVerifyFailures], cnt[cMisbehavior], cnt[cQuarantines])
		case rp.standard && w.days == 0:
			if res.Collector.CreatedCount() != 259 || res.Follows != 46 {
				reason = fmt.Sprintf("%d messages and %d follows, want 259 and 46", res.Collector.CreatedCount(), res.Follows)
			} else {
				reason = measureBands(res, rp.g).outside()
			}
		}
		if reason != "" {
			t.fail(failure{Op: op, Phase: "replay", Reason: reason})
		}
	}
	r.cost = readMeter().sub(before)
	r.delivered = deliveries
	if wall > 0 {
		r.goodput = float64(deliveries) / wall.Seconds()
	}
	if tr != nil {
		lt.delivered, lt.simDelivered = deliveries, deliveries
		lt.seconds = time.Since(sectionStart).Seconds()
		lt.cost = r.cost
		lt.medium.frames, lt.medium.frameBytes = lt.simFrames, r.wireBytes
		lt.contacts = int(lt.counts[cHandshakes] / 2)
		lt.busy, lt.calls = busyByName(tr.since(spanAt), spanAt)
		r.layers = &lt
	}
	return r, nil
}
