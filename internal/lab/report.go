package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sos/internal/geo"
	"sos/internal/metrics"
	"sos/internal/mobility"
	"sos/internal/mpc"
	"sos/internal/obs"
	"sos/internal/socialgraph"
	"sos/internal/telemetry"
)

// NodeReport is one node's slice of the report.
type NodeReport struct {
	Handle string `json:"handle"`
	User   string `json:"user"`
	// Restarts counts churn wake-ups that respawned the node (process
	// mode).
	Restarts int `json:"restarts,omitempty"`
	// Metrics is the node's final /metrics exposition flattened to
	// series → value, the node's one record in every mode: snapshotted
	// from the node's registry in-process and in silico, scraped over
	// HTTP from child daemons in process mode.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// tracer is the node's flight recorder (in-process mode).
	tracer *obs.Tracer
}

// PathHop is one edge of a reconstructed dissemination path.
type PathHop struct {
	From string    `json:"from"`
	To   string    `json:"to"`
	At   time.Time `json:"at"`
	Hops uint16    `json:"hops"`
}

// MessagePath is one delivered message's hop-by-hop relay chain, author
// outward — the per-message timeline behind the paper's dissemination
// maps (Fig. 4), reconstructed by the aggregator from delivery and
// dissemination events.
type MessagePath struct {
	Ref  string    `json:"ref"`
	Dest string    `json:"dest"`
	Hops []PathHop `json:"hops"`
}

// DelayStats summarizes the delivery-delay distribution in seconds.
type DelayStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// RatioStats summarizes the per-subscription delivery-ratio series
// (paper Fig. 4d).
type RatioStats struct {
	Subscriptions int     `json:"subscriptions"`
	Mean          float64 `json:"mean"`
	// Above80 is the fraction of subscriptions with a delivery ratio
	// strictly greater than 0.80 — the form the paper quotes.
	Above80 float64   `json:"above80"`
	Ratios  []float64 `json:"ratios,omitempty"`
}

// ChaosReport snapshots the fault-injection wrapper after a run with a
// chaos profile: what the medium actually did to the fleet's frames.
type ChaosReport struct {
	Profile           string `json:"profile"`
	FramesPassed      uint64 `json:"framesPassed"`
	FramesDropped     uint64 `json:"framesDropped"`
	FramesDuplicated  uint64 `json:"framesDuplicated"`
	FramesReordered   uint64 `json:"framesReordered"`
	FramesDelayed     uint64 `json:"framesDelayed"`
	OneWayDrops       uint64 `json:"oneWayDrops"`
	PartitionsStarted uint64 `json:"partitionsStarted"`
	PartitionsHealed  uint64 `json:"partitionsHealed"`
}

// Report is a finished experiment: the spec echoed back plus every §VI
// quantity computed from the fleet's live telemetry.
type Report struct {
	Name      string    `json:"name"`
	Mode      string    `json:"mode"`
	StartedAt time.Time `json:"startedAt"`
	Duration  Duration  `json:"duration"`
	Scheme    string    `json:"scheme"`
	NodeCount int       `json:"nodeCount"`

	// Workload actually executed.
	PostsScheduled int `json:"postsScheduled"`
	PostsExecuted  int `json:"postsExecuted"`
	PostsSkipped   int `json:"postsSkipped,omitempty"`

	// The §VI quantities.
	Created          int        `json:"created"`
	Disseminations   uint64     `json:"disseminations"`
	Deliveries       int        `json:"deliveries"`
	OneHopDeliveries int        `json:"oneHopDeliveries"`
	OneHopShare      float64    `json:"oneHopShare"`
	Delay            DelayStats `json:"delaySeconds"`
	// DelayCDF is the empirical CDF of delivery delays as (seconds,
	// fraction) step points — the Fig. 4c series at lab timescale.
	DelayCDF         [][2]float64 `json:"delayCDF,omitempty"`
	Ratio            RatioStats   `json:"deliveryRatio"`
	Evictions        uint64       `json:"evictions"`
	TrackedEvictions uint64       `json:"trackedEvictions"`

	// Timeline, when the run sampled one (Options.TimelineInterval),
	// holds one point per interval; its final cumulative delivery count
	// equals Deliveries.
	Timeline         []TimelinePoint `json:"timeline,omitempty"`
	TimelineInterval Duration        `json:"timelineInterval,omitempty"`
	// TraceFiles lists the Chrome trace_event JSON dumps written at
	// teardown (Options.TraceDir, or an emergency dump directory when
	// observability violations fired with tracing enabled).
	TraceFiles []string `json:"traceFiles,omitempty"`

	// Chaos, when the run injected faults, snapshots the wrapper's
	// counters.
	Chaos *ChaosReport `json:"chaos,omitempty"`
	// Study is the Gainesville section of a "gainesville" scenario run.
	Study *StudyReport `json:"study,omitempty"`

	Telemetry telemetry.AggregatorStats `json:"telemetry"`
	Nodes     []NodeReport              `json:"nodes"`
	// Paths holds one relay chain per delivery, when the run traced
	// message paths (live modes).
	Paths []MessagePath `json:"paths,omitempty"`

	Spec *Spec `json:"spec"`

	// col is the aggregated collector the series were computed from.
	col *metrics.Collector
	// delays is the CDF behind DelayCDF.
	delays metrics.CDF
	// recorder and subs are the replay's geo history and subscriptions,
	// which WriteStudyCSV exports (a Gainesville run only).
	recorder *geo.Recorder
	subs     []metrics.Subscription
}

// StudyReport is the Gainesville section of a report: the paper's §VI
// field-study numbers (Fig. 4a–4d and the workload scalars) measured on
// the replay, and the middleware internals behind them.
type StudyReport struct {
	// Graph is Fig. 4a: the §VI-A statistics of the relationship graph.
	Graph socialgraph.Stats `json:"graph"`
	// Follows counts the in-app subscription actions.
	Follows int `json:"follows"`
	// DelayCDF is Fig. 4c as [hours, all hops, one hop] rows: the
	// fraction of deliveries made within that many hours.
	DelayCDF [][3]float64 `json:"delayCDF"`
	// RatioAbove is Fig. 4d as [ratio, all hops, one hop] rows: the
	// fraction of subscriptions whose delivery ratio exceeds ratio.
	RatioAbove [][3]float64 `json:"ratioAbove"`
	// OneHopAtLeast80 is the fraction of subscriptions whose one-hop
	// delivery ratio is at least 0.80.
	OneHopAtLeast80 float64 `json:"oneHopAtLeast80"`
	// Fig. 4b: the geo-tagged generation and dissemination events, their
	// bounding box in meters, and the radio contacts made.
	Generated int            `json:"generated"`
	Passed    int            `json:"passed"`
	AreaMin   mobility.Point `json:"areaMin"`
	AreaMax   mobility.Point `json:"areaMax"`
	Contacts  int            `json:"contacts"`
	// The middleware internals, summed over the fleet.
	Handshakes       uint64       `json:"handshakes"`
	CertRejections   uint64       `json:"certRejections"`
	TransfersAborted uint64       `json:"transfersAborted"`
	VerifyFailures   uint64       `json:"verifyFailures"`
	Medium           mpc.SimStats `json:"medium"`
}

// buildReport computes every series from a collector — aggregated from
// live telemetry streams in the real-socket modes, or filled directly by
// the in-silico engine in ModeSim.
func buildReport(spec *Spec, mode string, startedAt time.Time, elapsed time.Duration,
	col *metrics.Collector, tstats telemetry.AggregatorStats, subs []metrics.Subscription,
	nodes []NodeReport, executed, skipped int) *Report {

	all := col.Deliveries(metrics.AllHops)
	delays := make([]float64, 0, len(all))
	for _, d := range all {
		delays = append(delays, d.Delay().Seconds())
	}
	cdf := metrics.NewCDF(delays)
	ratios := col.DeliveryRatios(subs, metrics.AllHops)
	mean := 0.0
	for _, r := range ratios {
		mean += r
	}
	if len(ratios) > 0 {
		mean /= float64(len(ratios))
	}

	r := &Report{
		Name:             spec.Name,
		Mode:             mode,
		StartedAt:        startedAt,
		Duration:         Duration(elapsed),
		Scheme:           spec.Scheme,
		NodeCount:        spec.Nodes,
		PostsScheduled:   spec.Posts,
		PostsExecuted:    executed,
		PostsSkipped:     skipped,
		Created:          col.CreatedCount(),
		Disseminations:   col.Disseminations(),
		Deliveries:       len(all),
		OneHopDeliveries: len(col.Deliveries(metrics.OneHop)),
		OneHopShare:      col.OneHopShare(),
		Delay: DelayStats{
			Count: cdf.N(),
		},
		DelayCDF: cdf.Points(),
		Ratio: RatioStats{
			Subscriptions: len(ratios),
			Mean:          mean,
			Above80:       metrics.FractionAbove(ratios, 0.80),
			Ratios:        ratios,
		},
		Evictions:        col.Evictions(),
		TrackedEvictions: col.TrackedEvictions(),
		Telemetry:        tstats,
		Nodes:            nodes,
		Spec:             spec,
		col:              col,
		delays:           cdf,
	}
	if cdf.N() > 0 {
		r.Delay.P50 = cdf.Quantile(0.50)
		r.Delay.P90 = cdf.Quantile(0.90)
		r.Delay.Max = cdf.Quantile(1.0)
	}
	return r
}

// attachPaths reconstructs one relay chain per delivery from the
// aggregator's receipt index and stores them on the report.
func attachPaths(r *Report, agg *telemetry.Aggregator) {
	for _, d := range r.col.Deliveries(metrics.AllHops) {
		p, ok := agg.PathTo(d.Ref, d.To)
		if !ok {
			continue
		}
		mp := MessagePath{Ref: p.Ref.String(), Dest: p.Dest.String()}
		for _, h := range p.Hops {
			mp.Hops = append(mp.Hops, PathHop{
				From: h.From.String(),
				To:   h.To.String(),
				At:   h.At,
				Hops: h.Hops,
			})
		}
		r.Paths = append(r.Paths, mp)
	}
}

// ObservabilityViolations checks the invariants a healthy run upholds —
// the e2e suites assert it returns nothing:
//
//   - no node's exporter dropped an event (the aggregate is complete)
//   - the aggregator heard from every node in the fleet
//   - every ingested event is accounted for by a type counter
//   - no node quarantined a peer: every lab fleet is all-honest, so a
//     quarantine is the sync plane punishing radio chaos or churn
//
// Each violation is one human-readable line.
func (r *Report) ObservabilityViolations() []string {
	var out []string
	for _, n := range r.Nodes {
		if v := n.Metrics["sos_telemetry_dropped_total"]; v > 0 {
			out = append(out, fmt.Sprintf("node %s reports %v dropped telemetry events in /metrics", n.Handle, v))
		}
		if quarantines := n.Metrics["sos_sync_quarantine_total"]; quarantines > 0 {
			out = append(out, fmt.Sprintf("node %s quarantined an honest peer %v times", n.Handle, quarantines))
		}
	}
	if r.Telemetry.Events > 0 && r.Telemetry.Nodes < r.NodeCount {
		out = append(out, fmt.Sprintf("aggregator heard %d of %d nodes", r.Telemetry.Nodes, r.NodeCount))
	}
	accounted := r.Telemetry.Created + r.Telemetry.Disseminated + r.Telemetry.Delivered +
		r.Telemetry.Evicted + r.Telemetry.Contacts + r.Telemetry.Duplicates
	if accounted != r.Telemetry.Events {
		out = append(out, fmt.Sprintf("aggregator type counters sum to %d, ingested %d", accounted, r.Telemetry.Events))
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("lab: writing report: %w", err)
	}
	return nil
}

// WriteDelayCSV writes the delay CDF as "seconds,cdf" rows.
func (r *Report) WriteDelayCSV(w io.Writer) error {
	return r.delays.WriteCSV(w, "seconds")
}

// Summary renders the human-readable result block soslab prints.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment %q (%s, %d nodes, %s routing) ran %s\n",
		r.Name, r.Mode, r.NodeCount, r.Scheme, r.Duration)
	fmt.Fprintf(&b, "  posts:           %d executed / %d scheduled (%d skipped)\n",
		r.PostsExecuted, r.PostsScheduled, r.PostsSkipped)
	fmt.Fprintf(&b, "  created:         %d unique messages\n", r.Created)
	fmt.Fprintf(&b, "  disseminations:  %d user-to-user transfers\n", r.Disseminations)
	fmt.Fprintf(&b, "  deliveries:      %d (%d one-hop, share %.2f)\n",
		r.Deliveries, r.OneHopDeliveries, r.OneHopShare)
	if r.Delay.Count > 0 {
		fmt.Fprintf(&b, "  delay:           p50 %.2fs  p90 %.2fs  max %.2fs\n",
			r.Delay.P50, r.Delay.P90, r.Delay.Max)
	}
	fmt.Fprintf(&b, "  delivery ratio:  mean %.2f over %d subscriptions (%.2f above 0.80)\n",
		r.Ratio.Mean, r.Ratio.Subscriptions, r.Ratio.Above80)
	fmt.Fprintf(&b, "  evictions:       %d (%d workload)\n", r.Evictions, r.TrackedEvictions)
	if c := r.Chaos; c != nil {
		fmt.Fprintf(&b, "  chaos (%s):      dropped %d  duplicated %d  reordered %d  delayed %d  oneway %d  partitions %d/%d\n",
			c.Profile, c.FramesDropped, c.FramesDuplicated, c.FramesReordered,
			c.FramesDelayed, c.OneWayDrops, c.PartitionsStarted, c.PartitionsHealed)
	}
	if r.Mode != ModeSim { // the simulator has no telemetry stream: the line would read 0
		fmt.Fprintf(&b, "  telemetry:       %d events from %d nodes (%d retransmits discarded)\n",
			r.Telemetry.Events, r.Telemetry.Nodes, r.Telemetry.Duplicates)
	}
	var dropped float64
	for _, n := range r.Nodes {
		dropped += n.Metrics["sos_telemetry_dropped_total"]
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "  exporter drops:  %v events lost before aggregation\n", dropped)
	}
	if len(r.Paths) > 0 {
		fmt.Fprintf(&b, "  paths:           %d delivery chains traced hop-by-hop\n", len(r.Paths))
	}
	if v := r.ObservabilityViolations(); len(v) > 0 {
		fmt.Fprintf(&b, "  OBSERVABILITY VIOLATIONS:\n")
		for _, line := range v {
			fmt.Fprintf(&b, "    - %s\n", line)
		}
	}
	if r.Study != nil {
		b.WriteString("\n")
		r.writeStudy(&b)
	}
	return b.String()
}

// writeStudy renders the Gainesville section: every §VI number next to
// the paper's value.
func (r *Report) writeStudy(b *strings.Builder) {
	st := r.Study
	row := func(name, paper, measured string) {
		fmt.Fprintf(b, "  %-34s %10s %10s\n", name, paper, measured)
	}
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	// at finds the table row for x (an hour or a ratio).
	at := func(rows [][3]float64, x float64) [3]float64 {
		for _, row := range rows {
			if row[0] == x {
				return row
			}
		}
		return [3]float64{}
	}
	fmt.Fprintf(b, "AlleyOop Social in-silico field study — scheme=%s seed=%d users=%d days=%d\n\n",
		r.Scheme, r.Spec.Seed, r.NodeCount, r.Duration.D()/(24*time.Hour))

	g := st.Graph
	fmt.Fprintln(b, "== Fig. 4a / §VI-A: social relationship graph ==")
	row("metric", "paper", "measured")
	row("active users n", "10", fmt.Sprint(g.Nodes))
	row("density", "0.64", f2(g.Density))
	row("avg shortest path length", "1.3", f2(g.AvgPathLength))
	row("diameter", "2", fmt.Sprint(g.Diameter))
	row("radius", "1", fmt.Sprint(g.Radius))
	row("center nodes", "{6,7}", fmt.Sprint(g.Center))
	row("transitivity T(G)", "0.80", f2(g.Transitivity))

	fmt.Fprintln(b, "\n== §VI workload scalars ==")
	row("unique messages posted", "259", fmt.Sprint(r.Created))
	row("in-app subscription actions", "46", fmt.Sprint(st.Follows))
	row("user-to-user disseminations", "967", fmt.Sprint(r.Disseminations))
	row("study area (km^2)", "88", "88")

	d24, d94 := at(st.DelayCDF, 24), at(st.DelayCDF, 94)
	fmt.Fprintln(b, "\n== Fig. 4c: delivery delay CDF ==")
	row("All:   P(delay <= 24h)", "0.43", f2(d24[1]))
	row("All:   P(delay <= 94h)", "0.90", f2(d94[1]))
	row("1-hop: P(delay <= 24h)", "0.44", f2(d24[2]))
	row("1-hop: P(delay <= 94h)", "0.92", f2(d94[2]))
	fmt.Fprintln(b, "\n  delay CDF series (hours -> fraction delivered):")
	fmt.Fprintf(b, "  %8s %8s %8s\n", "hours", "All", "1-hop")
	for _, p := range st.DelayCDF {
		fmt.Fprintf(b, "  %8.0f %8.2f %8.2f\n", p[0], p[1], p[2])
	}

	fmt.Fprintln(b, "\n== Fig. 4d: delivery ratio per subscription ==")
	row("All:   frac subs ratio > 0.80", "0.30", f2(at(st.RatioAbove, 0.8)[1]))
	row("All:   frac subs ratio > 0.70", "0.50", f2(at(st.RatioAbove, 0.7)[1]))
	row("1-hop: frac subs ratio >= 0.80", "0.25", f2(st.OneHopAtLeast80))
	row("deliveries made in 1 hop", "0.826", fmt.Sprintf("%.3f", r.OneHopShare))
	fmt.Fprintln(b, "\n  delivery-ratio distribution (ratio -> frac subs above):")
	fmt.Fprintf(b, "  %8s %8s %8s\n", "ratio", "All", "1-hop")
	for _, p := range st.RatioAbove {
		fmt.Fprintf(b, "  %8.1f %8.2f %8.2f\n", p[0], p[1], p[2])
	}

	fmt.Fprintln(b, "\n== Fig. 4b: activity map ==")
	fmt.Fprintf(b, "  message generation events (blue): %d\n", st.Generated)
	fmt.Fprintf(b, "  message dissemination events (red): %d\n", st.Passed)
	fmt.Fprintf(b, "  activity bounding box: (%.0f, %.0f) – (%.0f, %.0f) m of 11000 x 8000 m\n",
		st.AreaMin.X, st.AreaMin.Y, st.AreaMax.X, st.AreaMax.Y)
	fmt.Fprintf(b, "  radio contacts during study: %d\n", st.Contacts)

	fmt.Fprintln(b, "\n== middleware internals ==")
	fmt.Fprintf(b, "  authenticated handshakes: %d  (cert rejections: %d)\n", st.Handshakes, st.CertRejections)
	fmt.Fprintf(b, "  requests cut off by contact loss: %d (all re-planned at later encounters)\n", st.TransfersAborted)
	fmt.Fprintf(b, "  signature/certificate verification failures: %d\n", st.VerifyFailures)
	fmt.Fprintf(b, "  frames delivered: %d (%.1f MiB), dropped in flight: %d\n",
		st.Medium.FramesDelivered, float64(st.Medium.BytesDelivered)/(1<<20), st.Medium.FramesDropped)
}

// WriteStudyCSV writes the raw series behind a Gainesville run's Fig. 4
// into dir: the geo events (fig4b_map.csv), the delay CDFs in hours
// (fig4c_delay_all.csv, fig4c_delay_1hop.csv), the per-subscription
// delivery-ratio CDFs (fig4d_ratio_all.csv, fig4d_ratio_1hop.csv) and
// the radio contact log (contacts.csv).
func (r *Report) WriteStudyCSV(dir string) error {
	if r.recorder == nil {
		return fmt.Errorf("lab: report %q has no study series", r.Name)
	}
	delays := func(f metrics.HopFilter) func(io.Writer) error {
		return func(w io.Writer) error { return r.col.DelayCDF(f).WriteCSV(w, "delay_hours") }
	}
	ratios := func(f metrics.HopFilter) func(io.Writer) error {
		return func(w io.Writer) error {
			return metrics.NewCDF(r.col.DeliveryRatios(r.subs, f)).WriteCSV(w, "delivery_ratio")
		}
	}
	for name, write := range map[string]func(io.Writer) error{
		"fig4b_map.csv":        r.recorder.WriteGeoCSV,
		"fig4c_delay_all.csv":  delays(metrics.AllHops),
		"fig4c_delay_1hop.csv": delays(metrics.OneHop),
		"fig4d_ratio_all.csv":  ratios(metrics.AllHops),
		"fig4d_ratio_1hop.csv": ratios(metrics.OneHop),
		"contacts.csv":         r.recorder.WriteContactCSV,
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
			return fmt.Errorf("lab: %w", err)
		}
	}
	return nil
}
