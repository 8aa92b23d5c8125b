package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"sos/internal/metrics"
	"sos/internal/obs"
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

	Telemetry telemetry.AggregatorStats `json:"telemetry"`
	Nodes     []NodeReport              `json:"nodes"`
	// Paths holds one relay chain per delivery, when the run traced
	// message paths (live modes).
	Paths []MessagePath `json:"paths,omitempty"`

	Spec *Spec `json:"spec"`

	// col is the live aggregated collector the series were computed
	// from, for callers (and tests) that want the raw records.
	col *metrics.Collector
}

// Collector returns the aggregated collector behind the report.
func (r *Report) Collector() *metrics.Collector { return r.col }

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
	if _, err := fmt.Fprintln(w, "seconds,cdf"); err != nil {
		return fmt.Errorf("lab: writing csv: %w", err)
	}
	for _, p := range r.DelayCDF {
		if _, err := fmt.Fprintf(w, "%.6f,%.6f\n", p[0], p[1]); err != nil {
			return fmt.Errorf("lab: writing csv: %w", err)
		}
	}
	return nil
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
	fmt.Fprintf(&b, "  telemetry:       %d events from %d nodes (%d retransmits discarded)\n",
		r.Telemetry.Events, r.Telemetry.Nodes, r.Telemetry.Duplicates)
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
	return b.String()
}
