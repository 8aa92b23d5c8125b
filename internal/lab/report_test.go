package lab

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/msg"
	"sos/internal/telemetry"
)

// healthyReport builds a report that upholds every observability
// invariant: nothing dropped, every node heard from, every ingested
// event accounted for by a type counter.
func healthyReport() *Report {
	return &Report{
		NodeCount: 2,
		Nodes:     []NodeReport{{Handle: "alice"}, {Handle: "bob"}},
		Telemetry: telemetry.AggregatorStats{
			Events:       5,
			Created:      1,
			Disseminated: 2,
			Delivered:    1,
			Contacts:     1,
			Nodes:        2,
		},
	}
}

// TestSummaryTelemetryLineLiveOnly: a live run's summary says how many
// telemetry events reached the aggregator; a sim run, which fills the
// collector directly, has no stream to count and prints no line for it.
func TestSummaryTelemetryLineLiveOnly(t *testing.T) {
	for _, tc := range []struct {
		mode string
		want bool
	}{{ModeInProcess, true}, {ModeProcess, true}, {ModeSim, false}} {
		r := healthyReport()
		r.Mode = tc.mode
		if got := strings.Contains(r.Summary(), "telemetry:"); got != tc.want {
			t.Errorf("%s summary has a telemetry line: %v, want %v\n%s", tc.mode, got, tc.want, r.Summary())
		}
	}
}

func TestObservabilityViolationsClean(t *testing.T) {
	if v := healthyReport().ObservabilityViolations(); len(v) != 0 {
		t.Errorf("healthy report reports violations: %v", v)
	}
}

func TestObservabilityViolationsNodeDropped(t *testing.T) {
	r := healthyReport()
	r.Nodes[1].Metrics = map[string]float64{"sos_telemetry_dropped_total": 3}
	v := r.ObservabilityViolations()
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(v), v)
	}
	if !strings.Contains(v[0], "bob") || !strings.Contains(v[0], "3") {
		t.Errorf("violation does not name the node and count: %q", v[0])
	}
}

func TestObservabilityViolationsScrapedDropped(t *testing.T) {
	// A child daemon's scraped exposition is read the same way: the
	// drop is named with its source.
	r := healthyReport()
	r.Nodes[0].Metrics = map[string]float64{"sos_telemetry_dropped_total": 2}
	v := r.ObservabilityViolations()
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(v), v)
	}
	if !strings.Contains(v[0], "alice") || !strings.Contains(v[0], "/metrics") {
		t.Errorf("violation does not name the node and source: %q", v[0])
	}
	// A zero series is healthy, not a violation.
	r.Nodes[0].Metrics["sos_telemetry_dropped_total"] = 0
	if v := r.ObservabilityViolations(); len(v) != 0 {
		t.Errorf("zero dropped series flagged: %v", v)
	}
}

func TestObservabilityViolationsQuarantine(t *testing.T) {
	// Every mode reports the quarantine series; a node naming one is a
	// violation.
	r := healthyReport()
	r.Nodes[0].Metrics = map[string]float64{"sos_sync_quarantine_total": 2}
	r.Nodes[1].Metrics = map[string]float64{"sos_sync_quarantine_total": 1}
	v := r.ObservabilityViolations()
	if len(v) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(v), v)
	}
	if !strings.Contains(v[0], "alice") || !strings.Contains(v[0], "2") || !strings.Contains(v[1], "bob") {
		t.Errorf("violations do not name the nodes and counts: %q", v)
	}
}

// TestObservabilityViolationsOneLinePerDrop reads a node record as the
// in-process mode writes it, exporter counter and /metrics snapshot side
// by side: one drop is one violation line, not one per place it shows.
func TestObservabilityViolationsOneLinePerDrop(t *testing.T) {
	var n NodeReport
	if err := json.Unmarshal([]byte(`{"handle":"alice","telemetryDropped":3,"metrics":{"sos_telemetry_dropped_total":3}}`), &n); err != nil {
		t.Fatal(err)
	}
	r := healthyReport()
	r.Nodes[0] = n
	if v := r.ObservabilityViolations(); len(v) != 1 {
		t.Fatalf("got %d violations for one drop, want 1: %v", len(v), v)
	}
}

func TestObservabilityViolationsMissingNodes(t *testing.T) {
	r := healthyReport()
	r.Telemetry.Nodes = 1
	v := r.ObservabilityViolations()
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(v), v)
	}
	if !strings.Contains(v[0], "1 of 2") {
		t.Errorf("violation does not state the node shortfall: %q", v[0])
	}

	// A fleet that produced no events at all makes no claim about
	// coverage — silence is not a missing node.
	quiet := healthyReport()
	quiet.Telemetry = telemetry.AggregatorStats{}
	if v := quiet.ObservabilityViolations(); len(v) != 0 {
		t.Errorf("eventless report flagged: %v", v)
	}
}

func TestObservabilityViolationsUnaccountedEvents(t *testing.T) {
	r := healthyReport()
	r.Telemetry.Events = 6 // one ingested event no type counter explains
	v := r.ObservabilityViolations()
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(v), v)
	}
	if !strings.Contains(v[0], "5") || !strings.Contains(v[0], "6") {
		t.Errorf("violation does not show both sums: %q", v[0])
	}
}

func TestObservabilityViolationsAccumulate(t *testing.T) {
	r := healthyReport()
	r.Nodes[0].Metrics = map[string]float64{"sos_telemetry_dropped_total": 1}
	r.Telemetry.Nodes = 1
	r.Telemetry.Events = 9
	if v := r.ObservabilityViolations(); len(v) != 3 {
		t.Errorf("got %d violations, want 3 independent lines: %v", len(v), v)
	}
}

// TestTimelineFinalCumulativeEqualsDeliveries pins the timeline
// invariant soslab's acceptance relies on: deliveries are bucketed from
// the same aggregated records Report.Deliveries counts, so the final
// cumulative row always matches, including deliveries recorded past the
// nominal elapsed window (clamped into the tail bucket).
func TestTimelineFinalCumulativeEqualsDeliveries(t *testing.T) {
	col := metrics.NewCollector()
	ref := msg.Ref{Author: id.NewUserID("alice"), Seq: 1}
	start := time.Unix(1700000000, 0).UTC()
	col.MessageCreated(ref, start)
	col.Delivered(ref, id.NewUserID("bob"), start.Add(500*time.Millisecond), 1)
	col.Delivered(ref, id.NewUserID("carol"), start.Add(2500*time.Millisecond), 2)
	col.Delivered(ref, id.NewUserID("dave"), start.Add(10*time.Second), 1) // past elapsed

	r := &Report{Deliveries: 3, col: col}
	samples := []timelineSample{
		{at: 1500 * time.Millisecond, disseminations: 7, exporterQueue: 2},
	}
	attachTimeline(r, start, time.Second, 3*time.Second, samples)

	if len(r.Timeline) != 3 {
		t.Fatalf("got %d intervals, want 3", len(r.Timeline))
	}
	if r.Timeline[0].Deliveries != 1 {
		t.Errorf("interval 0 deliveries = %d, want 1", r.Timeline[0].Deliveries)
	}
	if r.Timeline[2].Deliveries != 2 {
		t.Errorf("tail interval deliveries = %d, want 2 (one in-window, one clamped)", r.Timeline[2].Deliveries)
	}
	if got := r.Timeline[len(r.Timeline)-1].CumulativeDeliveries; got != r.Deliveries {
		t.Errorf("final cumulative = %d, want Report.Deliveries = %d", got, r.Deliveries)
	}
	if r.Timeline[1].Disseminations != 7 || r.Timeline[1].ExporterQueue != 2 {
		t.Errorf("gauge sample not folded into its bucket: %+v", r.Timeline[1])
	}

	var b strings.Builder
	if err := r.WriteTimelineCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv has %d lines, want header + 3 rows:\n%s", len(lines), b.String())
	}
	if lines[0] != "offsetSeconds,deliveries,cumulativeDeliveries,disseminations,exporterQueue,syncEntries,summaryBytes,payloadBytes" {
		t.Errorf("csv header drifted: %q", lines[0])
	}
	if lines[3] != "2.000,2,3,0,0,0,0,0" {
		t.Errorf("final csv row = %q, want cumulative 3", lines[3])
	}
}
