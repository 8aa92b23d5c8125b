package lab

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sos/internal/clock"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/msg"
	"sos/internal/telemetry"
)

func TestSpecDefaultsAndValidation(t *testing.T) {
	spec, err := parseSpec([]byte(`{"nodes": 3, "duration": "2s"}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	if got := spec.Handles; len(got) != 3 || got[0] != "n1" || got[2] != "n3" {
		t.Fatalf("handles = %v", got)
	}
	if spec.Scheme != "epidemic" || spec.Posts != 3 {
		t.Fatalf("defaults: scheme=%q posts=%d", spec.Scheme, spec.Posts)
	}
	if spec.PostWindow.D() != 2*time.Second*2/3 {
		t.Fatalf("postWindow = %s", spec.PostWindow)
	}

	bad := []string{
		`{"nodes": 1, "duration": "2s"}`,                                                 // too small
		`{"nodes": 3}`,                                                                   // no duration
		`{"nodes": 3, "duration": "2s", "graph": "torus"}`,                               // unknown preset
		`{"nodes": 3, "duration": "2s", "edges": [[1,4]]}`,                               // out of range
		`{"nodes": 3, "duration": "2s", "edges": [[2,2]]}`,                               // self-loop
		`{"nodes": 3, "duration": "2s", "churn": [{"at":"1s","node":"nx","op":"down"}]}`, // unknown node
		`{"nodes": 3, "duration": "2s", "churn": [{"at":"1s","node":"n1","op":"poke"}]}`, // unknown op
		`{"nodes": 3, "duration": "2s", "store": {"policy": "bogus"}}`,                   // unknown policy
		`{"nodes": 3, "duration": "2s", "store": {"policy": "ttl"}}`,                     // ttl policy without a relayTTL
		`{"nodes": 3, "duration": "2s", "store": {"relayTTL": "-1h"}}`,                   // negative relayTTL
		`{"nodes": 3, "duration": "2s", "bogus": 1}`,                                     // unknown field
		`{"handles": ["a","a"], "duration": "2s"}`,                                       // duplicate handle
	}
	for _, raw := range bad {
		if _, err := parseSpec([]byte(raw)); err == nil {
			t.Errorf("parseSpec(%s) succeeded, want error", raw)
		}
	}
}

func TestSpecFollowEdges(t *testing.T) {
	spec := &Spec{Nodes: 3, Handles: []string{"a", "b", "c"}, Graph: "ring", Edges: [][2]int{{1, 3}, {2, 1}}}
	got := spec.FollowEdges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}}
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}

	full := &Spec{Nodes: 3, Handles: []string{"a", "b", "c"}, Graph: "full"}
	if got := len(full.FollowEdges()); got != 6 {
		t.Fatalf("full graph edges = %d, want 6", got)
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	for raw, want := range map[string]time.Duration{
		`"1m30s"`:    90 * time.Second,
		`"250ms"`:    250 * time.Millisecond,
		`5000000000`: 5 * time.Second,
	} {
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if d.D() != want {
			t.Fatalf("unmarshal %s = %s, want %s", raw, d, want)
		}
	}
	out, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(out) != `"1m30s"` {
		t.Fatalf("marshal = %s, %v", out, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// delivery is the comparable projection of one delivery record.
type delivery struct {
	ref  msg.Ref
	to   id.UserID
	hops uint16
}

func deliverySet(col *metrics.Collector) []delivery {
	records := col.Deliveries(metrics.AllHops)
	out := make([]delivery, 0, len(records))
	for _, d := range records {
		out = append(out, delivery{ref: d.Ref, to: d.To, hops: d.Hops})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ref.Author != out[j].ref.Author {
			return out[i].ref.Author.String() < out[j].ref.Author.String()
		}
		if out[i].ref.Seq != out[j].ref.Seq {
			return out[i].ref.Seq < out[j].ref.Seq
		}
		return out[i].to.String() < out[j].to.String()
	})
	return out
}

// TestInProcessEndToEnd is the acceptance test: a 3-node in-process
// fleet over loopback NetMedium with a churn schedule, every node
// streaming telemetry over real TCP. The metrics aggregated from those
// streams must match a metrics.Collector observing the same run directly
// — no lost or duplicated events — and the report must be well-formed.
func TestInProcessEndToEnd(t *testing.T) {
	spec, err := parseSpec([]byte(`{
		"name": "smoke3",
		"nodes": 3,
		"scheme": "epidemic",
		"graph": "full",
		"posts": 6,
		"duration": "4s",
		"postWindow": "2s",
		"beaconInterval": "50ms",
		"churn": [
			{"at": "1s",    "node": "n3", "op": "down"},
			{"at": "2s",    "node": "n3", "op": "up"}
		],
		"seed": 42
	}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}

	// The direct witness: a second aggregator fed synchronously by an
	// extra observer on every node, bypassing codec, TCP, and exporter.
	direct := telemetry.NewAggregator()
	report, err := Run(spec, Options{
		Logf:             t.Logf,
		TimelineInterval: 500 * time.Millisecond,
		ExtraObserver: func(_ string, user id.UserID) core.Observer {
			return telemetry.NewObserver(user, clock.System(), direct)
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if report.PostsExecuted != 6 || report.Created != 6 {
		t.Fatalf("posts executed=%d created=%d, want 6", report.PostsExecuted, report.Created)
	}
	if report.Deliveries == 0 {
		t.Fatal("no deliveries in a full-graph epidemic fleet")
	}
	if report.Disseminations == 0 {
		t.Fatal("no disseminations recorded")
	}
	if report.Telemetry.Duplicates != 0 {
		t.Fatalf("telemetry retransmits on a healthy link: %d", report.Telemetry.Duplicates)
	}
	for _, n := range report.Nodes {
		if v := n.Metrics["sos_telemetry_dropped_total"]; v != 0 {
			t.Fatalf("node %s dropped %v telemetry events", n.Handle, v)
		}
		if _, ok := n.Metrics["sos_message_received_total"]; !ok {
			t.Fatalf("node %s missing middleware stats", n.Handle)
		}
		if len(n.Metrics) == 0 {
			t.Fatalf("node %s missing /metrics snapshot", n.Handle)
		}
		if n.Metrics["sos_telemetry_recorded_total"] == 0 {
			t.Fatalf("node %s snapshot shows no telemetry recorded: %v", n.Handle, n.Metrics)
		}
	}
	if v := report.ObservabilityViolations(); len(v) != 0 {
		t.Fatalf("observability violations: %v", v)
	}
	if len(report.Paths) == 0 {
		t.Fatal("no hop-by-hop paths traced")
	}
	if len(report.Paths) != report.Deliveries {
		t.Fatalf("traced %d paths for %d deliveries", len(report.Paths), report.Deliveries)
	}
	for _, p := range report.Paths {
		if len(p.Hops) == 0 {
			t.Fatalf("path %s→%s has no hops", p.Ref, p.Dest)
		}
		if p.Hops[len(p.Hops)-1].To != p.Dest {
			t.Fatalf("path %s does not end at its destination %s: %+v", p.Ref, p.Dest, p.Hops)
		}
	}

	// The walk sampled the live fleet: the delivery column adds up to the
	// report, the aggregator's dissemination count only grows, and the
	// sync plane's bytes show up.
	if len(report.Timeline) == 0 {
		t.Fatal("no timeline sampled")
	}
	last := report.Timeline[len(report.Timeline)-1]
	if last.CumulativeDeliveries != report.Deliveries {
		t.Fatalf("final cumulative deliveries %d, want %d", last.CumulativeDeliveries, report.Deliveries)
	}
	summaryBytes := false
	for i, p := range report.Timeline {
		if i > 0 && p.Disseminations < report.Timeline[i-1].Disseminations {
			t.Fatalf("disseminations fell at %.1fs: %+v", p.OffsetSeconds, report.Timeline)
		}
		summaryBytes = summaryBytes || p.SummaryBytes > 0
	}
	if last.Disseminations == 0 || !summaryBytes {
		t.Fatalf("timeline gauges never read the fleet: %+v", report.Timeline)
	}

	// The live-aggregated series must equal the directly observed ones.
	live := report.col
	dcol := direct.Collector()
	if got, want := live.CreatedCount(), dcol.CreatedCount(); got != want {
		t.Fatalf("created: live %d, direct %d", got, want)
	}
	if got, want := live.Disseminations(), dcol.Disseminations(); got != want {
		t.Fatalf("disseminations: live %d, direct %d", got, want)
	}
	if got, want := live.Evictions(), dcol.Evictions(); got != want {
		t.Fatalf("evictions: live %d, direct %d", got, want)
	}
	liveDel, directDel := deliverySet(live), deliverySet(dcol)
	if len(liveDel) != len(directDel) {
		t.Fatalf("deliveries: live %d, direct %d", len(liveDel), len(directDel))
	}
	for i := range liveDel {
		if liveDel[i] != directDel[i] {
			t.Fatalf("delivery %d differs: live %+v, direct %+v", i, liveDel[i], directDel[i])
		}
	}

	// The report must survive a JSON round trip.
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if back.Deliveries != report.Deliveries || back.Name != "smoke3" {
		t.Fatalf("report round trip mismatch: %+v", back)
	}
	var csv bytes.Buffer
	if err := report.WriteDelayCSV(&csv); err != nil {
		t.Fatalf("WriteDelayCSV: %v", err)
	}
	if report.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestProcessChildExitFailsStart: a child that exits before its debug
// server reports an address fails the run at start, with its output.
func TestProcessChildExitFailsStart(t *testing.T) {
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skipf("no false binary: %v", err)
	}
	spec, err := parseSpec([]byte(`{"nodes": 2, "duration": "1s"}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	_, err = Run(spec, Options{Mode: ModeProcess, SosdPath: falseBin, Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), "exited before its debug server came up") {
		t.Fatalf("Run = %v, want the child's early exit", err)
	}
}

// TestProcessEndToEnd runs the full in-vivo shape: a 5-node fleet of
// real sosd child processes over loopback NetMedium, with a churn
// schedule that stops and restarts one of them mid-run, aggregated
// entirely from live telemetry streams.
func TestProcessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process experiment in -short mode")
	}
	sosd := filepath.Join(t.TempDir(), "sosd")
	build := exec.Command("go", "build", "-o", sosd, "sos/cmd/sosd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build sosd (%v): %s", err, out)
	}

	spec, err := parseSpec([]byte(`{
		"name": "fleet5",
		"nodes": 5,
		"scheme": "epidemic",
		"graph": "ring",
		"posts": 5,
		"duration": "7s",
		"postWindow": "3s",
		"beaconInterval": "100ms",
		"churn": [
			{"at": "1500ms", "node": "n2", "op": "down"},
			{"at": "3500ms", "node": "n2", "op": "up"}
		],
		"seed": 7
	}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	report, err := Run(spec, Options{Mode: ModeProcess, SosdPath: sosd, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if report.Mode != ModeProcess || report.NodeCount != 5 {
		t.Fatalf("report header: %+v", report)
	}
	if report.PostsExecuted == 0 {
		t.Fatal("no posts executed")
	}
	if report.Deliveries == 0 {
		t.Fatal("no deliveries across the process fleet")
	}
	if report.Disseminations == 0 {
		t.Fatal("no disseminations recorded")
	}
	if report.Delay.Count != report.Deliveries {
		t.Fatalf("delay samples %d != deliveries %d", report.Delay.Count, report.Deliveries)
	}
	if report.Ratio.Subscriptions == 0 {
		t.Fatal("no delivery-ratio series")
	}
	if report.Telemetry.Nodes != 5 {
		t.Fatalf("telemetry saw %d nodes, want 5", report.Telemetry.Nodes)
	}
	var restarted bool
	for _, n := range report.Nodes {
		if n.Handle == "n2" && n.Restarts == 1 {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("n2 restart not recorded: %+v", report.Nodes)
	}
	if v := report.ObservabilityViolations(); len(v) != 0 {
		t.Fatalf("observability violations: %v", v)
	}
	// Every running child was scraped over HTTP before teardown; the
	// survivors must expose live transport counters.
	scraped := 0
	for _, n := range report.Nodes {
		if len(n.Metrics) == 0 {
			continue
		}
		scraped++
		if n.Metrics[`sos_net_beacons_total{dir="sent"}`] == 0 {
			t.Errorf("node %s scrape shows no beacons sent", n.Handle)
		}
	}
	if scraped < report.NodeCount-1 {
		t.Fatalf("scraped %d of %d child /metrics endpoints", scraped, report.NodeCount)
	}
	if len(report.Paths) == 0 {
		t.Fatal("no hop-by-hop paths traced across the process fleet")
	}
}
