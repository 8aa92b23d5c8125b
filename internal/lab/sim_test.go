package lab

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// simSpec is a dense 24-node random-waypoint experiment small enough for
// the unit suite: a few virtual hours, a random social graph, churn on
// one node.
const simSpec = `{
	"name": "sim-unit",
	"nodes": 24,
	"scheme": "epidemic",
	"graph": "random",
	"degree": 3,
	"posts": 12,
	"duration": "2h",
	"postWindow": "80m",
	"seed": 99,
	"mobility": {"areaW": 400, "areaH": 400, "tick": "30s", "speedMin": 1, "speedMax": 3},
	"churn": [
		{"at": "10m", "node": "n7", "op": "down"},
		{"at": "60m", "node": "n7", "op": "up"}
	]
}`

func TestSimModeEndToEnd(t *testing.T) {
	run := func() *Report {
		spec, err := parseSpec([]byte(simSpec))
		if err != nil {
			t.Fatalf("parseSpec: %v", err)
		}
		rep, err := Run(spec, Options{Mode: ModeSim, Logf: t.Logf})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	rep := run()
	if rep.Mode != ModeSim {
		t.Errorf("mode = %q", rep.Mode)
	}
	if rep.Created == 0 || rep.PostsExecuted == 0 {
		t.Fatalf("no posts executed: %+v", rep)
	}
	if rep.Deliveries == 0 {
		t.Error("dense 2h fleet delivered nothing")
	}
	if rep.Ratio.Subscriptions == 0 {
		t.Error("no delivery-ratio series")
	}
	if rep.Delay.Count == 0 || len(rep.DelayCDF) == 0 {
		t.Error("no delay series")
	}
	if len(rep.Nodes) != 24 {
		t.Errorf("node reports = %d", len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if _, ok := n.Metrics["sos_message_received_total"]; !ok {
			t.Fatalf("node %s missing middleware stats: %v", n.Handle, n.Metrics)
		}
	}

	// The whole point of virtual time: identical seeds replay the exact
	// series, host-independently.
	rep2 := run()
	if rep.Deliveries != rep2.Deliveries || rep.Disseminations != rep2.Disseminations ||
		rep.Ratio.Mean != rep2.Ratio.Mean {
		t.Errorf("sim mode is not deterministic: %d/%d/%f vs %d/%d/%f",
			rep.Deliveries, rep.Disseminations, rep.Ratio.Mean,
			rep2.Deliveries, rep2.Disseminations, rep2.Ratio.Mean)
	}
	// A sim report starts at the virtual run start, never at the wall
	// clock, so two reports of one seed can be byte-equal.
	want := simMidnight.Add(simDayStart)
	for _, r := range []*Report{rep, rep2} {
		if !r.StartedAt.Equal(want) {
			t.Errorf("StartedAt = %v, want the virtual start %v", r.StartedAt, want)
		}
	}
}

// TestSimModeChurnSkipsPosts: a post scheduled while its author is
// churned down does not happen (the live-mode rule, at virtual time).
func TestSimModeChurnSkipsPosts(t *testing.T) {
	spec, err := parseSpec([]byte(`{
		"name": "churny", "nodes": 2, "duration": "1h", "posts": 4, "postWindow": "30m",
		"seed": 5, "graph": "full",
		"mobility": {"areaW": 50, "areaH": 50},
		"churn": [{"at": "0s", "node": "n1", "op": "down"}]
	}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	rep, err := Run(spec, Options{Mode: ModeSim})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// n1 authors posts 1 and 3 (round-robin) but is down the whole run.
	if rep.PostsSkipped != 2 {
		t.Errorf("postsSkipped = %d, want 2", rep.PostsSkipped)
	}
	if rep.PostsExecuted != 2 {
		t.Errorf("postsExecuted = %d, want 2", rep.PostsExecuted)
	}
}

func TestSimModeTraceReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "contacts.csv")
	data := "node,peer,op,at\n" +
		"n1,n2,up,60\n" +
		"n1,n2,down,600\n" +
		"n2,n3,up,1200\n" +
		"n2,n3,down,1800\n"
	if err := os.WriteFile(trace, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := parseSpec([]byte(fmt.Sprintf(`{
		"name": "trace-unit", "nodes": 3, "scheme": "epidemic",
		"edges": [[3,1]], "posts": 1, "duration": "40m", "postWindow": "1m",
		"seed": 31, "trace": %q
	}`, trace)))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	rep, err := Run(spec, Options{Mode: ModeSim, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// n1 posts at t≈0; the scripted contacts carry it n1→n2 then n2→n3,
	// and n3 follows n1: exactly one two-hop delivery.
	if rep.Deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", rep.Deliveries)
	}
	if rep.OneHopDeliveries != 0 {
		t.Errorf("one-hop deliveries = %d, want 0 (trace forces two hops)", rep.OneHopDeliveries)
	}
}

func TestSimOnlyFieldsRejectedInLiveModes(t *testing.T) {
	spec, err := parseSpec([]byte(`{
		"nodes": 2, "duration": "1s",
		"mobility": {"areaW": 100, "areaH": 100}
	}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	if _, err := Run(spec, Options{Mode: ModeInProcess}); err == nil {
		t.Error("in-process run accepted a sim-only spec")
	}
	if _, err := Run(spec, Options{Mode: ModeProcess}); err == nil {
		t.Error("process run accepted a sim-only spec")
	}
}

// TestSimModeRejectsDiskEngine: the store engine follows the mode, so a
// spec asking sim mode for the disk engine is refused at parse, by the
// field's name, and never reaches a run.
func TestSimModeRejectsDiskEngine(t *testing.T) {
	_, err := parseSpec([]byte(`{
		"nodes": 2, "duration": "1m", "store": {"engine": "disk"},
		"mobility": {"areaW": 50, "areaH": 50}
	}`))
	if err == nil || !strings.Contains(err.Error(), `"engine"`) {
		t.Errorf("err = %v, want a refusal naming \"engine\"", err)
	}
}

func TestSpecValidationSimFields(t *testing.T) {
	for name, c := range map[string]struct{ raw, want string }{
		// Random waypoint is the one synthetic model, so the mobility
		// block has no model field: naming one is refused by its name.
		"bad-model":  {`{"nodes": 2, "duration": "1m", "mobility": {"model": "random-waypoint"}}`, `"model"`},
		"bad-speeds": {`{"nodes": 2, "duration": "1m", "mobility": {"speedMin": 3, "speedMax": 1}}`, "speed"},
		"bad-degree": {`{"nodes": 3, "duration": "1m", "graph": "random", "degree": -1}`, "degree"},
		// The buffer is bounded in messages, the loss timeout is 3.5
		// beacon intervals and chaos is a sweep axis: none is a spec
		// field, so naming one is refused by its name.
		"quotaBytes":  {`{"nodes": 2, "duration": "1m", "store": {"quotaBytes": 4096}}`, `"quotaBytes"`},
		"lossTimeout": {`{"nodes": 2, "duration": "1m", "lossTimeout": "1s"}`, `"lossTimeout"`},
		"chaos":       {`{"nodes": 2, "duration": "1m", "chaos": {"profile": "loss10"}}`, `"chaos"`},
	} {
		if _, err := parseSpec([]byte(c.raw)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal naming %s", name, err, c.want)
		}
	}
}

// TestRandomGraphPreset: deterministic under the seed, honors the
// degree, no self-loops.
func TestRandomGraphPreset(t *testing.T) {
	parse := func() *Spec {
		spec, err := parseSpec([]byte(`{"nodes": 40, "duration": "1m", "graph": "random", "degree": 5, "seed": 7}`))
		if err != nil {
			t.Fatalf("parseSpec: %v", err)
		}
		return spec
	}
	a, b := parse().FollowEdges(), parse().FollowEdges()
	if len(a) != 40*5 {
		t.Errorf("edges = %d, want 200", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("random graph differs across identical seeds")
	}
	perNode := make(map[int]int)
	for _, e := range a {
		if e[0] == e[1] {
			t.Fatalf("self-loop %v", e)
		}
		perNode[e[0]]++
	}
	for node, deg := range perNode {
		if deg != 5 {
			t.Errorf("node %d degree %d, want 5", node, deg)
		}
	}
}

// TestLabAndSimCountTheSameDeliveries runs one 3-node full-graph epidemic
// fleet twice, in process over real sockets and in silico over a contact
// trace that links every pair for the whole run. Both count deliveries
// through the same observer path, so both must count every post once per
// follower: posts × (nodes − 1).
func TestLabAndSimCountTheSameDeliveries(t *testing.T) {
	const posts, nodes = 6, 3
	trace := filepath.Join(t.TempDir(), "contacts.csv")
	if err := os.WriteFile(trace, []byte("n1,n2,up,0\nn1,n3,up,0\nn2,n3,up,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode  string
		extra string
	}{
		{ModeInProcess, `"beaconInterval": "50ms"`},
		{ModeSim, fmt.Sprintf(`"trace": %q`, trace)},
	} {
		spec, err := parseSpec([]byte(fmt.Sprintf(`{
			"name": "lab-vs-sim", "nodes": %d, "scheme": "epidemic", "graph": "full",
			"posts": %d, "duration": "5s", "postWindow": "2s", "seed": 42, %s
		}`, nodes, posts, c.extra)))
		if err != nil {
			t.Fatalf("%s: parseSpec: %v", c.mode, err)
		}
		rep, err := Run(spec, Options{Mode: c.mode, Logf: t.Logf})
		if err != nil {
			t.Fatalf("%s: Run: %v", c.mode, err)
		}
		if rep.PostsExecuted != posts {
			t.Fatalf("%s: executed %d posts, want %d", c.mode, rep.PostsExecuted, posts)
		}
		if want := posts * (nodes - 1); rep.Deliveries != want {
			t.Errorf("%s: %d deliveries, want %d", c.mode, rep.Deliveries, want)
		}
	}
}

// TestScenarioSpecValidation: a "gainesville" spec runs in sim mode
// only, builds its own fleet and workload, and runs whole days; each
// refusal names the field at fault.
func TestScenarioSpecValidation(t *testing.T) {
	const base = `"scenario": "gainesville", "nodes": 10, "duration": "48h"`
	spec, err := parseSpec([]byte(`{` + base + `}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("a validated spec fails Validate again: %v", err)
	}
	for _, mode := range []string{ModeInProcess, ModeProcess} {
		if _, err := Run(spec, Options{Mode: mode}); err == nil || !strings.Contains(err.Error(), "scenario") {
			t.Errorf("mode %s: err = %v, want a refusal naming scenario", mode, err)
		}
	}

	for field, extra := range map[string]string{
		"graph":    `"graph": "ring"`,
		"edges":    `"edges": [[1, 2]]`,
		"handles":  `"handles": ["a", "b"]`,
		"posts":    `"posts": 5`,
		"churn":    `"churn": [{"at": "1h", "node": "user01", "op": "down"}]`,
		"mobility": `"mobility": {"areaW": 11000, "areaH": 8000}`,
		"trace":    `"trace": "contacts.csv"`,
		"chaos":    `"chaos": {"profile": "loss10"}`,
		"sweep":    `"sweep": {"schemes": ["epidemic"]}`,
	} {
		_, err := parseSpec([]byte(`{` + base + `, ` + extra + `}`))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", field)) {
			t.Errorf("%s: err = %v, want a refusal naming %q", field, err, field)
		}
	}
	for _, dur := range []string{"36h", "90m"} {
		_, err := parseSpec([]byte(`{"scenario": "gainesville", "nodes": 10, "duration": "` + dur + `"}`))
		if err == nil || !strings.Contains(err.Error(), "duration") {
			t.Errorf("duration %s: err = %v, want a refusal naming duration", dur, err)
		}
	}
	if _, err := parseSpec([]byte(`{"scenario": "haggle", "nodes": 10, "duration": "24h"}`)); err == nil {
		t.Error("an unknown scenario was accepted")
	}
}
