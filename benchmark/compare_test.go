package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "goodput", Better: "higher", Bound: 0.10}
	// drifting is a machine that slows by half over five runs.
	drifting := func(center float64) []float64 {
		return []float64{center, center * 1.1, center * 1.2, center * 1.35, center * 1.5}
	}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center}
	}
	cases := []struct {
		name           string
		spec           metricSpec
		parent, change []float64
		want           string
	}{
		{"unchanged", lower, tight(100), tight(100), verdictOK},
		{"5% worse, inside the bound", lower, tight(100), tight(105), verdictOK},
		{"20% worse", lower, tight(100), tight(120), verdictRegressed},
		{"20% better", lower, tight(100), tight(80), verdictOK},
		{"goodput 20% lower", higher, tight(100), tight(80), verdictRegressed},
		{"goodput 20% higher", higher, tight(100), tight(120), verdictOK},
		{"unchanged on a drifting machine", lower, drifting(100), drifting(102), verdictOK},
		{"20% worse on a drifting machine", lower, drifting(100), drifting(120), verdictRegressed},
		{"pairs disagree by more than the bound", lower, tight(100), []float64{80, 125, 95, 130, 104}, verdictUnresolved},
		{"pairs disagree but every run is worse", lower, tight(100), []float64{150, 300, 200, 400, 250}, verdictRegressed},
		{"pairs disagree but every run is better", lower, []float64{150, 300, 200, 400, 250}, tight(100), verdictOK},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.spec, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestParseRunReadsTheRecord(t *testing.T) {
	out := []byte("contact-steady seed=1\n  setup_s 0.2 s\nfailure {\"op\":\"post x#1\"}\n" +
		`record {"workload":"contact-steady","seed":1,"attempted":10,"failed":1,"metrics":{"sync_latency_p50_ms":{"value":0.25,"unit":"ms"}}}` + "\n" +
		`{"correct":false,"attempted":10,"failed":1,"metrics":{"setup_s":{"value":0.2,"unit":"s"}}}` + "\n")
	rec, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != wlSteady || rec.Attempted != 10 || rec.Failed != 1 || rec.Metrics["sync_latency_p50_ms"].Value != 0.25 {
		t.Fatalf("parsed %+v", rec)
	}
	if _, err := parseRun([]byte("no record here\n")); err == nil {
		t.Fatal("a run without a record must not parse")
	}
}

// TestFailedShareComparesTotals: one failed operation in any run of the
// change is a regression, whatever the medians say.
func TestFailedShareComparesTotals(t *testing.T) {
	set := func(failed ...int) *runSet {
		s := &runSet{}
		for _, f := range failed {
			s.Runs = append(s.Runs, runRecord{
				Workload: wlSteady, Attempted: 100, Failed: f,
				Metrics: map[string]metricValue{failedShare: {Value: float64(f) / 100}},
			})
		}
		return s
	}
	if regressed, _ := compareSets(set(0, 0, 0), set(0, 0, 0)); regressed != 0 {
		t.Errorf("no failures on either side: %d rows regressed", regressed)
	}
	if regressed, _ := compareSets(set(0, 0, 0), set(0, 1, 0)); regressed != 1 {
		t.Errorf("one failure in the change: %d rows regressed, want 1", regressed)
	}
}
