package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWritePromGolden pins the exposition format byte-for-byte: families
// sorted by name, series sorted by label set, HELP/TYPE headers,
// cumulative le buckets with +Inf, _sum and _count. Scrapers (Prometheus
// itself, obs.ParseProm, the lab) all key off this exact shape.
func TestWritePromGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("sos_frames_total", "Frames moved.")
	c.Add(7)
	reg.CounterFunc("sos_evictions_total", "Drops by reason.", Labels{"reason": "capacity"}, func() uint64 { return 2 })
	reg.CounterFunc("sos_evictions_total", "Drops by reason.", Labels{"reason": "expired"}, func() uint64 { return 3 })
	reg.GaugeFunc("sos_queue_depth", "Events queued.", nil, func() float64 { return 4.5 })
	h := reg.Histogram("sos_scrape_seconds", "Scrape time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sos_evictions_total Drops by reason.
# TYPE sos_evictions_total counter
sos_evictions_total{reason="capacity"} 2
sos_evictions_total{reason="expired"} 3
# HELP sos_frames_total Frames moved.
# TYPE sos_frames_total counter
sos_frames_total 7
# HELP sos_queue_depth Events queued.
# TYPE sos_queue_depth gauge
sos_queue_depth 4.5
# HELP sos_scrape_seconds Scrape time.
# TYPE sos_scrape_seconds histogram
sos_scrape_seconds_bucket{le="0.1"} 1
sos_scrape_seconds_bucket{le="1"} 2
sos_scrape_seconds_bucket{le="+Inf"} 3
sos_scrape_seconds_sum 2.55
sos_scrape_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestParsePromRoundTrip checks that everything WriteProm emits comes
// back intact through ParseProm, including +Inf buckets and labels.
func TestParsePromRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.").Add(41)
	reg.GaugeFunc("b", "B.", Labels{"x": "y z", "q": `quo"te`}, func() float64 { return -2.25 })
	h := reg.Histogram("h_seconds", "H.", []float64{1})
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"a_total":                     41,
		`b{q="quo\"te",x="y z"}`:      -2.25,
		`h_seconds_bucket{le="1"}`:    1,
		`h_seconds_bucket{le="+Inf"}`: 2,
		"h_seconds_sum":               3.5,
		"h_seconds_count":             2,
	}
	for k, want := range checks {
		if v, ok := got[k]; !ok || v != want {
			t.Errorf("parsed[%q] = %v, %v; want %v", k, v, ok, want)
		}
	}
}

// TestParsePromExtras covers scraper-facing input WriteProm never emits:
// trailing timestamps, blank lines, and comments.
func TestParsePromExtras(t *testing.T) {
	in := "# a comment\n\nup 1 1712000000000\nlat_bucket{le=\"+Inf\"} +Inf\n"
	got, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["up"] != 1 {
		t.Errorf("up = %v, want 1 (timestamp must be ignored)", got["up"])
	}
	if !math.IsInf(got[`lat_bucket{le="+Inf"}`], 1) {
		t.Errorf("+Inf value not parsed: %v", got[`lat_bucket{le="+Inf"}`])
	}
	if _, err := ParseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("no-value line parsed without error")
	}
}

// TestHistogramBuckets pins le-inclusive bucket semantics: a value equal
// to a bound lands in that bound's bucket.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(99)
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("bucket le=1 holds %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Errorf("bucket le=2 holds %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Errorf("+Inf bucket holds %d, want 1", got)
	}
	if h.Count() != 3 || h.Sum() != 101.5 {
		t.Errorf("count/sum = %d/%v, want 3/101.5", h.Count(), h.Sum())
	}
}

// TestRegistryConcurrency hammers counters, histograms, and the value a
// scrape-time gauge reads from many goroutines while scraping
// concurrently — run under -race, this is the proof the hot paths are
// lock-free and safe.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "C.")
	var g atomic.Int64
	reg.GaugeFunc("g", "G.", nil, func() float64 { return float64(g.Load()) })
	h := reg.Histogram("h_seconds", "H.", DefBuckets)

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) / 10)
			}
		}()
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := reg.WriteProm(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Snapshot()["g"]; got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotMatchesExposition checks the in-process shortcut returns
// the same numbers a loopback HTTP scrape would.
func TestSnapshotMatchesExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "X.").Add(5)
	reg.CounterFunc("y_total", "Y.", Labels{"src": "fn"}, func() uint64 { return 6 })

	snap := reg.Snapshot()
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	scraped, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range scraped {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, scrape says %v", k, snap[k], v)
		}
	}
	if len(snap) != len(scraped) {
		t.Errorf("snapshot has %d series, scrape has %d", len(snap), len(scraped))
	}
}

// TestRegisterPanics pins the fail-fast contract for programmer errors.
func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("dup_total", "D.")
	expectPanic("duplicate series", func() { reg.Counter("dup_total", "D.") })
	expectPanic("type conflict", func() { reg.GaugeFunc("dup_total", "D.", nil, func() float64 { return 0 }) })
	expectPanic("empty name", func() { reg.Counter("", "E.") })
}
