// Package obs is the operational observability layer: a zero-dependency,
// allocation-conscious metrics registry with Prometheus text exposition,
// a per-node HTTP debug server (/metrics, /healthz, /debug/pprof/*), and
// shared structured-logging setup for the daemons.
//
// The paper's contribution is in vivo *measurement*; internal/telemetry
// carries the experiment-grade event stream (delivery ratios, delay CDFs)
// to a collector, while this package answers the operator's question on a
// single running node: what is it doing right now? The two layers are
// deliberately separate — telemetry events are the §VI series, obs
// metrics are counters an operator scrapes — but obs also exposes the
// telemetry exporter's own health (queue depth, drops), so a fleet whose
// measurement plane is degrading is visible before the report is wrong.
//
// Hot paths use lock-free atomics: Counter.Add and Histogram.Observe are
// a single atomic add (plus a CAS loop for the histogram sum) with zero
// allocations, so instrumenting the contact-sync path does not move the
// allocs/msg benchmarks. Layer stats that already exist as mutex-guarded
// snapshots are bridged at scrape time with CounterFunc/GaugeFunc — the
// running system pays nothing between scrapes.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches constant dimension values to a metric series, e.g.
// Labels{"reason": "capacity"}. Label sets are fixed at registration —
// there is no dynamic label lookup on the hot path.
type Labels map[string]string

// canonical renders labels in sorted, escaped, exposition form:
// `{k="v",k2="v2"}` or "" for the empty set.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// metricType is the exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically increasing value. The zero value is ready;
// Add/Inc are lock-free and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefBuckets are general-purpose duration buckets in seconds.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram counts observations into cumulative buckets. Observe is
// lock-free: one binary search, one atomic add, one CAS loop for the sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v: Prometheus buckets are `le` (inclusive upper).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one registered time series within a family.
type series struct {
	labels string // canonical label string, possibly ""

	counter     *Counter
	histogram   *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series
}

// Registry holds registered metrics and renders them in the Prometheus
// text exposition format. Registration takes a lock; reading and writing
// metric values does not.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration-independent sorted order, rebuilt lazily
	dirty    bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds one series, creating its family as needed. It panics on a
// type conflict or duplicate (name, labels) — both are programmer errors
// caught by the first scrape in any test.
func (r *Registry) register(name, help string, typ metricType, s *series) {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.dirty = true
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	for _, existing := range f.series {
		if existing.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
}

// Counter registers and returns a counter with no labels.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, &series{counter: c})
	return c
}

// CounterFunc registers a counter whose value is read at scrape time —
// the bridge for layers that already keep their own atomic or
// mutex-guarded counters.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, help, typeCounter, &series{labels: labels.canonical(), counterFunc: fn})
}

// GaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, typeGauge, &series{labels: labels.canonical(), gaugeFunc: fn})
}

// Histogram registers and returns a histogram with no labels and the
// given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := newHistogram(buckets)
	r.register(name, help, typeHistogram, &series{histogram: h})
	return h
}

// sortedFamilies returns families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		r.names = r.names[:0]
		for name := range r.families {
			r.names = append(r.names, name)
		}
		sort.Strings(r.names)
		r.dirty = false
	}
	out := make([]*family, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.families[name])
	}
	return out
}

// WriteProm renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name, series
// sorted by label set.
func (r *Registry) WriteProm(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			writeSeries(&b, f.name, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series' sample lines.
func writeSeries(b *strings.Builder, name string, s *series) {
	switch {
	case s.counter != nil:
		writeSample(b, name, s.labels, float64(s.counter.Value()))
	case s.counterFunc != nil:
		writeSample(b, name, s.labels, float64(s.counterFunc()))
	case s.gaugeFunc != nil:
		writeSample(b, name, s.labels, s.gaugeFunc())
	case s.histogram != nil:
		h := s.histogram
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			writeSample(b, name+"_bucket", `{le="`+formatFloat(bound)+`"}`, float64(cum))
		}
		cum += h.counts[len(h.bounds)].Load()
		writeSample(b, name+"_bucket", `{le="+Inf"}`, float64(cum))
		writeSample(b, name+"_sum", s.labels, h.Sum())
		writeSample(b, name+"_count", s.labels, float64(h.Count()))
	}
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns every sample as a flat map keyed by the full series
// identifier (name plus canonical labels), exactly as the exposition
// would render it. The lab uses this for in-process fleet nodes, where
// scraping over HTTP would only round-trip loopback for no reason.
func (r *Registry) Snapshot() map[string]float64 {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		for _, s := range f.series {
			writeSeries(&b, f.name, s)
		}
	}
	out, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		// The renderer and parser are two halves of one format; a
		// mismatch is a bug, not a runtime condition.
		panic(fmt.Sprintf("obs: snapshot did not round-trip: %v", err))
	}
	return out
}

// ParseProm parses Prometheus text exposition into a flat map keyed by
// series identifier (name plus label string, as written). It understands
// exactly what WriteProm emits — plus comments, blank lines, and optional
// trailing timestamps — which is all the debug server's scrapers need.
func ParseProm(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	out := make(map[string]float64)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The sample is `id value [timestamp]`; the id may contain spaces
		// only inside quoted label values, so split on the last '}' first.
		var id, rest string
		if close := strings.LastIndexByte(line, '}'); close >= 0 {
			id, rest = line[:close+1], strings.TrimSpace(line[close+1:])
		} else {
			var ok bool
			id, rest, ok = strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("obs: exposition line %d: no value: %q", ln+1, line)
			}
		}
		value, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			if value == "+Inf" {
				v = math.Inf(1)
			} else {
				return nil, fmt.Errorf("obs: exposition line %d: bad value %q", ln+1, value)
			}
		}
		out[id] = v
	}
	return out, nil
}
