// Package metrics computes the evaluation quantities of the paper's §VI:
// delay CDFs for "1-hop" and "All" deliveries (Fig. 4c), per-subscription
// delivery-ratio distributions (Fig. 4d), and the workload scalars
// (unique messages, user-to-user disseminations). A Collector observes a
// running system — live or simulated — and the CDF helpers turn its
// records into the exact series the paper plots.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"sos/internal/id"
	"sos/internal/msg"
)

// Delivery is one message reaching one interested subscriber.
type Delivery struct {
	Ref         msg.Ref
	To          id.UserID
	CreatedAt   time.Time
	DeliveredAt time.Time
	Hops        uint16
}

// Delay returns the creation-to-delivery latency.
func (d Delivery) Delay() time.Duration {
	return d.DeliveredAt.Sub(d.CreatedAt)
}

// Subscription is one directed follow relationship.
type Subscription struct {
	Follower id.UserID
	Followee id.UserID
}

// Collector accumulates evaluation records. It is safe for concurrent
// use.
type Collector struct {
	mu             sync.Mutex
	created        map[msg.Ref]time.Time
	author         map[msg.Ref]id.UserID
	deliveries     []Delivery
	delivered      map[deliveryKey]bool
	disseminations uint64
	evictions      uint64
	evictedTracked uint64
}

type deliveryKey struct {
	ref msg.Ref
	to  id.UserID
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		created:   make(map[msg.Ref]time.Time),
		author:    make(map[msg.Ref]id.UserID),
		delivered: make(map[deliveryKey]bool),
	}
}

// MessageCreated registers an authored message (the paper's "unique
// messages" — 259 in the field study).
func (c *Collector) MessageCreated(ref msg.Ref, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.created[ref]; !dup {
		c.created[ref] = at
		c.author[ref] = ref.Author
	}
}

// Disseminated counts one user-to-user transfer of a tracked message
// (the paper's 967).
func (c *Collector) Disseminated(ref msg.Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, tracked := c.created[ref]; tracked {
		c.disseminations++
	}
}

// Delivered records a tracked message reaching a subscriber. Duplicate
// (message, recipient) pairs are ignored, so redundant paths do not
// inflate delivery counts.
func (c *Collector) Delivered(ref msg.Ref, to id.UserID, at time.Time, hops uint16) {
	c.mu.Lock()
	defer c.mu.Unlock()
	createdAt, tracked := c.created[ref]
	if !tracked {
		return
	}
	key := deliveryKey{ref: ref, to: to}
	if c.delivered[key] {
		return
	}
	c.delivered[key] = true
	c.deliveries = append(c.deliveries, Delivery{
		Ref: ref, To: to, CreatedAt: createdAt, DeliveredAt: at, Hops: hops,
	})
}

// Evicted counts one buffer drop at some node — a storage engine
// evicting a message to stay within quota or TTL. Drops of workload
// (tracked) messages are counted separately, since those are the drops
// that can cost deliveries.
func (c *Collector) Evicted(ref msg.Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions++
	if _, tracked := c.created[ref]; tracked {
		c.evictedTracked++
	}
}

// Evictions returns the total buffer drops observed across all nodes.
func (c *Collector) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// TrackedEvictions returns the buffer drops that hit workload messages.
func (c *Collector) TrackedEvictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictedTracked
}

// HopFilter selects which deliveries a statistic covers.
type HopFilter int

// Filters matching the paper's two Fig. 4 series.
const (
	AllHops HopFilter = iota
	OneHop
)

// String names the filter as the paper's legends do.
func (f HopFilter) String() string {
	if f == OneHop {
		return "1-hop"
	}
	return "All"
}

func (f HopFilter) match(d Delivery) bool {
	return f == AllHops || d.Hops == 1
}

// CreatedCount returns the number of tracked unique messages.
func (c *Collector) CreatedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.created)
}

// Disseminations returns the user-to-user transfer count.
func (c *Collector) Disseminations() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disseminations
}

// Deliveries returns a copy of the delivery records under the filter.
func (c *Collector) Deliveries(filter HopFilter) []Delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Delivery
	for _, d := range c.deliveries {
		if filter.match(d) {
			out = append(out, d)
		}
	}
	return out
}

// OneHopShare returns the fraction of deliveries that took exactly one
// hop (the paper reports 0.826).
func (c *Collector) OneHopShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.deliveries) == 0 {
		return 0
	}
	oneHop := 0
	for _, d := range c.deliveries {
		if d.Hops == 1 {
			oneHop++
		}
	}
	return float64(oneHop) / float64(len(c.deliveries))
}

// DelayCDF builds the Fig. 4c series: the empirical CDF of delivery
// delays (in hours) under the filter.
func (c *Collector) DelayCDF(filter HopFilter) CDF {
	deliveries := c.Deliveries(filter)
	values := make([]float64, 0, len(deliveries))
	for _, d := range deliveries {
		values = append(values, d.Delay().Hours())
	}
	return NewCDF(values)
}

// DeliveryRatios builds the Fig. 4d series: for every subscription, the
// fraction of the followee's tracked messages that reached the follower
// (under the filter). Subscriptions whose followee authored nothing are
// skipped.
func (c *Collector) DeliveryRatios(subs []Subscription, filter HopFilter) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()

	authored := make(map[id.UserID]int)
	for ref := range c.created {
		authored[ref.Author]++
	}
	deliveredCount := make(map[Subscription]int)
	for _, d := range c.deliveries {
		if !filter.match(d) {
			continue
		}
		deliveredCount[Subscription{Follower: d.To, Followee: d.Ref.Author}]++
	}

	var ratios []float64
	for _, sub := range subs {
		total := authored[sub.Followee]
		if total == 0 {
			continue
		}
		ratios = append(ratios, float64(deliveredCount[sub])/float64(total))
	}
	sort.Float64s(ratios)
	return ratios
}

// FractionAbove returns the fraction of values strictly greater than x —
// the form the paper quotes Fig. 4d in ("0.30 of the subscriptions had a
// delivery ratio greater than 0.80").
func FractionAbove(values []float64, x float64) float64 {
	if len(values) == 0 {
		return 0
	}
	count := 0
	for _, v := range values {
		if v > x {
			count++
		}
	}
	return float64(count) / float64(len(values))
}

// FractionAtLeast returns the fraction of values ≥ x.
func FractionAtLeast(values []float64, x float64) float64 {
	if len(values) == 0 {
		return 0
	}
	count := 0
	for _, v := range values {
		if v >= x {
			count++
		}
	}
	return float64(count) / float64(len(values))
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF over the given sample (copied and sorted).
func NewCDF(values []float64) CDF {
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return CDF{sorted: sorted}
}

// N returns the sample size.
func (c CDF) N() int { return len(c.sorted) }

// At returns the fraction of samples ≤ x.
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	// Include equal values.
	for idx < len(c.sorted) && c.sorted[idx] <= x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with At(v) ≥ q.
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	idx := int(q*float64(len(c.sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Points returns the step points (x, F(x)) of the empirical CDF.
func (c CDF) Points() [][2]float64 {
	out := make([][2]float64, 0, len(c.sorted))
	n := float64(len(c.sorted))
	for i, v := range c.sorted {
		if i+1 < len(c.sorted) && c.sorted[i+1] == v {
			continue // collapse ties to the last occurrence
		}
		out = append(out, [2]float64{v, float64(i+1) / n})
	}
	return out
}

// WriteCSV emits the CDF points as "x,F" rows with a header.
func (c CDF) WriteCSV(w io.Writer, xName string) error {
	if _, err := fmt.Fprintf(w, "%s,cdf\n", xName); err != nil {
		return fmt.Errorf("metrics: writing csv: %w", err)
	}
	for _, p := range c.Points() {
		if _, err := fmt.Fprintf(w, "%.6f,%.6f\n", p[0], p[1]); err != nil {
			return fmt.Errorf("metrics: writing csv: %w", err)
		}
	}
	return nil
}
