package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // p75 would leave 9.75 beyond it
		{40, 75, true},
		{100, 90, true},  // the radio workload's serial phase
		{120, 90, true},  // p95 would leave 6
		{200, 95, true},  // exactly ten beyond p95
		{999, 95, true},  // p99 would leave 9.99
		{1000, 99, true}, // exactly ten beyond p99
		{4000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty samples must read 0")
	}
}

// TestQuartileSpreadMatchesPython pins the spread to what
// statistics.quantiles(xs, n=4) gives, since the driver computes it so.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartileSpread([]float64{1, 2}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("two-point spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("one reading has no spread")
	}
}
