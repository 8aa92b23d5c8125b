package main

import (
	"math"
	"testing"
	"time"
)

// TestLedgerArithmetic feeds perLayerMetrics hand-made totals and checks
// the per-message ratios and the explained share against sums worked out
// by hand.
func TestLedgerArithmetic(t *testing.T) {
	us := func(n float64) time.Duration { return time.Duration(n * float64(time.Microsecond)) }
	lt := &layerTotals{
		delivered: 100, signed: 100, contacts: 1, seconds: 2,
		cost: meter{cpu: 200 * time.Millisecond, gcCPU: 0.02, gcCycles: 4},
		medium: mediumCount{
			beacons: 200, beaconBytes: 200 * 18_000, frames: 500, frameBytes: 500 * 200, handshakeBytes: 1000,
		},
		busy: map[string]time.Duration{
			"core.post": us(100 * 500), "adhoc.received": us(100 * 700), "adhoc.peerfound": us(100 * 300),
			"store.put": us(100 * 10), "store.missing": us(100 * 40), "store.summary": us(100 * 30), "store.select": us(100 * 5),
			"mpc.set_advertisement": us(100 * 20), "mpc.send": us(100 * 15), "routing.wants": us(100 * 30),
		},
		calls: map[string]int{"routing.wants": 200, "store.missing": 300, "store.summary": 400},
	}
	lt.counts[cReceived] = 100
	lt.counts[cHandshakes] = 2
	lt.counts[cSeals] = 500
	lt.counts[cServed], lt.counts[cBatches] = 100, 50
	lt.counts[cAdsDelta] = 200
	lt.counts[cSummaryBytes], lt.counts[cPayloadBytes] = 12_000, 80_000

	u := unitCosts{sign: 40, verify: 80, pkiVerify: 60, sealOpen: 2, establish: 100, beaconEnc: 250, beaconDec: 150, batchRoundTrip: 4}
	rounds := []roundResult{
		{latencyMs: []float64{1.0, 1.0, 1.0}}, // the untraced base round
		{layers: lt, latencyMs: []float64{1.1, 1.1, 1.1}},
	}
	res := &runResult{Samples: map[string]int{}, Metrics: map[string]metricValue{}}
	perLayerMetrics(res, runConfig{workload: wlSteady}, rounds, u, nil)

	want := map[string]float64{
		"core.post.busy_us_per_msg":       500,
		"adhoc.received.busy_us_per_msg":  700,
		"store.missing.calls_per_msg":     3,
		"routing.wants.calls_per_msg":     2,
		"msg.verifies_per_msg":            1,
		"pki.verifies_per_msg":            1.02, // one per message plus the handshake's two
		"secure.seals_per_msg":            5,
		"message.msgs_per_batch":          2,
		"message.ads_delta_per_msg":       2,
		"message.summary_bytes_per_msg":   120,
		"mpc.beacons_per_msg":             2,
		"mpc.beacon_bytes_per_msg":        36_000,
		"mpc.frame_bytes_per_msg":         1000,
		"mpc.handshake_bytes_per_contact": 1000,
		"gc.cpu_share":                    0.1,
		"gc.cycles_per_kmsg":              40,
		"trace.overhead_share":            0.1,
		"message.round_trips_per_msg":     0, // radio workload only
		"adhoc.handshakes":                2,
	}
	// Explained: the interposed leaves (10+40+30+5+20+15+30 = 150 µs) plus
	// the priced layers: sign 40 + verify 80 + pki 60×1.02 + seal/open
	// 2×5 + beacon (250+150)×2 + batch 4×½ = 993.2 µs; over 2 000 µs of
	// CPU per message.
	want["ledger.cpu_explained_share"] = (150 + 993.2) / 2000
	for name, w := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if math.Abs(got.Value-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %v, want %v", name, got.Value, w)
		}
	}
	for _, spec := range perLayer {
		if v, ok := res.Metrics[spec.Name]; !ok || v.Unit != spec.Unit {
			t.Errorf("%s: reported %+v, want unit %q", spec.Name, v, spec.Unit)
		}
	}
}

func TestRoundTripsOnlyOnRadio(t *testing.T) {
	rounds := []roundResult{
		{latencyMs: []float64{100}},
		{layers: &layerTotals{delivered: 1}, latencyMs: []float64{105}},
	}
	res := &runResult{Samples: map[string]int{}, Metrics: map[string]metricValue{}}
	perLayerMetrics(res, runConfig{workload: wlRadioRTT}, rounds, unitCosts{}, nil)
	if got := res.Metrics["message.round_trips_per_msg"].Value; got != 3 {
		t.Errorf("round trips = %v, want 105 ms / 35 ms = 3", got)
	}
}

// TestHealthCheckFailsPerEvent: unhealthy counters between honest peers
// are failed operations, one each; healthy ones are not.
func TestHealthCheckFailsPerEvent(t *testing.T) {
	var delta counts
	delta[cQuarantines] = 1
	delta[cOpenFailures] = 2
	delta[cDuplicates] = 5 // duplicates are normal traffic
	var tl tally
	checkHealth(delta, "contact", "measured section", nil, &tl)
	if tl.failed != 3 || len(tl.failures) != 3 {
		t.Fatalf("failed = %d with %d records, want 3", tl.failed, len(tl.failures))
	}
}
