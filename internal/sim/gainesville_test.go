package sim

import (
	"testing"

	"sos/internal/metrics"
)

// TestGainesvilleHeadlineBands runs the full calibrated 7-day field-study
// replay and asserts the paper's headline shapes hold within bands. This
// is the regression test for the reproduction itself: if a change to any
// layer breaks the delivery dynamics, this fails.
func TestGainesvilleHeadlineBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full 7-day replay; skipped in -short mode")
	}
	g, err := NewGainesville(GainesvilleConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewGainesville: %v", err)
	}
	s, err := New(g.Config)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Workload scalars are exact inputs.
	if got := res.Collector.CreatedCount(); got != 259 {
		t.Errorf("unique messages = %d, want 259", got)
	}
	if res.Follows != 46 {
		t.Errorf("in-app follows = %d, want 46", res.Follows)
	}

	// Paper: 0.826 of deliveries single-hop. Band: [0.70, 0.92].
	if share := res.Collector.OneHopShare(); share < 0.70 || share > 0.92 {
		t.Errorf("1-hop share = %.3f, want ≈ 0.826 (band 0.70–0.92)", share)
	}

	// Paper: 0.90 of delivered messages within 94 h. Band: ≥ 0.85.
	all := res.Collector.DelayCDF(metrics.AllHops)
	if got := all.At(94); got < 0.85 {
		t.Errorf("All CDF(94h) = %.2f, want ≥ 0.85", got)
	}
	// Knee near a day: between 0.30 and 0.70 delivered within 24 h.
	if got := all.At(24); got < 0.30 || got > 0.70 {
		t.Errorf("All CDF(24h) = %.2f, want in [0.30, 0.70]", got)
	}

	// A substantial minority of subscriptions achieve > 0.8 ratio, and a
	// long weak tail exists (paper Fig. 4d shape).
	ratios := res.Collector.DeliveryRatios(g.Subscriptions, metrics.AllHops)
	if len(ratios) != 58 {
		t.Fatalf("ratio points = %d, want 58 subscriptions", len(ratios))
	}
	strong := metrics.FractionAbove(ratios, 0.80)
	if strong < 0.10 || strong > 0.50 {
		t.Errorf("subs above 0.8 = %.2f, want ≈ 0.30 (band 0.10–0.50)", strong)
	}
	weak := 1 - metrics.FractionAbove(ratios, 0.50)
	if weak < 0.20 {
		t.Errorf("weak-subscription tail = %.2f, want ≥ 0.20", weak)
	}

	// Dissemination volume in the paper's order of magnitude.
	if d := res.Collector.Disseminations(); d < 450 || d > 1400 {
		t.Errorf("disseminations = %d, want ≈ 967 (band 450–1400)", d)
	}

	// The stack stayed healthy: no verification failures, and everything
	// that aborted was eventually recovered (deliveries exist). A replay
	// arms no timer, so no node re-dialled off the simulation goroutine.
	for handle, st := range res.NodeStats {
		if st.Message.VerifyFailures != 0 {
			t.Errorf("%s: %d verification failures", handle, st.Message.VerifyFailures)
		}
		if st.Message.Reconnects != 0 {
			t.Errorf("%s: %d re-dials in a replay, want 0", handle, st.Message.Reconnects)
		}
	}
}
