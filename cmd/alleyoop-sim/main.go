// Command alleyoop-sim replays the paper's §VI field study in silico and
// prints every reported number next to the paper's value: the §VI-A
// social-graph statistics (Fig. 4a), the geographic activity envelope
// (Fig. 4b), the delay CDFs (Fig. 4c), the per-subscription delivery
// ratios (Fig. 4d), and the workload scalars. With -csv it also exports
// the raw series for plotting.
//
// Usage:
//
//	alleyoop-sim [-seed N] [-days 7] [-posts 259] [-follows 46]
//	             [-scheme interest] [-range 35] [-users 10]
//	             [-attend 0.85] [-csv DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sos/internal/geo"
	"sos/internal/metrics"
	"sos/internal/sim"
	"sos/internal/socialgraph"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "simulation seed")
		days    = flag.Int("days", 7, "study length in days")
		posts   = flag.Int("posts", 259, "unique messages to author")
		follows = flag.Int("follows", 46, "in-app subscription actions")
		scheme  = flag.String("scheme", "interest", "routing scheme (epidemic|interest|spray-and-wait|prophet)")
		radio   = flag.Float64("range", 35, "radio contact range, meters")
		users   = flag.Int("users", 10, "active users (10 = deployment graph)")
		attend  = flag.Float64("attend", 0.85, "probability of showing up to a meeting")
		meet    = flag.Float64("meetrate", 0, "mean weekday meetings/day per related pair (0 = default)")
		spread  = flag.Float64("ratespread", 0, "log-normal sigma of pair-rate heterogeneity (0 = default)")
		gather  = flag.Float64("gatherprob", 0, "per-weekday group gathering probability (0 = default)")
		weekend = flag.Float64("weekend", 0, "weekend meeting-rate factor (0 = default)")
		social  = flag.Float64("socialpost", 0, "probability a post happens mid-meeting (0 = default)")
		checks  = flag.Float64("checks", 0, "spontaneous app checks per day (0 = default)")
		mcheck  = flag.Float64("meetcheck", 0, "app-check probability during a meeting (0 = default)")
		prompt  = flag.Float64("prompt", 0, "co-present prompt probability at post time (0 = default)")
		ttl     = flag.Duration("relayttl", 0, "forwarder buffer TTL for foreign messages (0 = default 36h, -1ns = unlimited)")
		csvDir  = flag.String("csv", "", "directory for CSV exports (empty = none)")
	)
	flag.Parse()

	cfg := sim.GainesvilleConfig{
		Seed:             *seed,
		Days:             *days,
		Posts:            *posts,
		InAppFollows:     *follows,
		Scheme:           *scheme,
		Range:            *radio,
		Users:            *users,
		AttendProb:       *attend,
		MeetRate:         *meet,
		RateSpread:       *spread,
		GatheringProb:    *gather,
		WeekendFactor:    *weekend,
		SocialPostProb:   *social,
		ChecksPerDay:     *checks,
		MeetingCheckProb: *mcheck,
		PromptProb:       *prompt,
		RelayTTL:         *ttl,
	}
	if err := run(cfg, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "alleyoop-sim:", err)
		os.Exit(1)
	}
}

func run(cfg sim.GainesvilleConfig, csvDir string) error {
	scenario, err := sim.NewGainesville(cfg)
	if err != nil {
		return err
	}
	s, err := sim.New(scenario.Config)
	if err != nil {
		return err
	}
	started := time.Now()
	res, err := s.Run()
	if err != nil {
		return err
	}

	fmt.Printf("AlleyOop Social in-silico field study — scheme=%s seed=%d users=%d days=%d range=%.0fm\n",
		cfg.Scheme, cfg.Seed, cfg.Users, cfg.Days, cfg.Range)
	fmt.Printf("(simulated %s of virtual time in %.2fs wall time)\n\n",
		res.Elapsed, time.Since(started).Seconds())

	// ---- Section VI-A / Fig. 4a: social relationship graph ----
	stats := socialgraph.ComputeStats(scenario.Graph)
	fmt.Println("== Fig. 4a / §VI-A: social relationship graph ==")
	fmt.Printf("  %-34s %10s %10s\n", "metric", "paper", "measured")
	row := func(name, paper string, measured string) {
		fmt.Printf("  %-34s %10s %10s\n", name, paper, measured)
	}
	row("active users n", "10", fmt.Sprintf("%d", stats.Nodes))
	row("density", "0.64", fmt.Sprintf("%.2f", stats.Density))
	row("avg shortest path length", "1.3", fmt.Sprintf("%.2f", stats.AvgPathLength))
	row("diameter", "2", fmt.Sprintf("%d", stats.Diameter))
	row("radius", "1", fmt.Sprintf("%d", stats.Radius))
	row("center nodes", "{6,7}", fmt.Sprintf("%v", stats.Center))
	row("transitivity T(G)", "0.80", fmt.Sprintf("%.2f", stats.Transitivity))
	fmt.Println()

	// ---- Workload scalars ----
	fmt.Println("== §VI workload scalars ==")
	row("unique messages posted", "259", fmt.Sprintf("%d", res.Collector.CreatedCount()))
	row("in-app subscription actions", "46", fmt.Sprintf("%d", res.Follows))
	row("user-to-user disseminations", "967", fmt.Sprintf("%d", res.Collector.Disseminations()))
	row("study area (km^2)", "88", "88")
	fmt.Println()

	// ---- Fig. 4c: delay CDFs ----
	all := res.Collector.DelayCDF(metrics.AllHops)
	oneHop := res.Collector.DelayCDF(metrics.OneHop)
	fmt.Println("== Fig. 4c: delivery delay CDF ==")
	row("All:   P(delay <= 24h)", "0.43", fmt.Sprintf("%.2f", all.At(24)))
	row("All:   P(delay <= 94h)", "0.90", fmt.Sprintf("%.2f", all.At(94)))
	row("1-hop: P(delay <= 24h)", "0.44", fmt.Sprintf("%.2f", oneHop.At(24)))
	row("1-hop: P(delay <= 94h)", "0.92", fmt.Sprintf("%.2f", oneHop.At(94)))
	fmt.Println("\n  delay CDF series (hours -> fraction delivered):")
	fmt.Printf("  %8s %8s %8s\n", "hours", "All", "1-hop")
	for _, h := range []float64{6, 12, 24, 36, 48, 72, 94, 120, 168} {
		fmt.Printf("  %8.0f %8.2f %8.2f\n", h, all.At(h), oneHop.At(h))
	}
	fmt.Println()

	// ---- Fig. 4d: delivery ratio per subscription ----
	ratiosAll := res.Collector.DeliveryRatios(scenario.Subscriptions, metrics.AllHops)
	ratiosOne := res.Collector.DeliveryRatios(scenario.Subscriptions, metrics.OneHop)
	fmt.Println("== Fig. 4d: delivery ratio per subscription ==")
	row("All:   frac subs ratio > 0.80", "0.30", fmt.Sprintf("%.2f", metrics.FractionAbove(ratiosAll, 0.80)))
	row("All:   frac subs ratio > 0.70", "0.50", fmt.Sprintf("%.2f", metrics.FractionAbove(ratiosAll, 0.70)))
	row("1-hop: frac subs ratio >= 0.80", "0.25", fmt.Sprintf("%.2f", metrics.FractionAtLeast(ratiosOne, 0.80)))
	row("deliveries made in 1 hop", "0.826", fmt.Sprintf("%.3f", res.Collector.OneHopShare()))
	fmt.Println("\n  delivery-ratio distribution (ratio -> frac subs above):")
	fmt.Printf("  %8s %8s %8s\n", "ratio", "All", "1-hop")
	for _, r := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		fmt.Printf("  %8.1f %8.2f %8.2f\n", r, metrics.FractionAbove(ratiosAll, r), metrics.FractionAbove(ratiosOne, r))
	}
	fmt.Println()

	// ---- Fig. 4b: activity map ----
	created := res.Recorder.Events(geo.EventCreated)
	passed := res.Recorder.Events(geo.EventPassed)
	min, max := res.Recorder.BoundingBox()
	fmt.Println("== Fig. 4b: activity map ==")
	fmt.Printf("  message generation events (blue): %d\n", len(created))
	fmt.Printf("  message dissemination events (red): %d\n", len(passed))
	fmt.Printf("  activity bounding box: (%.0f, %.0f) – (%.0f, %.0f) m of 11000 x 8000 m\n",
		min.X, min.Y, max.X, max.Y)
	fmt.Printf("  radio contacts during study: %d\n", res.Recorder.ContactCount())
	fmt.Println()

	// ---- Stack health ----
	var agg struct {
		handshakes, rejects, aborted, verifyFailures uint64
	}
	for _, st := range res.NodeStats {
		agg.handshakes += st.Adhoc.HandshakesOK
		agg.rejects += st.Adhoc.CertRejections
		agg.aborted += st.Message.TransfersAborted
		agg.verifyFailures += st.Message.VerifyFailures
	}
	fmt.Println("== middleware internals ==")
	fmt.Printf("  authenticated handshakes: %d  (cert rejections: %d)\n", agg.handshakes, agg.rejects)
	fmt.Printf("  requests cut off by contact loss: %d (all re-planned at later encounters)\n", agg.aborted)
	fmt.Printf("  signature/certificate verification failures: %d\n", agg.verifyFailures)
	fmt.Printf("  frames delivered: %d (%.1f MiB), dropped in flight: %d\n",
		res.MediumStats.FramesDelivered, float64(res.MediumStats.BytesDelivered)/(1<<20), res.MediumStats.FramesDropped)

	if csvDir != "" {
		if err := exportCSV(csvDir, res, scenario); err != nil {
			return err
		}
		fmt.Printf("\nCSV series written to %s\n", csvDir)
	}
	return nil
}

// exportCSV writes the Fig. 4b/4c/4d raw series.
func exportCSV(dir string, res *sim.Result, scenario *sim.Gainesville) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating csv dir: %w", err)
	}
	write := func(name string, fn func(*os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("creating %s: %w", name, err)
		}
		defer f.Close()
		return fn(f)
	}
	if err := write("fig4b_map.csv", func(f *os.File) error {
		return res.Recorder.WriteGeoCSV(f)
	}); err != nil {
		return err
	}
	if err := write("fig4c_delay_all.csv", func(f *os.File) error {
		return res.Collector.DelayCDF(metrics.AllHops).WriteCSV(f, "delay_hours")
	}); err != nil {
		return err
	}
	if err := write("fig4c_delay_1hop.csv", func(f *os.File) error {
		return res.Collector.DelayCDF(metrics.OneHop).WriteCSV(f, "delay_hours")
	}); err != nil {
		return err
	}
	if err := write("fig4d_ratio_all.csv", func(f *os.File) error {
		return metrics.NewCDF(res.Collector.DeliveryRatios(scenario.Subscriptions, metrics.AllHops)).WriteCSV(f, "delivery_ratio")
	}); err != nil {
		return err
	}
	if err := write("fig4d_ratio_1hop.csv", func(f *os.File) error {
		return metrics.NewCDF(res.Collector.DeliveryRatios(scenario.Subscriptions, metrics.OneHop)).WriteCSV(f, "delivery_ratio")
	}); err != nil {
		return err
	}
	return write("contacts.csv", func(f *os.File) error {
		return res.Recorder.WriteContactCSV(f)
	})
}
