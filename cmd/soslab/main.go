// Command soslab runs one in-vivo experiment from a declarative spec
// file and reports the paper's §VI quantities — delivery ratios, delay
// CDF, dissemination counts — aggregated from the fleet's live telemetry
// streams. It is the reproduction's version of the remote-monitoring
// platform the companion demo paper describes: where the bench_test.go
// ablations sweep the in-silico simulator, soslab measures real processes
// on real sockets.
//
//	soslab -spec examples/soslab-fleet/fleet.json
//	soslab -spec fleet.json -mode process -sosd ./sosd -out report.json -csv delays.csv
//	soslab -spec examples/sim-1k/interest-1k.json -mode sim -out report.json
//	soslab -spec examples/gainesville/study.json -mode sim -seed 7 -csv fig4/delays.csv
//	soslab -spec examples/chaos-sweep/sweep.json -sweep chaos -grid-csv grid.csv -grid-md grid.md
//
// With -sweep, soslab runs the adversarial scenario matrix instead of a
// single experiment: the cross-product {scheme × chaos profile}
// declared by the spec's "sweep" block, one live in-process run per
// cell, emitting a paper-style grid as CSV and markdown.
//
// The spec declares the fleet (size, social graph, routing scheme,
// store quota and eviction policy), the post workload, and a churn
// schedule of nodes sleeping and waking. Mode "inprocess" (default) runs
// every node inside soslab over loopback NetMedium sockets; mode
// "process" spawns one real sosd child process per node; mode "sim"
// runs the fleet through the discrete-event simulator at virtual time —
// the mode that scales to thousands of nodes and the only one that
// honors the spec's "mobility" (synthetic model), "trace" (recorded
// contact replay) and "scenario" fields. Scenario "gainesville" replays
// the paper's §VI field study, and its report adds the Gainesville
// section: each Fig. 4 panel and workload scalar next to the paper's
// value. -seed overrides the spec's seed, so one file serves every seed.
// See docs/SCENARIOS.md for the complete spec and trace-format reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"sos/internal/lab"
	"sos/internal/obs"
	"sos/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "soslab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("soslab", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec file (JSON; required)")
	mode := fs.String("mode", lab.ModeInProcess, "fleet shape: inprocess (one process, loopback sockets), process (sosd children), or sim (virtual-time simulator; takes spec mobility/trace)")
	sosd := fs.String("sosd", "sosd", "sosd binary for -mode process")
	out := fs.String("out", "", "write the JSON report here (\"-\" for stdout)")
	csv := fs.String("csv", "", "write the delay CDF as CSV here (a gainesville run also writes its Fig. 4 series, fig4*.csv and contacts.csv, beside it)")
	seed := fs.Int64("seed", 0, "override the spec's seed")
	timelineCSV := fs.String("timeline", "", "write the fleet timeline as CSV here (samples every -timeline-interval)")
	timelineInterval := fs.Duration("timeline-interval", time.Second, "sampling interval for -timeline")
	traceDir := fs.String("trace-dir", "", "dump every in-process node's span flight recorder (Chrome trace JSON) into this directory at teardown")
	workDir := fs.String("workdir", "", "credentials/store directory (default: a temporary one)")
	quiet := fs.Bool("q", false, "suppress live progress")
	verbose := fs.Bool("v", false, "log node-level detail (child output, churn, posts)")
	logJSON := fs.Bool("log-json", false, "emit -v detail as structured JSON log lines")
	minDeliveries := fs.Int("min-deliveries", 0, "exit nonzero unless at least this many deliveries occurred (CI smoke; per cell in a sweep)")
	checkObs := fs.Bool("check-obs", false, "exit nonzero on observability invariant violations (exporter drops, missing nodes)")
	sweep := fs.String("sweep", "", "run the scenario matrix named by the spec's sweep block (any value, canonically \"chaos\") instead of a single experiment")
	gridCSV := fs.String("grid-csv", "", "write the sweep grid as CSV here")
	gridMD := fs.String("grid-md", "", "write the sweep grid as a markdown table here")
	minSchemeRatio := fs.String("min-scheme-ratio", "", "comma-separated scheme=ratio gates: every sweep cell of that scheme must reach the mean delivery ratio (e.g. epidemic=0.9)")
	fs.Parse(args)
	if *specPath == "" {
		fs.Usage()
		return fmt.Errorf("-spec is required")
	}

	ratioGates, err := parseRatioGates(*minSchemeRatio)
	if err != nil {
		return err
	}

	spec, err := lab.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			spec.Seed = *seed
		}
	})
	if *sweep != "" {
		return runSweep(spec, *sweep, lab.Options{WorkDir: *workDir, TraceDir: *traceDir},
			*verbose, *logJSON, *gridCSV, *gridMD, *out, *minDeliveries, *checkObs, ratioGates)
	}
	workload := fmt.Sprintf("%d posts", spec.Posts)
	if spec.Scenario != "" {
		workload = spec.Scenario + " workload"
	}
	fmt.Printf("soslab: %q — %d nodes, %s routing, %s over %s (%s mode)\n",
		spec.Name, spec.Nodes, spec.Scheme, workload, spec.Duration, *mode)

	opts := lab.Options{
		Mode:     *mode,
		SosdPath: *sosd,
		WorkDir:  *workDir,
		TraceDir: *traceDir,
	}
	if *timelineCSV != "" {
		opts.TimelineInterval = *timelineInterval
	}
	if *verbose {
		// Node-level detail rides the shared leveled handler: plain text
		// for a terminal, JSON when a log pipeline is the consumer.
		log, err := obs.NewLogger(os.Stderr, "debug", *logJSON)
		if err != nil {
			return err
		}
		opts.Logf = obs.Logf(log)
	}

	// Live progress: count events as the aggregator ingests them and
	// print a ticker line while the experiment runs. Sim mode has no
	// telemetry stream (virtual time outruns any ticker anyway).
	var created, disseminated, delivered, contacts atomic.Uint64
	if !*quiet && *mode != lab.ModeSim {
		opts.OnEvent = func(ev telemetry.Event) {
			switch ev.Type {
			case telemetry.EventCreated:
				created.Add(1)
			case telemetry.EventDisseminated:
				disseminated.Add(1)
			case telemetry.EventDelivered:
				delivered.Add(1)
			case telemetry.EventContactUp:
				contacts.Add(1)
			}
		}
		start := time.Now()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					fmt.Printf("  t=%-5s created=%d disseminated=%d delivered=%d contacts=%d\n",
						time.Since(start).Truncate(time.Second), created.Load(),
						disseminated.Load(), delivered.Load(), contacts.Load())
				}
			}
		}()
	}

	report, err := lab.Run(spec, opts)
	if err != nil {
		return err
	}
	fmt.Print(report.Summary())

	if *out != "" {
		if *out == "-" {
			if err := report.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else if err := writeFile(*out, report.WriteJSON); err != nil {
			return err
		} else {
			fmt.Printf("soslab: report → %s\n", *out)
		}
	}
	if *csv != "" {
		if err := writeFile(*csv, report.WriteDelayCSV); err != nil {
			return err
		}
		fmt.Printf("soslab: delay CDF → %s\n", *csv)
		if report.Study != nil {
			if err := report.WriteStudyCSV(filepath.Dir(*csv)); err != nil {
				return err
			}
			fmt.Printf("soslab: Fig. 4 series → %s\n", filepath.Dir(*csv))
		}
	}
	if *timelineCSV != "" {
		if err := writeFile(*timelineCSV, report.WriteTimelineCSV); err != nil {
			return err
		}
		fmt.Printf("soslab: timeline (%d intervals) → %s\n", len(report.Timeline), *timelineCSV)
	}
	for _, f := range report.TraceFiles {
		fmt.Printf("soslab: trace → %s\n", f)
	}
	if report.Deliveries < *minDeliveries {
		return fmt.Errorf("only %d deliveries, want at least %d", report.Deliveries, *minDeliveries)
	}
	if *checkObs {
		if v := report.ObservabilityViolations(); len(v) > 0 {
			return fmt.Errorf("observability invariants violated:\n  %s", strings.Join(v, "\n  "))
		}
	}
	return nil
}

// parseRatioGates parses "scheme=ratio[,scheme=ratio...]".
func parseRatioGates(s string) (map[string]float64, error) {
	gates := make(map[string]float64)
	if s == "" {
		return gates, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -min-scheme-ratio entry %q (want scheme=ratio)", part)
		}
		var ratio float64
		if _, err := fmt.Sscanf(val, "%g", &ratio); err != nil || ratio < 0 || ratio > 1 {
			return nil, fmt.Errorf("bad -min-scheme-ratio value %q (want a ratio in [0,1])", val)
		}
		gates[name] = ratio
	}
	return gates, nil
}

// runSweep executes the scenario matrix and applies the CI gates.
func runSweep(spec *lab.Spec, name string, opts lab.Options, verbose, logJSON bool,
	gridCSV, gridMD, out string, minDeliveries int, checkObs bool, ratioGates map[string]float64) error {

	if verbose {
		log, err := obs.NewLogger(os.Stderr, "debug", logJSON)
		if err != nil {
			return err
		}
		opts.Logf = obs.Logf(log)
	} else {
		// A sweep is many runs back to back; always narrate cell starts.
		opts.Logf = func(format string, args ...any) {
			if strings.HasPrefix(format, "lab: sweep cell") || strings.HasPrefix(format, "lab: chaos profile") {
				fmt.Printf(format+"\n", args...)
			}
		}
	}
	fmt.Printf("soslab: sweep %q over %q — %d nodes per cell\n", name, spec.Name, spec.Nodes)
	rep, err := lab.RunSweep(spec, opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())

	if out != "" {
		if out == "-" {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else if err := writeFile(out, rep.WriteJSON); err != nil {
			return err
		} else {
			fmt.Printf("soslab: sweep report → %s\n", out)
		}
	}
	if gridCSV != "" {
		if err := writeFile(gridCSV, rep.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("soslab: grid CSV → %s\n", gridCSV)
	}
	if gridMD != "" {
		if err := writeFile(gridMD, rep.WriteMarkdown); err != nil {
			return err
		}
		fmt.Printf("soslab: grid markdown → %s\n", gridMD)
	}

	var fails []string
	for _, c := range rep.Cells {
		id := c.Scheme + "/" + c.Chaos
		if c.Deliveries < minDeliveries {
			fails = append(fails, fmt.Sprintf("%s: %d deliveries, want at least %d", id, c.Deliveries, minDeliveries))
		}
		if gate, ok := ratioGates[c.Scheme]; ok && c.RatioMean < gate {
			fails = append(fails, fmt.Sprintf("%s: delivery ratio %.3f below gate %.3f", id, c.RatioMean, gate))
		}
		if c.Quarantines > 0 { // no flag: every cell's fleet is all-honest
			fails = append(fails, fmt.Sprintf("%s: %d quarantines among honest peers", id, c.Quarantines))
		}
		if checkObs {
			for _, v := range c.ObservabilityViolations {
				fails = append(fails, fmt.Sprintf("%s: %s", id, v))
			}
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("sweep gates failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// writeFile writes via the given render function with 0644 permissions.
func writeFile(path string, render func(w io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
