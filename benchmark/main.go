// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the middleware sees, and a per-layer
// ledger measured from outside the program. README.md in this directory
// is the manual; BENCHMARK.json at the repository root is the driver's
// copy of the catalogue.
//
//	bash benchmark/run.sh --workload contact-steady --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all                 # every workload, untraced, one table
//	bash benchmark/run.sh -all -trace 1        # every workload, per-layer ledger
//	bash benchmark/run.sh -all -runs 10 -json a.json
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart is taken as early as the program can: set-up time counts
// from here.
var processStart = time.Now()

func newWorkload(cfg runConfig, in *inputs) (workload, error) {
	switch cfg.workload {
	case wlSteady, wlRadioRTT, wlLoopback:
		return newSteady(cfg, in), nil
	case wlColdDrain:
		return newCold(cfg, in), nil
	case wlSimStudy:
		return newSim(cfg, in), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and print its result as the last line of standard output")
		seed         = fs.Int64("seed", defaultSeed, "workload seed: handles, payloads, bootstrap entropy, chaos dice, simulator seeds")
		seconds      = fs.Float64("seconds", defaultSeconds, "time budget of one run; decides how many fixed-size rounds are sampled")
		trace        = fs.Int("trace", 0, "1 installs the timing shims and reports the per-layer ledger instead of the end-to-end metrics")
		outDir       = fs.String("out", defaultTraceDir, "directory the traced run writes its Chrome trace_event file into")
		all          = fs.Bool("all", false, "run every workload, each in its own process, and print one table")
		runs         = fs.Int("runs", 0, "runs per workload, run i with seed+i: default 1 with -all, 5 per set with -selfcheck")
		jsonPath     = fs.String("json", "", "with -all: also add every run's record to this file, for -compare")
		compare      = fs.Bool("compare", false, "compare two -json files: -compare parent.json change.json")
		selfcheck    = fs.Bool("selfcheck", false, "measure every workload as two sets of runs and fail if any end-to-end median differs by more than its bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two files: parent.json change.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *selfcheck:
		if *runs == 0 {
			*runs = 5
		}
		return selfCheck(*seed, *seconds, *runs)
	case *all:
		sets, err := runSets(1, *seed, *seconds, *trace == 1, max(*runs, 1), *outDir)
		if err != nil {
			return err
		}
		printTable(sets[0], *trace == 1)
		if *jsonPath != "" {
			return sets[0].write(*jsonPath)
		}
		return nil
	case *workloadName != "":
		cfg := runConfig{workload: *workloadName, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir}
		res, err := runWorkload(cfg, processStart)
		if err != nil {
			return err
		}
		return printResult(res)
	}
	fs.Usage()
	return errors.New("nothing to do: give -workload, -all, -compare or -selfcheck")
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// defaultTraceDir sits beside the build cache, which .gitignore names.
	defaultTraceDir = ".bench_build/traces"
)

// metricLine prints one metric by name with its value, unit, direction
// and, for an end-to-end metric, its bound.
func metricLine(spec metricSpec, v float64) string {
	line := fmt.Sprintf("  %-40s %14.4f %-12s %s is better", spec.Name, v, spec.Unit, spec.Better)
	if spec.Bound > 0 || spec.Name == failedShare {
		line += fmt.Sprintf(", bound %.0f%%", spec.Bound*100)
	}
	return line
}

// driverLine is the last line of a single-workload run, in the shape the
// driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints the run for a person, every failure's explanation,
// the run's full record for -all to collect, and last the one-line JSON
// object the driver parses.
func printResult(res *runResult) error {
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	fmt.Printf("%s seed=%d traced=%v rounds=%d attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Traced, res.Rounds, res.Attempted, res.Failed)
	for _, spec := range specs {
		v, ok := res.Metrics[spec.Name]
		if !ok {
			continue // not a metric of this workload
		}
		line := metricLine(spec, v.Value)
		if n, ok := res.Samples[spec.Name]; ok {
			line += fmt.Sprintf(", %d samples", n)
		}
		fmt.Println(line)
	}
	for i, line := range res.RoundLog {
		fmt.Printf("  round %d: %s\n", i, line)
	}
	if res.TraceFile != "" {
		fmt.Println("  trace written to", res.TraceFile)
	}
	for _, f := range res.Failures {
		enc, err := json.Marshal(f)
		if err != nil {
			return fmt.Errorf("encoding failure record: %w", err)
		}
		fmt.Printf("failure %s\n", enc)
	}
	rec, err := json.Marshal(runRecord{
		Workload: res.Workload, Seed: res.Seed, Traced: res.Traced,
		Attempted: res.Attempted, Failed: res.Failed, Failures: res.Failures, Metrics: res.Metrics,
	})
	if err != nil {
		return fmt.Errorf("encoding run record: %w", err)
	}
	fmt.Printf("%s%s\n", recordPrefix, rec)
	enc, err := json.Marshal(driverLine{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: driverMetrics(res),
	})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(enc))
	return nil
}
