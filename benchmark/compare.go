package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// runRecord is one run as -json stores it.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []failure              `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runSet is the content of a -json file.
type runSet struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// write stores the set at path, after the runs a file already there
// holds: parent and change are measured alternately, a few runs at a
// time, so that the machine's drift falls on both (README.md).
func (s *runSet) write(path string) error {
	if old, err := readRunSet(path); err == nil {
		if old.Seconds != s.Seconds {
			return fmt.Errorf("%s holds runs of %v s, these took %v s", path, old.Seconds, s.Seconds)
		}
		s = &runSet{Seconds: s.Seconds, Runs: append(old.Runs, s.Runs...)}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	enc, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func readRunSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading results: %w", err)
	}
	var s runSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &s, nil
}

// values returns one metric's readings over a workload's runs.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// seeds lists the seeds of a workload's runs in the order they ran.
func (s *runSet) seeds(workload string) []int64 {
	var out []int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			out = append(out, r.Seed)
		}
	}
	return out
}

func (s *runSet) failed(workload string) (attempted, failed int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return attempted, failed
}

// runSets measures every workload runs times for each of n sets, each
// run in a process of its own so peak memory and set-up are per run, and
// waits for each to end. Run i uses seed+i in every set. Workloads and
// sets take turns — never one workload's runs back to back — so a slow
// spell of the machine falls on all of them alike.
func runSets(n int, seed int64, seconds float64, traced bool, runs int, outDir string) ([]*runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	sets := make([]*runSet, n)
	for i := range sets {
		sets[i] = &runSet{Seconds: seconds}
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for i := 0; i < runs; i++ {
		for _, name := range workloadNames() {
			for j := range sets {
				set := sets[(i+j)%n] // alternate which set goes first
				cmd := exec.Command(self,
					"-workload", name, "-seed", strconv.FormatInt(seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return nil, fmt.Errorf("%s run %d: %w", name, i, err)
				}
				rec, err := parseRun(out)
				if err != nil {
					return nil, fmt.Errorf("%s run %d: %w", name, i, err)
				}
				set.Runs = append(set.Runs, rec)
				fmt.Fprintf(os.Stderr, "ran %s (%d/%d): attempted %d, failed %d\n", name, i+1, runs, rec.Attempted, rec.Failed)
			}
		}
	}
	return sets, nil
}

// recordPrefix starts the line of a single-workload run that carries
// its full record.
const recordPrefix = "record "

// parseRun reads a single-workload run's output: the line starting with
// recordPrefix is the record, any "failure" lines are passed on to
// standard error.
func parseRun(out []byte) (runRecord, error) {
	var rec runRecord
	found := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24) // a failure line carries both nodes' counters
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "failure ") {
			fmt.Fprintln(os.Stderr, line)
		}
		if body, ok := strings.CutPrefix(line, recordPrefix); ok {
			if err := json.Unmarshal([]byte(body), &rec); err != nil {
				return rec, fmt.Errorf("decoding run record %q: %w", body, err)
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return rec, fmt.Errorf("reading run output: %w", err)
	}
	if !found {
		return rec, errors.New("the run printed no record")
	}
	return rec, nil
}

// printTable prints every metric of every workload by name with unit,
// direction and bound: the median over the set's runs, and the quartile
// spread when there are enough runs to have one.
func printTable(set *runSet, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, w := range workloadSpecs {
		attempted, failed := set.failed(w.Name)
		fmt.Printf("%s — %s\n  attempted %d, failed %d\n", w.Name, w.Why, attempted, failed)
		for _, spec := range specs {
			vals := set.values(w.Name, spec.Name)
			if len(vals) == 0 {
				continue // not a metric of this workload
			}
			if spec.Name == failedShare {
				fmt.Println(metricLine(spec, float64(failed)/float64(max(attempted, 1))))
				continue
			}
			line := metricLine(spec, median(vals))
			if len(vals) >= 2 {
				line += fmt.Sprintf(", spread %.1f%% over %d runs", quartileSpread(vals)*100, len(vals))
			}
			fmt.Println(line)
		}
	}
}

// Verdicts of one comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is how far b lies on the wrong side of a, as a share of a.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// separated reports whether every reading of xs is better (or, with
// better=false, worse) than every reading of ys.
func separated(spec metricSpec, xs, ys []float64, better bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			xBetter := x < y
			if spec.Better == "higher" {
				xBetter = x > y
			}
			if xBetter != better || x == y {
				return false
			}
		}
	}
	return true
}

// verdict applies the rule of the choosing-metrics guide to runs
// measured in pairs: parent[i] and change[i] ran one after the other on
// the same seed, so the machine's drift — which moves a timing by more
// than any bound over a few minutes — falls on both alike and leaves
// their ratio alone. The change is as much worse as the median pair; it
// is ok when that is within the bound. Where the pairs spread wider than
// the bound (distance between the quartiles of their ratios) the row is
// unresolved, unless the two sets of runs do not overlap at all.
func verdict(spec metricSpec, parent, change []float64) (v string, worse, spread float64) {
	ratios := make([]float64, len(parent))
	for i := range parent {
		ratios[i] = worsening(spec, parent[i], change[i])
	}
	worse = median(ratios)
	if len(ratios) >= 2 {
		q1, q3 := quartiles(ratios)
		spread = q3 - q1
	}
	resolved := spread <= spec.Bound
	switch {
	case worse > spec.Bound && (resolved || separated(spec, change, parent, false)):
		return verdictRegressed, worse, spread
	case worse <= spec.Bound && (resolved || separated(spec, change, parent, true)):
		return verdictOK, worse, spread
	}
	return verdictUnresolved, worse, spread
}

// compareSets prints one row per end-to-end metric × workload that has
// it and returns how many rows regressed and how many are unresolved.
// failed_share is compared over all the runs of a set, not as a median:
// one failed operation anywhere counts.
func compareSets(parent, change *runSet) (regressed, unresolved int) {
	fmt.Printf("%-22s %-24s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for _, w := range workloadSpecs {
		for _, spec := range endToEnd {
			a, b := parent.values(w.Name, spec.Name), change.values(w.Name, spec.Name)
			if len(a) == 0 {
				continue // not a metric of this workload
			}
			if spec.Name == failedShare {
				aa, fa := parent.failed(w.Name)
				ab, fb := change.failed(w.Name)
				sa, sb := float64(fa)/float64(max(aa, 1)), float64(fb)/float64(max(ab, 1))
				v := verdictOK
				if sb > sa {
					v = verdictRegressed
					regressed++
				}
				fmt.Printf("%-22s %-24s %14.6f %14.6f %8s %8s %6.0f%%  %s\n", w.Name, spec.Name, sa, sb, "", "", 0.0, v)
				continue
			}
			v, worse, spread := verdict(spec, a, b)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Printf("%-22s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, spec.Name, median(a), median(b), worse*100, spread*100, spec.Bound*100, v)
		}
	}
	return regressed, unresolved
}

func compareFiles(parentPath, changePath string) error {
	parent, err := readRunSet(parentPath)
	if err != nil {
		return err
	}
	change, err := readRunSet(changePath)
	if err != nil {
		return err
	}
	for _, w := range workloadSpecs {
		if a, b := parent.seeds(w.Name), change.seeds(w.Name); !slices.Equal(a, b) {
			return fmt.Errorf("%s: the parent's runs have seeds %v and the change's %v; measure the two in turns, run for run on the same seed", w.Name, a, b)
		}
	}
	regressed, unresolved := compareSets(parent, change)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

// selfCheck is the repeatability criterion made executable: the same
// tree measured as two sets of runs, taking turns, must agree with
// itself within the benchmark's own bounds on every end-to-end metric of
// every workload, in both directions, with no failed operation in either
// set.
func selfCheck(seed int64, seconds float64, runs int) error {
	sets, err := runSets(2, seed, seconds, false, runs, defaultTraceDir)
	if err != nil {
		return err
	}
	regressed, unresolved := compareSets(sets[0], sets[1])
	back, _ := compareSets(sets[1], sets[0])
	failed := 0
	for _, r := range append(sets[0].Runs, sets[1].Runs...) {
		failed += r.Failed
	}
	fmt.Printf("selfcheck: %d rows disagree by more than their bound, %d have a spread wider than their bound, %d operations failed\n",
		regressed+back, unresolved, failed)
	if regressed+back > 0 || failed > 0 {
		return errors.New("selfcheck failed")
	}
	return nil
}
