package main

import (
	"fmt"
	"runtime"
	runtimemetrics "runtime/metrics"
	"syscall"
	"time"

	"sos"
	"sos/internal/core"
	"sos/internal/secure"
)

// A workload is a sequence of rounds. A round sets the system up from
// nothing, then runs a measured section whose work is fixed by count —
// so many posts, so many cold contacts, so many replays — never by
// duration: per-message cost grows with how much a store already holds,
// so a duration-sized section would hand a faster build more, costlier
// work. The run's time budget only decides how many rounds are sampled.
// Every round is built the same way, so rounds are repeat measurements
// and the run reports medians over them.

// opDeadline bounds every operation of the contact workloads; a miss is
// a failed operation, not a crash.
const opDeadline = 10 * time.Second

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	// short shrinks every count to smoke-test size (go test only): the
	// numbers mean nothing, the code paths are the same.
	short bool
}

// pick returns the smoke size under -short and the real size otherwise.
func (c runConfig) pick(full, short int) int {
	if c.short {
		return short
	}
	return full
}

// failure explains one failed operation: what was being done, in which
// phase, why it counts as failed, and what both nodes' counters read at
// that instant.
type failure struct {
	Op     string                  `json:"op"`
	Phase  string                  `json:"phase"`
	Reason string                  `json:"reason"`
	Nodes  map[string]nodeSnapshot `json:"nodes,omitempty"`
}

type nodeSnapshot struct {
	Stats  core.Stats   `json:"stats"`
	Secure secure.Stats `json:"secure"`
}

func snapshotNodes(nodes map[string]*sos.Node) map[string]nodeSnapshot {
	out := make(map[string]nodeSnapshot, len(nodes))
	for name, n := range nodes {
		if n != nil {
			out[name] = nodeSnapshot{Stats: n.Stats(), Secure: n.SecureStats()}
		}
	}
	return out
}

// maxFailureRecords caps the explanations kept; the count is never
// capped.
const maxFailureRecords = 32

// tally accumulates attempted and failed operations and their
// explanations.
type tally struct {
	attempted, failed int
	failures          []failure
}

func (t *tally) attempt(n int) { t.attempted += n }

func (t *tally) fail(f failure) {
	t.failed++
	if len(t.failures) < maxFailureRecords {
		t.failures = append(t.failures, f)
	}
}

// meter is a reading of the process-wide costs the end-to-end metrics
// are made of.
type meter struct {
	cpu        time.Duration // user+sys, getrusage
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // seconds, runtime/metrics
}

var gcCPUSample = []runtimemetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtimemetrics.Read(gcCPUSample)
	m := meter{cpu: processCPU(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if gcCPUSample[0].Value.Kind() == runtimemetrics.KindFloat64 {
		m.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return m
}

func (a meter) sub(b meter) meter {
	return meter{
		cpu:        a.cpu - b.cpu,
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

func (a meter) add(b meter) meter {
	return meter{
		cpu:        a.cpu + b.cpu,
		mallocs:    a.mallocs + b.mallocs,
		allocBytes: a.allocBytes + b.allocBytes,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcCPU:      a.gcCPU + b.gcCPU,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// roundResult is what one round measured.
type roundResult struct {
	setup     time.Duration
	delivered int          // messages delivered in the measured section
	cost      meter        // process cost of the measured section
	wireBytes uint64       // bytes handed to the medium in the measured section
	goodput   float64      // messages per second, as the workload defines it
	latencyMs []float64    // Post → OnReceive, serial phase
	firstMs   []float64    // NewNode → first OnReceive, cold cycles
	replayMs  []float64    // sim.New + Run, every replay
	layers    *layerTotals // traced rounds only
}

// workload runs rounds; each implementation owns its inputs.
type workload interface {
	// round runs one round, with the timing shims on when tr is not nil.
	// A returned error is a harness error (the benchmark itself broke);
	// failed operations go to the tally.
	round(idx int, tr *tracer, t *tally) (roundResult, error)
	// shapes describes the traffic for calibration after the rounds.
	shapes() shapes
}

// runResult is one run's outcome.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Rounds    int                    `json:"rounds"`
	Samples   map[string]int         `json:"samples"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []failure              `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`
	// RoundLog has one line per untraced round: what the medians over
	// rounds were taken from.
	RoundLog []string `json:"-"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs rounds of one workload until the time budget is
// spent and assembles the metrics: end-to-end when untraced, per-layer
// when traced.
func runWorkload(cfg runConfig, processStart time.Time) (*runResult, error) {
	in := &inputs{seed: cfg.seed}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	w, err := newWorkload(cfg, in)
	if err != nil {
		return nil, err
	}

	var (
		t       tally
		rounds  []roundResult
		longest time.Duration
		budget  = time.Duration(cfg.seconds * float64(time.Second))
		begun   = time.Now()
	)
	for idx := 0; ; idx++ {
		roundStart := time.Now()
		// The traced run keeps its first round untraced: the same code on
		// the same machine seconds apart is the fairest base for
		// trace.overhead_share.
		roundTracer := tr
		if idx == 0 {
			roundTracer = nil
		}
		r, err := w.round(idx, roundTracer, &t)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", cfg.workload, idx, err)
		}
		if idx == 0 {
			// The first round's set-up starts when the process does.
			r.setup += roundStart.Sub(processStart)
		}
		rounds = append(rounds, r)
		// Go on only while another round as long as the longest so far
		// still fits; the traced run needs at least one round of each kind.
		longest = max(longest, time.Since(roundStart))
		enough := !cfg.traced || idx >= 1
		if enough && time.Since(begun)+longest > budget {
			break
		}
	}

	res := &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Rounds: len(rounds),
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
		Samples: make(map[string]int), Metrics: make(map[string]metricValue),
	}
	if !cfg.traced {
		endToEndMetrics(res, rounds)
		return res, nil
	}
	costs, err := calibrate(in, w.shapes(), cfg.workload == wlSimStudy)
	if err != nil {
		return nil, fmt.Errorf("calibrating unit costs: %w", err)
	}
	perLayerMetrics(res, cfg, rounds, costs, tr)
	if cfg.outDir != "" {
		path, err := tr.writeChrome(cfg.outDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	return res, nil
}

// endToEndMetrics fills the user-visible metrics from untraced rounds,
// each only on the workloads that have it. Timings are medians — over
// every latency sample of the run, and over rounds for rates — so one
// disturbed round does not move them. The counted costs (allocations,
// heap bytes, wire bytes) have no disturbed rounds, only inputs that
// differ from round to round, so they are totals over the run divided by
// its deliveries.
func endToEndMetrics(res *runResult, rounds []roundResult) {
	var setup, goodput, cpu, latency, first []float64
	var total roundResult
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		latency = append(latency, r.latencyMs...)
		first = append(first, r.firstMs...)
		if r.delivered == 0 {
			continue
		}
		goodput = append(goodput, r.goodput)
		cpu = append(cpu, float64(r.cost.cpu.Nanoseconds())/1e6/float64(r.delivered))
		res.RoundLog = append(res.RoundLog, fmt.Sprintf("set-up %.4f s, %.1f messages/s, %.4f ms CPU per message",
			r.setup.Seconds(), r.goodput, cpu[len(cpu)-1]))
		total.delivered += r.delivered
		total.cost = total.cost.add(r.cost)
		total.wireBytes += r.wireBytes
	}
	n := float64(max(total.delivered, 1))
	res.Samples["rounds"] = len(rounds)
	res.Samples["messages"] = total.delivered
	set := func(name string, v float64, samples int) {
		spec, _ := findMetric(endToEnd, name)
		if !spec.on(res.Workload) {
			return
		}
		res.Metrics[name] = metricValue{Value: v, Unit: spec.Unit}
		if samples > 0 {
			res.Samples[name] = samples
		}
	}
	set("setup_s", median(setup), len(setup))
	set("sync_latency_p50_ms", median(latency), len(latency))
	set("goodput_msgs_per_s", median(goodput), len(goodput))
	set("first_delivery_p50_ms", median(first), len(first))
	set("sim_deliveries_per_s", median(goodput), len(goodput))
	set("cpu_ms_per_msg", median(cpu), len(cpu))
	set("allocs_per_msg", float64(total.cost.mallocs)/n, 0)
	set("heap_kb_per_msg", float64(total.cost.allocBytes)/1024/n, 0)
	set("wire_bytes_per_msg", float64(total.wireBytes)/n, 0)
	set("peak_rss_mb", peakRSSMB(), 0)
	set(failedShare, float64(res.Failed)/float64(max(res.Attempted, 1)), 0)
}

// driverMetrics is what the last line of a run carries: the per-layer
// ledger of a traced run, and of an untraced run the end-to-end metrics
// BENCHMARK.json lists — the ones every workload has.
func driverMetrics(res *runResult) map[string]metricValue {
	if res.Traced {
		return res.Metrics
	}
	out := make(map[string]metricValue)
	for _, spec := range driverEndToEnd() {
		v, ok := res.Metrics[spec.Name]
		if !ok && spec.Name == "goodput_msgs_per_s" {
			// sim-study: messages delivered per second is its
			// sim_deliveries_per_s.
			v = metricValue{Value: res.Metrics["sim_deliveries_per_s"].Value, Unit: spec.Unit}
		}
		out[spec.Name] = v
	}
	return out
}
