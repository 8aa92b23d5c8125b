package main

// The catalogue: every workload and every metric the benchmark reports,
// in one place. BENCHMARK.json at the repository root repeats it for the
// driver; TestBenchmarkJSONMatchesCatalogue keeps the two in step.

// Workload names.
const (
	wlSteady    = "contact-steady"
	wlColdDrain = "contact-cold-drain"
	wlRadioRTT  = "contact-radio-rtt"
	wlLoopback  = "contact-net-loopback"
	wlSimStudy  = "sim-study"
)

// defaultSeed is the seed the harness was developed against. README.md
// names the held-out seed, reserved for checking a later claim on inputs
// the change was not written against.
const defaultSeed = 20170605

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{wlSteady, "one live contact on MemMedium, 1000-author stores: the steady delta path, where the per-Put beacon dominates CPU and heap"},
	{wlColdDrain, "first-ever contacts draining a 256-message backlog past 10000-author stores: handshake, chunked summary, planning, verify"},
	{wlRadioRTT, "contact-steady behind 20 ms + U[0,30] ms per frame: latency is protocol round trips, CPU idles, so a CPU change must not move it"},
	{wlLoopback, "contact-steady over netmedium on 127.0.0.1 (UDP beacons, TCP sessions): puts the socket medium under the same load"},
	{wlSimStudy, "in-silico Gainesville replays (10 users interest, 30 users epidemic): the only multi-node, multi-scheme workload"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen
	// On names the workloads that report the metric; nil means every
	// workload. A metric a workload does not have is left out there, not
	// filled with a stand-in.
	On []string
	// Driver marks the metrics BENCHMARK.json lists and a single-workload
	// run prints on its last line. The driver wants every listed metric
	// from every workload and none ever 0, so only metrics that every
	// workload has can be listed there.
	Driver bool
}

func (m metricSpec) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onLiveLink = []string{wlSteady, wlRadioRTT, wlLoopback}
	onContact  = []string{wlSteady, wlColdDrain, wlRadioRTT, wlLoopback}
)

// failedShare is failed ÷ attempted operations. It is 0 on a healthy
// tree, so the driver reads it from the result line's attempted and
// failed counts instead of from a metric.
const failedShare = "failed_share"

// endToEnd lists what a user of the system sees. README.md defines each
// metric and says why each bound is what it is.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "sync_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: onLiveLink},
	// On sim-study the driver's copy of goodput_msgs_per_s carries
	// sim_deliveries_per_s: messages delivered per second there too.
	{Name: "goodput_msgs_per_s", Unit: "msgs/s", Better: "higher", Bound: 0.25, On: onContact, Driver: true},
	{Name: "first_delivery_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: []string{wlColdDrain}},
	{Name: "sim_deliveries_per_s", Unit: "deliveries/s", Better: "higher", Bound: 0.15, On: []string{wlSimStudy}},
	{Name: "cpu_ms_per_msg", Unit: "ms", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "allocs_per_msg", Unit: "count", Better: "lower", Bound: 0.03, Driver: true},
	{Name: "heap_kb_per_msg", Unit: "KB", Better: "lower", Bound: 0.03, Driver: true},
	{Name: "wire_bytes_per_msg", Unit: "B", Better: "lower", Bound: 0.03, Driver: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Driver: true},
	{Name: failedShare, Unit: "ratio", Better: "lower", Bound: 0},
}

// driverEndToEnd is the part of endToEnd that BENCHMARK.json lists.
func driverEndToEnd() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.Driver {
			out = append(out, m)
		}
	}
	return out
}

// perLayer lists the traced run's ledger. No bounds: these explain an
// end-to-end movement, they do not gate one. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{Name: "core.post.busy_us_per_msg", Unit: "us", Better: "lower"},

	{Name: "msg.sign_us", Unit: "us", Better: "lower"},
	{Name: "msg.verify_us", Unit: "us", Better: "lower"},
	{Name: "msg.verifies_per_msg", Unit: "count", Better: "lower"},

	{Name: "pki.verify_us", Unit: "us", Better: "lower"},
	{Name: "pki.verifies_per_msg", Unit: "count", Better: "lower"},

	{Name: "secure.seal_open_us", Unit: "us", Better: "lower"},
	{Name: "secure.establish_us", Unit: "us", Better: "lower"},
	{Name: "secure.seals_per_msg", Unit: "count", Better: "lower"},
	{Name: "secure.open_failures", Unit: "count", Better: "lower"},

	{Name: "adhoc.handshake_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "adhoc.handshakes", Unit: "count", Better: "lower"},
	{Name: "adhoc.handshake_failures", Unit: "count", Better: "lower"},
	{Name: "adhoc.decrypt_failures", Unit: "count", Better: "lower"},
	{Name: "adhoc.received.busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "adhoc.peerfound.busy_us_per_msg", Unit: "us", Better: "lower"},

	{Name: "wire.beacon_encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.beacon_decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.batch_roundtrip_us", Unit: "us", Better: "lower"},

	{Name: "message.ads_delta_per_msg", Unit: "count", Better: "lower"},
	{Name: "message.ads_full", Unit: "count", Better: "lower"},
	{Name: "message.summary_pulls", Unit: "count", Better: "lower"},
	{Name: "message.summary_chunks", Unit: "count", Better: "lower"},
	{Name: "message.requests_per_msg", Unit: "count", Better: "lower"},
	{Name: "message.msgs_per_batch", Unit: "count", Better: "higher"},
	{Name: "message.plan_entries_per_msg", Unit: "count", Better: "lower"},
	{Name: "message.summary_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "message.payload_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "message.inflight_expired", Unit: "count", Better: "lower"},
	{Name: "message.misbehavior_events", Unit: "count", Better: "lower"},
	{Name: "message.quarantines", Unit: "count", Better: "lower"},
	{Name: "message.round_trips_per_msg", Unit: "count", Better: "lower"},

	{Name: "routing.wants.busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "routing.wants.calls_per_msg", Unit: "count", Better: "lower"},

	{Name: "store.put.busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "store.missing.busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "store.missing.calls_per_msg", Unit: "count", Better: "lower"},
	{Name: "store.summary.busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "store.summary.calls_per_msg", Unit: "count", Better: "lower"},
	{Name: "store.select.busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "store.summary_clones", Unit: "count", Better: "lower"},
	{Name: "store.stripe_lock_waits", Unit: "count", Better: "lower"},

	{Name: "mpc.beacons_per_msg", Unit: "count", Better: "lower"},
	{Name: "mpc.beacon_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "mpc.frames_per_msg", Unit: "count", Better: "lower"},
	{Name: "mpc.frame_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "mpc.handshake_bytes_per_contact", Unit: "B", Better: "lower"},
	{Name: "mpc.set_advertisement.busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "mpc.send.busy_us_per_msg", Unit: "us", Better: "lower"},

	{Name: "netmedium.beacons_sent_per_s", Unit: "1/s", Better: "lower"},
	{Name: "netmedium.frame_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "netmedium.dial_retries", Unit: "count", Better: "lower"},

	{Name: "chaos.frames_delayed", Unit: "count", Better: "lower"},
	{Name: "chaos.frames_dropped", Unit: "count", Better: "lower"},

	{Name: "sim.replay_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.replay_max_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.contacts_per_replay", Unit: "count", Better: "lower"},
	{Name: "sim.deliveries_per_replay", Unit: "count", Better: "higher"},
	{Name: "sim.frames_per_replay", Unit: "count", Better: "lower"},
	{Name: "sim.contact_sweep_us_per_tick", Unit: "us", Better: "lower"},

	{Name: "gc.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "gc.cycles_per_kmsg", Unit: "count", Better: "lower"},

	{Name: "ledger.cpu_explained_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.ambiguous_spans", Unit: "count", Better: "lower"},
	{Name: "contact.sync_latency_tail_ms", Unit: "ms", Better: "lower"},
}

func workloadNames() []string {
	out := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		out[i] = w.Name
	}
	return out
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
