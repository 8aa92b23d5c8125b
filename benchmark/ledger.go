package main

import (
	"time"

	"sos"
	"sos/internal/chaos"
	"sos/internal/core"
	"sos/internal/netmedium"
	"sos/internal/secure"
)

// counter indexes the Stats()/SecureStats() counters the ledger and the
// honest-peer health check read, summed over a workload's nodes.
type counter int

const (
	cAdsDelta counter = iota
	cAdsFull
	cSummaryPulls
	cSummaryChunks
	cRequests
	cBatches
	cServed
	cPlanEntries
	cSummaryBytes
	cPayloadBytes
	cInflightExpired
	cMisbehavior
	cQuarantines
	cReceived
	cDuplicates
	cVerifyFailures
	cHandshakes
	cHandshakeFailures
	cDecryptFailures
	cSummaryClones
	cStripeLockWaits
	cSeals
	cOpenFailures
	nCounters
)

type counts [nCounters]uint64

func (c *counts) addStats(st core.Stats, sec secure.Stats) {
	m := st.Message
	c[cAdsDelta] += m.AdsDeltaSent
	c[cAdsFull] += m.AdsFullSent
	c[cSummaryPulls] += m.SummaryPullsSent
	c[cSummaryChunks] += m.SummaryChunksSent
	c[cRequests] += m.RequestsSent
	c[cBatches] += m.BatchesSent
	c[cServed] += m.MessagesServed
	c[cPlanEntries] += m.PlanEntriesScanned
	c[cSummaryBytes] += m.SummaryBytesSent
	c[cPayloadBytes] += m.PayloadBytesSent
	c[cInflightExpired] += m.InflightExpired
	c[cMisbehavior] += m.MisbehaviorEvents
	c[cQuarantines] += m.Quarantines
	c[cReceived] += m.MessagesReceived
	c[cDuplicates] += m.Duplicates
	c[cVerifyFailures] += m.VerifyFailures
	c[cHandshakes] += st.Adhoc.HandshakesOK
	c[cHandshakeFailures] += st.Adhoc.HandshakeFailures
	c[cDecryptFailures] += st.Adhoc.DecryptionFailures
	c[cSummaryClones] += st.Store.SummaryClones
	c[cStripeLockWaits] += st.Store.StripeLockWaits
	c[cSeals] += sec.Seals
	c[cOpenFailures] += sec.OpenFailures
}

// readCounts sums the counters of the given live nodes.
func readCounts(nodes ...*sos.Node) counts {
	var c counts
	for _, n := range nodes {
		if n != nil {
			c.addStats(n.Stats(), n.SecureStats())
		}
	}
	return c
}

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a counts) add(b counts) counts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// unhealthy names the counters that must not move between honest peers.
var unhealthy = map[counter]string{
	cMisbehavior:       "misbehaviour scored",
	cQuarantines:       "peer quarantined",
	cOpenFailures:      "session frame failed to open",
	cHandshakeFailures: "handshake failed",
	cVerifyFailures:    "message failed verification",
}

// checkHealth fails one operation per unhealthy event in delta.
func checkHealth(delta counts, op, phase string, nodes map[string]*sos.Node, t *tally) {
	for c, what := range unhealthy {
		for i := uint64(0); i < delta[c]; i++ {
			t.fail(failure{Op: op, Phase: phase, Reason: what + " between honest peers", Nodes: snapshotNodes(nodes)})
		}
	}
}

// layerTotals accumulates, over the measured sections of the traced
// rounds, everything the per-layer metrics are computed from.
type layerTotals struct {
	delivered int
	signed    int // messages authored (signed) inside the measured sections
	contacts  int // handshakes whose bytes medium.handshakeBytes holds
	seconds   float64
	cost      meter
	medium    mediumCount
	counts    counts
	busy      map[string]time.Duration
	calls     map[string]int
	// handshakeMs are join → ContactUp times, one per fresh node.
	handshakeMs []float64

	net   netmedium.Stats
	chaos chaos.Stats

	simContacts  uint64
	simFrames    uint64
	simDelivered int
}

func (a *layerTotals) merge(b *layerTotals) {
	a.delivered += b.delivered
	a.signed += b.signed
	a.contacts += b.contacts
	a.seconds += b.seconds
	a.cost = a.cost.add(b.cost)
	a.medium = a.medium.add(b.medium)
	a.counts = a.counts.add(b.counts)
	if a.busy == nil {
		a.busy, a.calls = make(map[string]time.Duration), make(map[string]int)
	}
	for k, v := range b.busy {
		a.busy[k] += v
	}
	for k, v := range b.calls {
		a.calls[k] += v
	}
	a.handshakeMs = append(a.handshakeMs, b.handshakeMs...)
	a.net.BeaconsSent += b.net.BeaconsSent
	a.net.FrameBytesSent += b.net.FrameBytesSent
	a.net.DialRetries += b.net.DialRetries
	a.chaos.FramesDelayed += b.chaos.FramesDelayed
	a.chaos.FramesDropped += b.chaos.FramesDropped
	a.simContacts += b.simContacts
	a.simFrames += b.simFrames
	a.simDelivered += b.simDelivered
}

// pace is the round's headline timing samples, for comparing a traced
// round with an untraced one: sync latency where the workload has a live
// link, else first delivery, else replay time.
func (r roundResult) pace() []float64 {
	switch {
	case len(r.latencyMs) > 0:
		return r.latencyMs
	case len(r.firstMs) > 0:
		return r.firstMs
	}
	return r.replayMs
}

// meanOneWayDelayMs is the radio workload's mean per-frame delay:
// 20 ms fixed plus U[0,30] ms jitter.
const meanOneWayDelayMs = 35.0

// perLayerMetrics fills the ledger from the traced rounds, with the
// untraced first round as the base for the tracing overhead.
func perLayerMetrics(res *runResult, cfg runConfig, rounds []roundResult, u unitCosts, tr *tracer) {
	var tot layerTotals
	var tracedLat, tracedReplay, tracedPace, basePace []float64
	for _, r := range rounds {
		if r.layers == nil {
			basePace = append(basePace, r.pace()...)
			continue
		}
		tot.merge(r.layers)
		tracedLat = append(tracedLat, r.latencyMs...)
		tracedReplay = append(tracedReplay, r.replayMs...)
		tracedPace = append(tracedPace, r.pace()...)
	}
	n := float64(max(tot.delivered, 1))
	perMsg := func(v float64) float64 { return v / n }
	busyUS := func(name string) float64 { return perMsg(float64(tot.busy[name].Nanoseconds()) / 1e3) }
	callsPer := func(name string) float64 { return perMsg(float64(tot.calls[name])) }
	c := func(k counter) float64 { return float64(tot.counts[k]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := make(map[string]float64, len(perLayer))
	m["core.post.busy_us_per_msg"] = busyUS("core.post")

	// Every message a node accepts or rejects was verified once: its
	// signature by msg, its author certificate by pki. A handshake
	// verifies the peer's certificate once on each side.
	verifies := c(cReceived) + c(cDuplicates) + c(cVerifyFailures)
	m["msg.sign_us"] = u.sign
	signsPerMsg := perMsg(float64(tot.signed))
	m["msg.verify_us"] = u.verify
	m["msg.verifies_per_msg"] = perMsg(verifies)
	m["pki.verify_us"] = u.pkiVerify
	m["pki.verifies_per_msg"] = perMsg(verifies + c(cHandshakes))

	m["secure.seal_open_us"] = u.sealOpen
	m["secure.establish_us"] = u.establish
	m["secure.seals_per_msg"] = perMsg(c(cSeals))
	m["secure.open_failures"] = c(cOpenFailures)

	m["adhoc.handshake_p50_ms"] = median(tot.handshakeMs)
	m["adhoc.handshakes"] = c(cHandshakes)
	m["adhoc.handshake_failures"] = c(cHandshakeFailures)
	m["adhoc.decrypt_failures"] = c(cDecryptFailures)
	m["adhoc.received.busy_us_per_msg"] = busyUS("adhoc.received")
	m["adhoc.peerfound.busy_us_per_msg"] = busyUS("adhoc.peerfound")

	m["wire.beacon_encode_us"] = u.beaconEnc
	m["wire.beacon_decode_us"] = u.beaconDec
	m["wire.batch_roundtrip_us"] = u.batchRoundTrip

	m["message.ads_delta_per_msg"] = perMsg(c(cAdsDelta))
	m["message.ads_full"] = c(cAdsFull)
	m["message.summary_pulls"] = c(cSummaryPulls)
	m["message.summary_chunks"] = c(cSummaryChunks)
	m["message.requests_per_msg"] = perMsg(c(cRequests))
	m["message.msgs_per_batch"] = ratio(c(cServed), c(cBatches))
	m["message.plan_entries_per_msg"] = perMsg(c(cPlanEntries))
	m["message.summary_bytes_per_msg"] = perMsg(c(cSummaryBytes))
	m["message.payload_bytes_per_msg"] = perMsg(c(cPayloadBytes))
	m["message.inflight_expired"] = c(cInflightExpired)
	m["message.misbehavior_events"] = c(cMisbehavior)
	m["message.quarantines"] = c(cQuarantines)
	if cfg.workload == wlRadioRTT {
		m["message.round_trips_per_msg"] = median(tracedLat) / meanOneWayDelayMs
	}

	m["routing.wants.busy_us_per_msg"] = busyUS("routing.wants")
	m["routing.wants.calls_per_msg"] = callsPer("routing.wants")

	m["store.put.busy_us_per_msg"] = busyUS("store.put")
	m["store.missing.busy_us_per_msg"] = busyUS("store.missing")
	m["store.missing.calls_per_msg"] = callsPer("store.missing")
	m["store.summary.busy_us_per_msg"] = busyUS("store.summary")
	m["store.summary.calls_per_msg"] = callsPer("store.summary")
	m["store.select.busy_us_per_msg"] = busyUS("store.select")
	m["store.summary_clones"] = c(cSummaryClones)
	m["store.stripe_lock_waits"] = c(cStripeLockWaits)

	m["mpc.beacons_per_msg"] = perMsg(float64(tot.medium.beacons))
	m["mpc.beacon_bytes_per_msg"] = perMsg(float64(tot.medium.beaconBytes))
	m["mpc.frames_per_msg"] = perMsg(float64(tot.medium.frames))
	m["mpc.frame_bytes_per_msg"] = perMsg(float64(tot.medium.frameBytes))
	m["mpc.handshake_bytes_per_contact"] = ratio(float64(tot.medium.handshakeBytes), float64(tot.contacts))
	m["mpc.set_advertisement.busy_us_per_msg"] = busyUS("mpc.set_advertisement")
	m["mpc.send.busy_us_per_msg"] = busyUS("mpc.send")

	m["netmedium.beacons_sent_per_s"] = ratio(float64(tot.net.BeaconsSent), tot.seconds)
	m["netmedium.frame_bytes_per_msg"] = perMsg(float64(tot.net.FrameBytesSent))
	m["netmedium.dial_retries"] = float64(tot.net.DialRetries)

	m["chaos.frames_delayed"] = float64(tot.chaos.FramesDelayed)
	m["chaos.frames_dropped"] = float64(tot.chaos.FramesDropped)

	replays := float64(len(tracedReplay))
	m["sim.replay_p50_ms"] = median(tracedReplay)
	m["sim.replay_max_ms"] = percentile(tracedReplay, 100)
	m["sim.contacts_per_replay"] = ratio(float64(tot.simContacts), replays)
	m["sim.deliveries_per_replay"] = ratio(float64(tot.simDelivered), replays)
	m["sim.frames_per_replay"] = ratio(float64(tot.simFrames), replays)
	m["sim.contact_sweep_us_per_tick"] = u.contactSweepPerTickUS

	cpuUS := float64(tot.cost.cpu.Nanoseconds()) / 1e3
	m["gc.cpu_share"] = ratio(tot.cost.gcCPU*1e6, cpuUS)
	m["gc.cycles_per_kmsg"] = perMsg(float64(tot.cost.gcCycles)) * 1000

	m["ledger.cpu_explained_share"] = ratio(explainedUSPerMsg(m, u, signsPerMsg), perMsg(cpuUS))
	m["trace.overhead_share"] = ratio(median(tracedPace), median(basePace)) - 1
	if tr != nil {
		_, ambiguous := tr.mark()
		m["trace.ambiguous_spans"] = float64(ambiguous)
	}
	if p, ok := tailPercentile(len(tracedLat)); ok {
		m["contact.sync_latency_tail_ms"] = percentile(tracedLat, p)
		res.Samples["contact.sync_latency_tail_percentile_x10"] = int(p * 10)
	}

	res.Samples["messages"] = tot.delivered
	res.Samples["contact.sync_latency_tail_ms"] = len(tracedLat)
	res.Samples["adhoc.handshake_p50_ms"] = len(tot.handshakeMs)
	for _, spec := range perLayer {
		res.Metrics[spec.Name] = metricValue{Value: m[spec.Name], Unit: spec.Unit}
	}
}

// explainedUSPerMsg is the ledger's numerator: the busy time of the
// interposed leaf layers (store, mpc, routing), which the shims measured
// directly, plus unit cost × count for the layers that run inside the
// opaque core.post and adhoc.* spans (msg, pki, secure, wire). What is
// left of traced CPU per message — scheduling, the message manager's own
// bookkeeping, garbage collection — is the unexplained remainder.
func explainedUSPerMsg(m map[string]float64, u unitCosts, signsPerMsg float64) float64 {
	leaves := m["store.put.busy_us_per_msg"] + m["store.missing.busy_us_per_msg"] +
		m["store.summary.busy_us_per_msg"] + m["store.select.busy_us_per_msg"] +
		m["mpc.set_advertisement.busy_us_per_msg"] + m["mpc.send.busy_us_per_msg"] +
		m["routing.wants.busy_us_per_msg"]
	batchesPerMsg := 0.0
	if m["message.msgs_per_batch"] > 0 {
		batchesPerMsg = 1 / m["message.msgs_per_batch"]
	}
	priced := u.sign*signsPerMsg +
		u.verify*m["msg.verifies_per_msg"] +
		u.pkiVerify*m["pki.verifies_per_msg"] +
		u.sealOpen*m["secure.seals_per_msg"] +
		(u.beaconEnc+u.beaconDec)*m["mpc.beacons_per_msg"] +
		u.batchRoundTrip*batchesPerMsg
	return leaves + priced
}
