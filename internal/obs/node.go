package obs

import (
	"sos/internal/chaos"
	"sos/internal/core"
	"sos/internal/netmedium"
	"sos/internal/telemetry"
)

// NodeMetrics binds the sources RegisterNodeMetrics bridges into a
// registry. Middleware is required; the rest are optional and skipped
// when nil.
type NodeMetrics struct {
	// Middleware supplies the message/adhoc/store counters and the
	// sync-plane gauges.
	Middleware *core.Middleware
	// Medium supplies the transport-plane counters (beacons, sessions,
	// frames) when the node runs on a netmedium instance.
	Medium *netmedium.Medium
	// Exporter supplies the telemetry export-plane counters and queue
	// depth when the node streams events to a collector.
	Exporter *telemetry.Exporter
	// Chaos supplies the fault-injection counters when the node's medium
	// is wrapped by a chaos.Medium (lab adversarial scenarios).
	Chaos *chaos.Medium
}

// RegisterNodeMetrics wires a node's layer statistics into reg as
// Prometheus series. Every series is a scrape-time bridge: the layers
// keep their own counters (mutex- or atomic-guarded) and the registered
// funcs read a snapshot only when /metrics is rendered, so registration
// adds zero cost to the message hot paths.
//
// The catalog (see docs/OBSERVABILITY.md):
//
//	sos_message_*    message-plane counters (received, served, dupes…)
//	sos_sync_*       contact-sync plane: full/delta ads, gap pulls,
//	                 and the peers/links/summary-entries gauges
//	sos_store_*      storage engine: puts, evictions by reason, bytes
//	sos_adhoc_*      secure-link layer: handshakes, frames, rejects
//	sos_pki_*        certificate verification: hits, misses, rejections
//	sos_net_*        transport: beacons, sessions, frames and bytes
//	sos_secure_*     AEAD plane: seals/opens and their failures
//	sos_telemetry_*  export plane: recorded/sent/dropped, queue depth
//	sos_chaos_*      fault injection: frames dropped/duplicated/…,
//	                 partition transitions (chaos-wrapped media only)
func RegisterNodeMetrics(reg *Registry, nm NodeMetrics) {
	if mw := nm.Middleware; mw != nil {
		// Message plane.
		reg.CounterFunc("sos_message_received_total", "Messages received from peers.", nil,
			func() uint64 { return mw.Stats().Message.MessagesReceived })
		reg.CounterFunc("sos_message_served_total", "Messages served to peers.", nil,
			func() uint64 { return mw.Stats().Message.MessagesServed })
		reg.CounterFunc("sos_message_duplicates_total", "Received messages already held.", nil,
			func() uint64 { return mw.Stats().Message.Duplicates })
		reg.CounterFunc("sos_message_verify_failures_total", "Received messages failing signature or certificate checks.", nil,
			func() uint64 { return mw.Stats().Message.VerifyFailures })
		reg.CounterFunc("sos_message_transfers_aborted_total", "Requested messages whose Request died with the link, counted on the requesting node.", nil,
			func() uint64 { return mw.Stats().Message.TransfersAborted })
		reg.CounterFunc("sos_message_connects_attempted_total", "Contact-triggered connection attempts.", nil,
			func() uint64 { return mw.Stats().Message.ConnectsAttempted })
		reg.CounterFunc("sos_message_batches_total", "Message batches moved.", Labels{"dir": "sent"},
			func() uint64 { return mw.Stats().Message.BatchesSent })
		reg.CounterFunc("sos_message_batches_total", "Message batches moved.", Labels{"dir": "received"},
			func() uint64 { return mw.Stats().Message.BatchesReceived })
		reg.CounterFunc("sos_message_requests_total", "Message pull requests moved.", Labels{"dir": "sent"},
			func() uint64 { return mw.Stats().Message.RequestsSent })
		reg.CounterFunc("sos_message_requests_total", "Message pull requests moved.", Labels{"dir": "received"},
			func() uint64 { return mw.Stats().Message.RequestsReceived })
		reg.CounterFunc("sos_message_requests_total", "Message pull requests moved.", Labels{"dir": "unserved"},
			func() uint64 { return mw.Stats().Message.RequestsUnserved })
		reg.CounterFunc("sos_message_payload_bytes_sent_total", "In-session data-plane bytes sent (requests, batches).", nil,
			func() uint64 { return mw.Stats().Message.PayloadBytesSent })
		reg.CounterFunc("sos_message_inflight_expired_total", "Requested messages released for re-planning because their Request or its Batch was lost: found by the resync heartbeat, or by a Batch answering a later Request.", nil,
			func() uint64 { return mw.Stats().Message.InflightExpired })

		// Contact-sync plane — the counters the loopback e2e smoke
		// asserts are nonzero after an exchange.
		reg.CounterFunc("sos_sync_ads_full_sent_total", "Full summary advertisements sent in-session.", nil,
			func() uint64 { return mw.Stats().Message.AdsFullSent })
		reg.CounterFunc("sos_sync_ads_delta_sent_total", "Delta summary advertisements sent in-session.", nil,
			func() uint64 { return mw.Stats().Message.AdsDeltaSent })
		reg.CounterFunc("sos_sync_summary_pulls_sent_total", "SummaryPull frames sent to heal generation gaps.", nil,
			func() uint64 { return mw.Stats().Message.SummaryPullsSent })
		reg.CounterFunc("sos_sync_summary_pulls_served_total", "SummaryPull frames served to peers.", nil,
			func() uint64 { return mw.Stats().Message.SummaryPullsServed })
		reg.CounterFunc("sos_sync_summary_chunks_sent_total", "Frames of chunked full-summary streams sent.", nil,
			func() uint64 { return mw.Stats().Message.SummaryChunksSent })
		reg.CounterFunc("sos_sync_plan_entries_scanned_total", "Summary entries read by request planning's floor pass.", nil,
			func() uint64 { return mw.Stats().Message.PlanEntriesScanned })
		reg.CounterFunc("sos_sync_summary_bytes_sent_total", "In-session sync-plane bytes sent (advertisements, summary pulls).", nil,
			func() uint64 { return mw.Stats().Message.SummaryBytesSent })
		reg.GaugeFunc("sos_sync_peers", "Peer slots held: every peer in range or linked.", nil,
			func() float64 { p, _, _ := mw.SyncState(); return float64(p) })
		reg.GaugeFunc("sos_sync_links", "Peers currently linked.", nil,
			func() float64 { _, l, _ := mw.SyncState(); return float64(l) })
		reg.GaugeFunc("sos_sync_summary_entries", "Inbound summary entries cached across all peers.", nil,
			func() float64 { _, _, e := mw.SyncState(); return float64(e) })

		// Storage engine.
		reg.CounterFunc("sos_store_puts_total", "Accepted inserts.", nil,
			func() uint64 { return mw.Stats().Store.Puts })
		reg.CounterFunc("sos_store_duplicates_total", "Rejected re-inserts.", nil,
			func() uint64 { return mw.Stats().Store.Duplicates })
		reg.CounterFunc("sos_store_evictions_total", "Messages dropped from the buffer.", Labels{"reason": "capacity"},
			func() uint64 { return mw.Stats().Store.Evictions })
		reg.CounterFunc("sos_store_evictions_total", "Messages dropped from the buffer.", Labels{"reason": "expired"},
			func() uint64 { return mw.Stats().Store.Expirations })
		reg.CounterFunc("sos_store_evicted_bytes_total", "Bytes freed by evictions and expirations.", nil,
			func() uint64 { return mw.Stats().Store.EvictedBytes })
		reg.GaugeFunc("sos_store_messages", "Messages currently buffered.", nil,
			func() float64 { return float64(mw.Stats().Store.Messages) })
		reg.GaugeFunc("sos_store_bytes", "Bytes currently buffered.", nil,
			func() float64 { return float64(mw.Stats().Store.Bytes) })
		reg.GaugeFunc("sos_store_summary_generation", "Current summary generation.", nil,
			func() float64 { return float64(mw.Stats().Store.Generation) })
		reg.CounterFunc("sos_store_summary_clones_total", "Copy-on-write summary-stripe clones forced by outstanding snapshots.", nil,
			func() uint64 { return mw.Stats().Store.SummaryClones })
		reg.CounterFunc("sos_store_summary_stripe_lock_wait_total", "Contended acquisitions of a summary-stripe lock.", nil,
			func() uint64 { return mw.Stats().Store.StripeLockWaits })

		// Secure-link (ad hoc) layer.
		reg.CounterFunc("sos_adhoc_handshakes_total", "Link handshake outcomes.", Labels{"result": "ok"},
			func() uint64 { return mw.Stats().Adhoc.HandshakesOK })
		reg.CounterFunc("sos_adhoc_handshakes_total", "Link handshake outcomes.", Labels{"result": "failed"},
			func() uint64 { return mw.Stats().Adhoc.HandshakeFailures })
		reg.CounterFunc("sos_adhoc_handshakes_total", "Link handshake outcomes.", Labels{"result": "tie_break"},
			func() uint64 { return mw.Stats().Adhoc.TieBreaks })
		reg.CounterFunc("sos_adhoc_cert_rejections_total", "Peers rejected for bad or revoked certificates.", nil,
			func() uint64 { return mw.Stats().Adhoc.CertRejections })
		reg.CounterFunc("sos_adhoc_frames_total", "Sealed link frames moved.", Labels{"dir": "sent"},
			func() uint64 { return mw.Stats().Adhoc.FramesSent })
		reg.CounterFunc("sos_adhoc_frames_total", "Sealed link frames moved.", Labels{"dir": "received"},
			func() uint64 { return mw.Stats().Adhoc.FramesReceived })
		reg.CounterFunc("sos_adhoc_decryption_failures_total", "Link frames that failed authenticated decryption.", nil,
			func() uint64 { return mw.Stats().Adhoc.DecryptionFailures })

		// Certificate verification: every layer shares the node's one
		// verifier, so these cover handshakes and received messages alike.
		reg.CounterFunc("sos_pki_verify_total", "Certificate verification outcomes.", Labels{"result": "hit"},
			func() uint64 { return mw.Stats().PKI.Hits })
		reg.CounterFunc("sos_pki_verify_total", "Certificate verification outcomes.", Labels{"result": "miss"},
			func() uint64 { return mw.Stats().PKI.Misses })
		reg.CounterFunc("sos_pki_verify_total", "Certificate verification outcomes.", Labels{"result": "rejected"},
			func() uint64 { return mw.Stats().PKI.Rejected })
		reg.GaugeFunc("sos_pki_cached_certs", "Verified certificates the node remembers.", nil,
			func() float64 { return float64(mw.Stats().PKI.Entries) })

		// Misbehavior plane: the quarantine machinery that isolates
		// byzantine peers (see internal/message/misbehavior.go).
		reg.CounterFunc("sos_sync_misbehavior_total", "Misbehavior signals scored against peers.", nil,
			func() uint64 { return mw.Stats().Message.MisbehaviorEvents })
		reg.CounterFunc("sos_sync_quarantine_total", "Peers tripped into quarantine.", nil,
			func() uint64 { return mw.Stats().Message.Quarantines })
		reg.CounterFunc("sos_sync_quarantine_refusals_total", "Contacts and links refused while a peer was quarantined.", nil,
			func() uint64 { return mw.Stats().Message.QuarantineRefusals })
		reg.CounterFunc("sos_sync_reconnects_total", "Resync-heartbeat re-dials of peers whose link dropped or never came up.", nil,
			func() uint64 { return mw.Stats().Message.Reconnects })
	}

	if med := nm.Medium; med != nil {
		reg.CounterFunc("sos_net_beacons_total", "Discovery beacons on the UDP plane.", Labels{"dir": "sent"},
			func() uint64 { return med.Stats().BeaconsSent })
		reg.CounterFunc("sos_net_beacons_total", "Discovery beacons on the UDP plane.", Labels{"dir": "received"},
			func() uint64 { return med.Stats().BeaconsReceived })
		reg.CounterFunc("sos_net_sessions_total", "TCP session lifecycle events.", Labels{"event": "dialed"},
			func() uint64 { return med.Stats().SessionsDialed })
		reg.CounterFunc("sos_net_sessions_total", "TCP session lifecycle events.", Labels{"event": "accepted"},
			func() uint64 { return med.Stats().SessionsAccepted })
		reg.CounterFunc("sos_net_sessions_total", "TCP session lifecycle events.", Labels{"event": "closed"},
			func() uint64 { return med.Stats().SessionsClosed })
		reg.CounterFunc("sos_net_dial_failures_total", "Connect attempts that produced no session.", nil,
			func() uint64 { return med.Stats().DialFailures })
		reg.CounterFunc("sos_net_frames_total", "Session frames on the TCP plane.", Labels{"dir": "sent"},
			func() uint64 { return med.Stats().FramesSent })
		reg.CounterFunc("sos_net_frames_total", "Session frames on the TCP plane.", Labels{"dir": "received"},
			func() uint64 { return med.Stats().FramesReceived })
		reg.CounterFunc("sos_net_frame_bytes_total", "Session frame bytes on the TCP plane.", Labels{"dir": "sent"},
			func() uint64 { return med.Stats().FrameBytesSent })
		reg.CounterFunc("sos_net_frame_bytes_total", "Session frame bytes on the TCP plane.", Labels{"dir": "received"},
			func() uint64 { return med.Stats().FrameBytesReceived })
		reg.CounterFunc("sos_net_dial_retries_total", "Session dials to a peer whose previous dial from the same endpoint failed: heartbeat re-dials as the medium sees them.", nil,
			func() uint64 { return med.Stats().DialRetries })
	}

	if ch := nm.Chaos; ch != nil {
		reg.CounterFunc("sos_chaos_frames_total", "Frames handled by the chaos medium.", Labels{"action": "passed"},
			func() uint64 { return ch.Stats().FramesPassed })
		reg.CounterFunc("sos_chaos_frames_total", "Frames handled by the chaos medium.", Labels{"action": "dropped"},
			func() uint64 { return ch.Stats().FramesDropped })
		reg.CounterFunc("sos_chaos_frames_total", "Frames handled by the chaos medium.", Labels{"action": "duplicated"},
			func() uint64 { return ch.Stats().FramesDuplicated })
		reg.CounterFunc("sos_chaos_frames_total", "Frames handled by the chaos medium.", Labels{"action": "reordered"},
			func() uint64 { return ch.Stats().FramesReordered })
		reg.CounterFunc("sos_chaos_frames_total", "Frames handled by the chaos medium.", Labels{"action": "delayed"},
			func() uint64 { return ch.Stats().FramesDelayed })
		reg.CounterFunc("sos_chaos_frames_total", "Frames handled by the chaos medium.", Labels{"action": "oneway-dropped"},
			func() uint64 { return ch.Stats().OneWayDrops })
		reg.CounterFunc("sos_chaos_partitions_total", "Scheduled partition transitions.", Labels{"event": "started"},
			func() uint64 { return ch.Stats().PartitionsStarted })
		reg.CounterFunc("sos_chaos_partitions_total", "Scheduled partition transitions.", Labels{"event": "healed"},
			func() uint64 { return ch.Stats().PartitionsHealed })
	}

	// AEAD counters, from the node's scoped recorder (parallel fleets in
	// one process stay separated).
	if mw := nm.Middleware; mw != nil {
		reg.CounterFunc("sos_secure_seals_total", "Frames sealed.", nil,
			func() uint64 { return mw.SecureStats().Seals })
		reg.CounterFunc("sos_secure_opens_total", "Frames authenticated and opened.", nil,
			func() uint64 { return mw.SecureStats().Opens })
		reg.CounterFunc("sos_secure_seal_failures_total", "Seal calls rejected (closed session, exhausted sequence space).", nil,
			func() uint64 { return mw.SecureStats().SealFailures })
		reg.CounterFunc("sos_secure_open_failures_total", "Frames rejected: short, replayed, epoch out of window, or failing authentication.", nil,
			func() uint64 { return mw.SecureStats().OpenFailures })
		reg.CounterFunc("sos_secure_rotations_total", "Epoch key rotations completed (send ratchet steps, receive epoch adoptions, signed-prekey rotations).", nil,
			func() uint64 { return mw.SecureStats().Rotations })
		reg.CounterFunc("sos_secure_replay_rejected_total", "Frames and envelope nonces rejected by replay checks.", nil,
			func() uint64 { return mw.SecureStats().ReplayRejected })
		reg.GaugeFunc("sos_secure_prekeys_remaining", "Unissued one-time prekeys left in the node's pool.", nil,
			func() float64 { return float64(mw.PrekeysRemaining()) })
		// Bundle exchange at LinkUp (counted by the message manager, which
		// vets each bundle): a rejection is scored misbehavior.
		reg.CounterFunc("sos_prekey_bundles_total", "Prekey bundles exchanged at link-up.", Labels{"result": "sent"},
			func() uint64 { return mw.Stats().Message.PrekeyBundlesSent })
		reg.CounterFunc("sos_prekey_bundles_total", "Prekey bundles exchanged at link-up.", Labels{"result": "accepted"},
			func() uint64 { return mw.Stats().Message.PrekeyBundlesReceived })
		reg.CounterFunc("sos_prekey_bundles_total", "Prekey bundles exchanged at link-up.", Labels{"result": "rejected"},
			func() uint64 { return mw.Stats().Message.PrekeyRejects })
	}

	if exp := nm.Exporter; exp != nil {
		reg.CounterFunc("sos_telemetry_recorded_total", "Events handed to the exporter.", nil,
			func() uint64 { return exp.Stats().Recorded })
		reg.CounterFunc("sos_telemetry_sent_total", "Events written to the collector.", nil,
			func() uint64 { return exp.Stats().Sent })
		reg.CounterFunc("sos_telemetry_dropped_total", "Events lost to a full queue or abandoned flush.", nil,
			func() uint64 { return exp.Stats().Dropped })
		reg.CounterFunc("sos_telemetry_reconnects_total", "Collector connections broken and redialed.", nil,
			func() uint64 { return exp.Stats().Reconnects })
		reg.GaugeFunc("sos_telemetry_queue_depth", "Events buffered awaiting export.", nil,
			func() float64 { return float64(exp.QueueDepth()) })
	}
}
