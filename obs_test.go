package sos_test

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"sos"
	"sos/internal/obs"
)

// TestDebugSurfacesEndToEnd is the observability acceptance test: two
// complete nodes disseminate a post over real loopback sockets while a
// debug server — the exact surface sosd exposes via -debug-addr — is
// scraped over HTTP. The scrape must parse as Prometheus text exposition
// and show the contact-sync counters moving with the traffic; /healthz
// must report the live link.
func TestDebugSurfacesEndToEnd(t *testing.T) {
	ca, err := sos.NewCA("Obs Root CA", nil)
	if err != nil {
		t.Fatal(err)
	}
	cld := sos.NewCloud(ca, nil)
	aliceCreds, err := sos.Bootstrap(cld, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bobCreds, err := sos.Bootstrap(cld, "bob")
	if err != nil {
		t.Fatal(err)
	}

	mediumB, err := sos.NewNetMedium(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan *sos.Message, 16)
	bob, err := sos.NewNode(sos.NodeConfig{
		Creds:  bobCreds,
		Medium: mediumB,
		Scheme: sos.SchemeEpidemic,
		OnReceive: func(m *sos.Message, _ sos.UserID) {
			received <- m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	// Alice beacons to bob, and records contact-session spans end to
	// end: the medium, the node, and the debug server share one flight
	// recorder, exactly as sosd wires them behind -debug-addr.
	tracer := sos.NewTracer(0)
	cfgA := netTestConfig()
	cfgA.Tracer = tracer
	cfgA.BeaconTargets = mediumB.BeaconAddrs()
	mediumA, err := sos.NewNetMedium(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sos.NewNode(sos.NodeConfig{Creds: aliceCreds, Medium: mediumA, Scheme: sos.SchemeEpidemic, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	// Alice's debug surface, over the public facade — same wiring as
	// sosd run -debug-addr.
	reg := sos.NewMetricsRegistry()
	sos.RegisterNodeMetrics(reg, sos.NodeMetrics{Middleware: alice, Medium: mediumA})
	dbg, err := sos.NewDebugServer(sos.DebugServerConfig{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Tracer:   tracer,
		Health: func() map[string]any {
			return map[string]any{"activeLinks": len(alice.ActiveLinks())}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	base := "http://" + dbg.Addr()
	client := &http.Client{Timeout: 5 * time.Second}

	post, err := alice.Post([]byte("scraped while disseminating"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(15 * time.Second)
	for delivered := false; !delivered; {
		select {
		case m := <-received:
			delivered = m.Ref() == post.Ref()
		case <-deadline:
			t.Fatal("post not delivered")
		}
	}

	metrics, err := obs.ScrapeProm(client, base)
	if err != nil {
		t.Fatalf("scraping live node: %v", err)
	}
	// The contact-sync plane must have moved: at least one full summary
	// advertisement left alice, and a message was served to bob.
	for _, series := range []string{
		"sos_sync_ads_full_sent_total",
		"sos_message_served_total",
		"sos_net_beacons_total{dir=\"sent\"}",
		"sos_net_frames_total{dir=\"sent\"}",
		"sos_secure_seals_total",
		"sos_adhoc_handshakes_total{result=\"ok\"}",
		"sos_pki_verify_total{result=\"miss\"}", // bob's certificate, in the handshake
		"sos_pki_cached_certs",
		"sos_prekey_bundles_total{result=\"sent\"}", // one each way at link-up
		"sos_prekey_bundles_total{result=\"accepted\"}",
	} {
		v, ok := metrics[series]
		if !ok {
			t.Errorf("series %s missing from exposition", series)
			continue
		}
		if v == 0 {
			t.Errorf("%s = 0 after a delivery, want nonzero", series)
		}
	}
	if v := metrics["sos_message_verify_failures_total"]; v != 0 {
		t.Errorf("verify failures = %v, want 0", v)
	}
	if _, ok := metrics["sos_go_goroutines"]; !ok {
		t.Error("runtime gauges missing")
	}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" {
		t.Errorf("healthz status = %v", doc["status"])
	}
	if doc["activeLinks"] != float64(1) {
		t.Errorf("healthz activeLinks = %v, want 1 (bob is linked)", doc["activeLinks"])
	}

	// The flight recorder: /debug/trace must return schema-valid Chrome
	// trace_event JSON carrying the contact session just exercised.
	tresp, err := client.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/trace Content-Type = %q, want application/json", ct)
	}
	var dump struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/trace is not valid trace_event JSON: %v", err)
	}
	if len(dump.TraceEvents) == 0 {
		t.Fatal("/debug/trace returned an empty event list after a live contact")
	}
	seen := map[string]bool{}
	for _, ev := range dump.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("trace event missing name/ph: %+v", ev)
		}
		seen[ev.Name] = true
	}
	for _, want := range []string{"contact", "handshake", "secure.derive", "advertise.full"} {
		if !seen[want] {
			t.Errorf("trace dump missing %q span after a delivered contact", want)
		}
	}
}
