package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerEndpoints drives a live debug server over loopback HTTP:
// /metrics parses as exposition (including the server's self-metrics),
// /healthz returns the owner's fields, and /debug/pprof/ serves the
// profile index.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("app_things_total", "Things.").Add(3)
	srv, err := NewServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Health:   func() map[string]any { return map[string]any{"peers": 2} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 5 * time.Second}

	metrics, err := ScrapeProm(client, base)
	if err != nil {
		t.Fatal(err)
	}
	if metrics["app_things_total"] != 3 {
		t.Errorf("app_things_total = %v, want 3", metrics["app_things_total"])
	}
	if _, ok := metrics["sos_uptime_seconds"]; !ok {
		t.Error("self-metric sos_uptime_seconds missing from exposition")
	}

	// A second scrape must see the first one counted by the server's own
	// instrumentation — the histogram hot path runs on every scrape.
	metrics, err = ScrapeProm(client, base)
	if err != nil {
		t.Fatal(err)
	}
	if metrics["sos_debug_scrapes_total"] < 1 {
		t.Errorf("sos_debug_scrapes_total = %v, want >= 1", metrics["sos_debug_scrapes_total"])
	}
	if metrics[`sos_debug_scrape_seconds_bucket{le="+Inf"}`] < 1 {
		t.Error("scrape histogram did not record the first scrape")
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
		t.Errorf("healthz status = %v, want ok", doc["status"])
	}
	if doc["peers"] != float64(2) {
		t.Errorf("healthz peers = %v, want 2", doc["peers"])
	}
	if _, ok := doc["uptimeSeconds"]; !ok {
		t.Error("healthz missing uptimeSeconds")
	}

	resp2, err := client.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %s, want 200", resp2.Status)
	}
}

// TestLogLevels pins the level names the daemons accept.
func TestLogLevels(t *testing.T) {
	for _, level := range []string{"", "debug", "info", "warn", "warning", "error", "  Error "} {
		if _, err := parseLevel(level); err != nil {
			t.Errorf("parseLevel(%q): %v", level, err)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Error("parseLevel(loud) did not fail")
	}
	var b strings.Builder
	log, err := NewLogger(&b, "warn", false)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown")
	out := b.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Errorf("level filtering broken:\n%s", out)
	}

	b.Reset()
	jlog, err := NewLogger(&b, "info", true)
	if err != nil {
		t.Fatal(err)
	}
	jlog.Info("structured", "k", "v")
	var doc map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(b.String())), &doc); err != nil {
		t.Fatalf("JSON handler output not JSON: %v\n%s", err, b.String())
	}
	if doc["k"] != "v" {
		t.Errorf("JSON log missing attr: %v", doc)
	}
}
