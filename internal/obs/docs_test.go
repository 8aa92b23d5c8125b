package obs

import (
	"os"
	"strings"
	"testing"

	"sos/internal/chaos"
	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/netmedium"
	"sos/internal/pki"
	"sos/internal/telemetry"
)

// TestMetricCatalogDocumented is the drift guard for docs/OBSERVABILITY.md:
// every sos_* series RegisterNodeMetrics registers against a fully-loaded
// node (middleware + transport + exporter), and every one the debug server
// registers on the same registry, must appear by name in the documented
// catalog. A new counter without a docs row fails here.
func TestMetricCatalogDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("reading the catalog document: %v", err)
	}

	ca, err := pki.NewCA("docs-drift-root")
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.New(ca)
	creds, err := cloud.Bootstrap(svc, "drift", nil)
	if err != nil {
		t.Fatal(err)
	}
	medium, err := netmedium.New(netmedium.Config{
		BeaconListen: "127.0.0.1:0",
		ListenIP:     "127.0.0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	chz, err := chaos.Wrap(medium, chaos.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer chz.Close()

	mw, err := core.New(core.Config{Creds: creds, Medium: medium})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()

	agg := telemetry.NewAggregator()
	srv, err := telemetry.NewServer("127.0.0.1:0", agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(0)
	exp := telemetry.NewExporter(srv.Addr(), telemetry.ExporterOptions{})
	defer exp.Close()

	reg := NewRegistry()
	RegisterNodeMetrics(reg, NodeMetrics{Middleware: mw, Medium: medium, Exporter: exp, Chaos: chz})
	dbg, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	text := string(doc)
	for _, f := range reg.sortedFamilies() {
		if !strings.Contains(text, f.name) {
			t.Errorf("series %s is registered but undocumented in docs/OBSERVABILITY.md", f.name)
		}
	}
}
