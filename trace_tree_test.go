package sos_test

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"sos"
)

// TestContactTraceTree100kAuthors is the flight-recorder acceptance test:
// a first contact between two nodes whose stores have seen 100k authors
// must leave a complete contact-session span tree in /debug/trace — the
// handshake, the chunked full-summary stream (~25 chunks at 4096 entries
// each), and the steady-state delta rounds that follow, all on the one
// timeline track named after the peer.
func TestContactTraceTree100kAuthors(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-author contact is a long test")
	}
	const authors = 100_000

	// Identical 100k-author histories: the first contact has no payload
	// to move, so the trace isolates the summary machinery — exactly the
	// regime where the chunked stream replaces a single giant frame.
	tracer := sos.NewTracer(0)
	c := newContactPair(t, authors, tracer, nil)
	dbg, err := sos.NewDebugServer(sos.DebugServerConfig{Addr: "127.0.0.1:0", Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	// Steady-state delta rounds on the established link.
	for i := 0; i < 3; i++ {
		c.post(t, []byte("delta round"), 30*time.Second)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + dbg.Addr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/trace is not valid trace_event JSON: %v", err)
	}

	// Resolve the contact track from the thread_name metadata, then
	// assert the whole session tree lives on that one tid.
	var contactTid uint64
	found := false
	for _, ev := range dump.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if name, _ := ev.Args["name"].(string); name == "contact bob-device" {
				contactTid = ev.Tid
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no 'contact bob-device' track in the trace dump")
	}
	counts := map[string]int{}
	for _, ev := range dump.TraceEvents {
		if ev.Tid == contactTid && (ev.Ph == "X" || ev.Ph == "B") {
			counts[ev.Name]++
		}
	}
	if counts["handshake"] == 0 {
		t.Error("contact track has no handshake span")
	}
	if counts["contact"] == 0 {
		t.Error("contact track has no contact envelope span")
	}
	if counts["advertise.full"] == 0 {
		t.Error("contact track has no full advertisement (chunk 0) span")
	}
	// 100k entries at 4096 per chunk is 25 frames: chunk 0 rides the
	// advertisement, so at least 24 continuation chunks must appear.
	if counts["sync.chunk"] < 24 {
		t.Errorf("contact track has %d sync.chunk spans, want >= 24", counts["sync.chunk"])
	}
	if counts["advertise.delta"] == 0 {
		t.Error("contact track has no delta advertisement span after steady-state rounds")
	}
}
