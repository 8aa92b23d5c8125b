package main

import (
	"testing"
	"time"
)

// TestSelfTimeSubtraction builds a span tree by hand: a callback of
// 100 µs with two children (30 µs and 20 µs), the first of which has a
// 10 µs child of its own.
func TestSelfTimeSubtraction(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{name: "adhoc.received", start: us(0), end: us(100), parent: -1},
		{name: "store.put", start: us(10), end: us(40), parent: 0},
		{name: "store.summary", start: us(15), end: us(25), parent: 1},
		{name: "mpc.send", start: us(50), end: us(70), parent: 0},
		{name: "mpc.send", start: us(200), end: 0, parent: -1}, // still open: left out
	}
	busy, calls := busyByName(spans, 0)
	want := map[string]time.Duration{
		"adhoc.received": 50 * time.Microsecond,
		"store.put":      20 * time.Microsecond,
		"store.summary":  10 * time.Microsecond,
		"mpc.send":       20 * time.Microsecond,
	}
	for name, w := range want {
		if busy[name] != w {
			t.Errorf("busy[%s] = %v, want %v", name, busy[name], w)
		}
	}
	if calls["mpc.send"] != 1 {
		t.Errorf("open span counted as a call: %d", calls["mpc.send"])
	}
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	if total != 100*time.Microsecond {
		t.Errorf("self times sum to %v, want the root's 100µs", total)
	}
}

// TestSelfTimeSectionBase checks that a section cut out of a longer
// trace ignores parents recorded before it.
func TestSelfTimeSectionBase(t *testing.T) {
	all := []span{
		{name: "adhoc.received", start: 0, end: 1000, parent: -1},
		{name: "store.put", start: 100, end: 400, parent: 0},
		{name: "core.post", start: 2000, end: 3000, parent: -1},
		{name: "store.put", start: 2100, end: 2300, parent: 2},
	}
	busy, _ := busyByName(all[1:], 1)
	if busy["store.put"] != 500 || busy["core.post"] != 800 {
		t.Errorf("busy = %v, want store.put 500ns and core.post 800ns", busy)
	}
}

// TestParentAssignment drives a node context the way the shims do.
func TestParentAssignment(t *testing.T) {
	tr := newTracer()
	n := tr.node("n")

	cb := n.beginCallback("adhoc.received")
	put := n.begin("store.put") // only the callback stack is open
	put.end()
	post := n.beginPost()
	amb := n.begin("store.summary") // both stacks open: cannot tell
	amb.end()
	cb.end()
	under := n.begin("mpc.send") // only the post stack is open
	under.end()
	post.end()
	root := n.begin("store.missing") // nothing open: a timer goroutine
	root.end()

	spans := tr.since(0)
	parents := map[string]int32{}
	for _, s := range spans {
		parents[s.name] = s.parent
	}
	if parents["store.put"] != cb.idx {
		t.Errorf("store.put parent = %d, want the callback %d", parents["store.put"], cb.idx)
	}
	if parents["store.summary"] != -1 {
		t.Errorf("ambiguous span got parent %d, want none", parents["store.summary"])
	}
	if parents["mpc.send"] != post.idx {
		t.Errorf("mpc.send parent = %d, want core.post %d", parents["mpc.send"], post.idx)
	}
	if parents["store.missing"] != -1 {
		t.Errorf("root span got parent %d", parents["store.missing"])
	}
	if _, ambiguous := tr.mark(); ambiguous != 1 {
		t.Errorf("ambiguous = %d, want 1", ambiguous)
	}
	var none *nodeCtx
	none.begin("untraced").end() // a nil context records nothing and must not panic
}
