package telemetry

import (
	"net"
	"sync"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/wire"
)

// TestAggregatorRetransmitStorm replays every event of a realistic run
// many times over through a Server — the pathological version of an
// exporter hitting write timeouts on each frame — and requires every
// counter and series to match the single-delivery ground truth exactly.
func TestAggregatorRetransmitStorm(t *testing.T) {
	ref := msg.Ref{Author: alice, Seq: 1}
	run := []Event{
		{Type: EventCreated, Node: alice, At: at(0), Ref: ref, Kind: msg.KindPost, Created: at(0)},
		{Type: EventContactUp, Node: alice, At: at(1), Peer: bob},
		{Type: EventDisseminated, Node: bob, At: at(2), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)},
		{Type: EventDelivered, Node: bob, At: at(2), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)},
		{Type: EventContactDown, Node: alice, At: at(3), Peer: bob},
		{Type: EventEvicted, Node: bob, At: at(9), Ref: ref, Kind: msg.KindPost},
	}

	agg := NewAggregator()
	agg.TracePaths()
	srv := newTestServer(t, agg)
	// The storm: each event arrives, then is retransmitted in bursts
	// interleaved with later originals, one connection per original —
	// worse than any real exporter, which only ever re-sends its tail.
	const storms = 25
	for i, ev := range run {
		burst := []Event{ev}
		for s := 0; s < storms; s++ {
			burst = append(burst, run[:i+1]...)
		}
		stream(t, srv, agg, burst...)
	}

	st := agg.Stats()
	wantEvents := uint64(0)
	for i := range run {
		wantEvents += 1 + uint64(storms*(i+1))
	}
	if st.Events != wantEvents {
		t.Errorf("events = %d, want %d", st.Events, wantEvents)
	}
	if st.Duplicates != wantEvents-uint64(len(run)) {
		t.Errorf("duplicates = %d, want %d", st.Duplicates, wantEvents-uint64(len(run)))
	}
	if st.Created != 1 || st.Disseminated != 1 || st.Delivered != 1 || st.Evicted != 1 || st.Contacts != 2 {
		t.Errorf("type counters inflated: %+v", st)
	}
	col := agg.Collector()
	if got := col.CreatedCount(); got != 1 {
		t.Errorf("created = %d, want 1", got)
	}
	if got := col.Disseminations(); got != 1 {
		t.Errorf("disseminations = %d, want 1", got)
	}
	if got := len(col.Deliveries(0)); got != 1 {
		t.Errorf("deliveries = %d, want 1", got)
	}
	// The path index must also stay single-edged.
	p, ok := agg.PathTo(ref, bob)
	if !ok || len(p.Hops) != 1 {
		t.Fatalf("path to bob = %+v, %v; want exactly one hop", p, ok)
	}
	if p.Hops[0].From != alice || p.Hops[0].To != bob {
		t.Errorf("hop = %s→%s, want alice→bob", p.Hops[0].From, p.Hops[0].To)
	}
}

// TestPathReconstruction drives a three-hop relay chain (alice → bob →
// carol → dave) through the aggregator, out of order, and checks the
// full timeline comes back in transfer order.
func TestPathReconstruction(t *testing.T) {
	dave := id.NewUserID("dave")
	ref := msg.Ref{Author: alice, Seq: 2}
	agg := NewAggregator()
	agg.TracePaths()

	// Streams interleave arbitrarily: deliver to dave first.
	agg.Record(Event{Type: EventDelivered, Node: dave, At: at(9), Ref: ref, Kind: msg.KindPost, Peer: carol, Hops: 3, Created: at(0)})
	agg.Record(Event{Type: EventCreated, Node: alice, At: at(0), Ref: ref, Kind: msg.KindPost, Created: at(0)})
	agg.Record(Event{Type: EventDisseminated, Node: carol, At: at(6), Ref: ref, Kind: msg.KindPost, Peer: bob, Hops: 2, Created: at(0)})
	agg.Record(Event{Type: EventDisseminated, Node: bob, At: at(3), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)})

	p, ok := agg.PathTo(ref, dave)
	if !ok {
		t.Fatal("no path to dave")
	}
	want := []struct {
		from, to id.UserID
		hops     uint16
	}{
		{alice, bob, 1},
		{bob, carol, 2},
		{carol, dave, 3},
	}
	if len(p.Hops) != len(want) {
		t.Fatalf("path has %d hops, want %d: %+v", len(p.Hops), len(want), p.Hops)
	}
	for i, w := range want {
		h := p.Hops[i]
		if h.From != w.from || h.To != w.to || h.Hops != w.hops {
			t.Errorf("hop %d = %s→%s (%d), want %s→%s (%d)",
				i, h.From, h.To, h.Hops, w.from, w.to, w.hops)
		}
	}
	if !p.Hops[0].At.Before(p.Hops[2].At) {
		t.Error("path timeline not in transfer order")
	}

	// A later re-receipt (tombstone expired, bob re-sends to carol) must
	// not rewrite the first-spread history.
	agg.Record(Event{Type: EventDisseminated, Node: carol, At: at(20), Ref: ref, Kind: msg.KindPost, Peer: dave, Hops: 9, Created: at(0)})
	p2, _ := agg.PathTo(ref, dave)
	if p2.Hops[1].From != bob || !p2.Hops[1].At.Equal(p.Hops[1].At) {
		t.Errorf("re-receipt rewrote history: %+v", p2.Hops[1])
	}

	// Unknown destination and untraced message.
	if _, ok := agg.PathTo(ref, id.NewUserID("nobody")); ok {
		t.Error("path to a node that never received the message")
	}
	if _, ok := agg.PathTo(msg.Ref{Author: bob, Seq: 99}, dave); ok {
		t.Error("path for an untraced message")
	}
	if _, traced := agg.paths[ref]; !traced || len(agg.paths) != 1 {
		t.Errorf("path index holds %d messages, want only %v", len(agg.paths), ref)
	}
}

// TestPathTracingDisabled checks tracing is pay-for-play: without
// TracePaths the aggregator keeps no receipt index.
func TestPathTracingDisabled(t *testing.T) {
	ref := msg.Ref{Author: alice, Seq: 1}
	agg := NewAggregator()
	agg.Record(Event{Type: EventDelivered, Node: bob, At: at(2), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)})
	if _, ok := agg.PathTo(ref, bob); ok {
		t.Error("PathTo returned a path with tracing disabled")
	}
	if len(agg.paths) != 0 {
		t.Errorf("path index holds %d messages, want none", len(agg.paths))
	}
}

// TestPathIndexRotation exercises the generational bound: once more than
// maxTracedMessages distinct messages are traced, the oldest generation
// is still consultable (pathsPrev) and the newest always is.
func TestPathIndexRotation(t *testing.T) {
	agg := NewAggregator()
	agg.TracePaths()
	// Shrink the universe: synthesize refs by sequence number. Crossing
	// the threshold once is enough; use a small slice of the space.
	total := maxTracedMessages + 10
	for i := 0; i < total; i++ {
		ref := msg.Ref{Author: alice, Seq: uint64(i + 1)}
		agg.Record(Event{Type: EventDelivered, Node: bob, At: at(i), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)})
	}
	// The newest message is always traceable.
	newest := msg.Ref{Author: alice, Seq: uint64(total)}
	if _, ok := agg.PathTo(newest, bob); !ok {
		t.Error("newest message not traceable after rotation")
	}
	// A message from the rotated-out generation is still found via
	// pathsPrev (single rotation so far).
	if _, ok := agg.PathTo(msg.Ref{Author: alice, Seq: 1}, bob); !ok {
		t.Error("previous generation not consulted")
	}
}

// TestTraceBoundedMemory sanity-checks the rotation keeps the live map
// bounded rather than growing with run length.
func TestTraceBoundedMemory(t *testing.T) {
	agg := NewAggregator()
	agg.TracePaths()
	for i := 0; i < 3*maxTracedMessages; i++ {
		ref := msg.Ref{Author: alice, Seq: uint64(i + 1)}
		agg.Record(Event{Type: EventDelivered, Node: bob, At: at(i), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)})
	}
	agg.mu.Lock()
	live := len(agg.paths)
	agg.mu.Unlock()
	if live > maxTracedMessages {
		t.Errorf("live path index holds %d messages, bound is %d", live, maxTracedMessages)
	}
}

// TestServerFiltersAcrossConnections sends one run on several exporter
// connections at once: the filter is the server's, not a connection's,
// so every event counts once whichever connection lands it first.
func TestServerFiltersAcrossConnections(t *testing.T) {
	ref := msg.Ref{Author: alice, Seq: 1}
	run := []Event{
		{Type: EventCreated, Node: alice, At: at(0), Ref: ref, Kind: msg.KindPost, Created: at(0)},
		{Type: EventDisseminated, Node: bob, At: at(2), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)},
		{Type: EventDelivered, Node: bob, At: at(2), Ref: ref, Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)},
		{Type: EventContactDown, Node: alice, At: at(3), Peer: bob},
	}
	agg := NewAggregator()
	srv := newTestServer(t, agg)
	const conns = 8
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			for _, ev := range run {
				if err := wire.WriteFrame(conn, ev.Encode(nil)); err != nil {
					t.Errorf("WriteFrame: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := uint64(conns * len(run))
	for deadline := time.Now().Add(5 * time.Second); agg.Stats().Events < want; {
		if time.Now().After(deadline) {
			t.Fatalf("server ingested %d events, want %d", agg.Stats().Events, want)
		}
		time.Sleep(time.Millisecond)
	}
	st := agg.Stats()
	if st.Duplicates != want-uint64(len(run)) {
		t.Errorf("duplicates = %d, want %d", st.Duplicates, want-uint64(len(run)))
	}
	if st.Created != 1 || st.Disseminated != 1 || st.Delivered != 1 || st.Contacts != 1 {
		t.Errorf("type counters inflated: %+v", st)
	}
	if got := agg.Collector().Disseminations(); got != 1 {
		t.Errorf("disseminations = %d, want 1", got)
	}
}
