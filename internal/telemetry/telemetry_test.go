package telemetry

import (
	"net"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/msg"
	"sos/internal/wire"
)

var (
	alice = id.NewUserID("alice")
	bob   = id.NewUserID("bob")
	carol = id.NewUserID("carol")
)

func at(sec int) time.Time { return time.Unix(1700000000+int64(sec), 123456789) }

func TestEventRoundTrip(t *testing.T) {
	events := []Event{
		{Type: EventCreated, Node: alice, At: at(0), Ref: msg.Ref{Author: alice, Seq: 1},
			Kind: msg.KindPost, Created: at(0)},
		{Type: EventDisseminated, Node: bob, At: at(5), Ref: msg.Ref{Author: alice, Seq: 1},
			Kind: msg.KindPost, Peer: alice, Hops: 1, Created: at(0)},
		{Type: EventDelivered, Node: bob, At: at(5), Ref: msg.Ref{Author: alice, Seq: 1},
			Kind: msg.KindPost, Peer: alice, Hops: 3, Created: at(0)},
		{Type: EventEvicted, Node: carol, At: at(9), Ref: msg.Ref{Author: alice, Seq: 7},
			Kind: msg.KindFollow},
		{Type: EventContactUp, Node: alice, At: at(2), Peer: bob},
		{Type: EventContactDown, Node: alice, At: at(3), Peer: bob},
	}
	for _, want := range events {
		buf := want.Encode(nil)
		if len(buf) != EventSize {
			t.Fatalf("%s: encoded to %d bytes, want %d", want.Type, len(buf), EventSize)
		}
		got, err := DecodeEvent(buf)
		if err != nil {
			t.Fatalf("%s: DecodeEvent: %v", want.Type, err)
		}
		if got.Type != want.Type || got.Node != want.Node || got.Ref != want.Ref ||
			got.Kind != want.Kind || got.Peer != want.Peer || got.Hops != want.Hops {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
		if !got.At.Equal(want.At) || !got.Created.Equal(want.Created) {
			t.Fatalf("%s: time mismatch: got at=%v created=%v, want at=%v created=%v",
				want.Type, got.At, got.Created, want.At, want.Created)
		}
		if want.Created.IsZero() != got.Created.IsZero() {
			t.Fatalf("%s: zero-time not preserved", want.Type)
		}
	}
}

func TestDecodeEventRejectsGarbage(t *testing.T) {
	if _, err := DecodeEvent(nil); err == nil {
		t.Fatal("DecodeEvent(nil) succeeded")
	}
	if _, err := DecodeEvent(make([]byte, EventSize-1)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := DecodeEvent(make([]byte, EventSize+1)); err == nil {
		t.Fatal("long buffer accepted")
	}
	bad := Event{Type: EventCreated, Node: alice, At: at(0)}.Encode(nil)
	bad[0] = 0xEE
	if _, err := DecodeEvent(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// newTestServer serves agg on a loopback port for the test's lifetime.
func newTestServer(t *testing.T, agg *Aggregator) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", agg, t.Logf)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close(time.Second) })
	return srv
}

// stream sends events to srv as one exporter connection would — frames
// on a fresh TCP connection, the way an exporter resends after a redial —
// and returns once agg has ingested every one of them.
func stream(t *testing.T, srv *Server, agg *Aggregator, events ...Event) {
	t.Helper()
	want := agg.Stats().Events + uint64(len(events))
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for _, ev := range events {
		if err := wire.WriteFrame(conn, ev.Encode(nil)); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); agg.Stats().Events < want; {
		if time.Now().After(deadline) {
			t.Fatalf("server ingested %d events, want %d", agg.Stats().Events, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAggregatorReordering is the distributed-collection property: a
// post's dissemination, delivery, and eviction events arriving before the
// author's creation record (streams interleave arbitrarily; the creation
// frame may even be lost) must land in the collector exactly as if they
// had arrived in causal order, because every record carries the authored
// timestamp. Every event goes through a Server, the only ingest path that
// sees retransmits, so its filter is exercised where it runs.
func TestAggregatorReordering(t *testing.T) {
	ref := msg.Ref{Author: alice, Seq: 1}
	agg := NewAggregator()
	srv := newTestServer(t, agg)

	// Out of order: dissemination and delivery before the creation
	// record. Both apply immediately — the carried Created timestamp
	// self-registers the message.
	stream(t, srv, agg,
		Event{Type: EventDisseminated, Node: bob, At: at(5), Ref: ref, Kind: msg.KindPost, Hops: 1, Created: at(0)},
		Event{Type: EventDelivered, Node: bob, At: at(5), Ref: ref, Kind: msg.KindPost, Hops: 1, Created: at(0)})

	col := agg.Collector()
	if got := col.CreatedCount(); got != 1 {
		t.Fatalf("created = %d, want 1 (self-registered from delivery record)", got)
	}

	// The author's creation record arrives late; an eviction after it is
	// attributed to the workload.
	stream(t, srv, agg,
		Event{Type: EventCreated, Node: alice, At: at(0), Ref: ref, Kind: msg.KindPost, Created: at(0)},
		Event{Type: EventEvicted, Node: carol, At: at(6), Ref: ref, Kind: msg.KindPost})

	if got := col.CreatedCount(); got != 1 {
		t.Fatalf("created = %d, want 1", got)
	}
	if got := col.Disseminations(); got != 1 {
		t.Fatalf("disseminations = %d, want 1", got)
	}
	dels := col.Deliveries(metrics.AllHops)
	if len(dels) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(dels))
	}
	if d := dels[0]; d.To != bob || d.Hops != 1 || d.Delay() != 5*time.Second {
		t.Fatalf("delivery = %+v (delay %v)", d, d.Delay())
	}
	if got := col.TrackedEvictions(); got != 1 {
		t.Fatalf("tracked evictions = %d, want 1", got)
	}

	// Retransmitted events (an exporter redialing after a write timeout
	// resends the identical frame, on its new connection) must not
	// inflate any counter.
	stream(t, srv, agg,
		Event{Type: EventDisseminated, Node: bob, At: at(5), Ref: ref, Kind: msg.KindPost, Hops: 1, Created: at(0)},
		Event{Type: EventEvicted, Node: carol, At: at(6), Ref: ref, Kind: msg.KindPost})
	if got := col.Disseminations(); got != 1 {
		t.Fatalf("retransmitted dissemination counted: %d", got)
	}
	if got := col.Evictions(); got != 1 {
		t.Fatalf("retransmitted eviction counted: %d", got)
	}
	if got := agg.Stats().Duplicates; got != 2 {
		t.Fatalf("duplicates = %d, want 2", got)
	}

	// A delivery reported again via a redundant path (fresh timestamp)
	// passes the retransmit filter but the collector still dedups the
	// (message, recipient) pair.
	stream(t, srv, agg, Event{Type: EventDelivered, Node: bob, At: at(7), Ref: ref, Kind: msg.KindPost, Hops: 2, Created: at(0)})
	if n := len(col.Deliveries(metrics.AllHops)); n != 1 {
		t.Fatalf("redundant-path delivery counted: %d", n)
	}

	// A genuine re-receipt — the node evicted the message, its tombstone
	// was forgotten, and it fetched the message again — carries a fresh
	// clock reading and counts as a real dissemination.
	stream(t, srv, agg,
		Event{Type: EventDisseminated, Node: carol, At: at(8), Ref: ref, Kind: msg.KindPost, Hops: 2, Created: at(0)},
		Event{Type: EventDisseminated, Node: carol, At: at(9), Ref: ref, Kind: msg.KindPost, Hops: 2, Created: at(0)})
	if got := col.Disseminations(); got != 3 {
		t.Fatalf("re-receipt disseminations = %d, want 3", got)
	}
}

// TestAggregatorIgnoresChatter: follow/unfollow receipts are not
// workload and must neither buffer nor pollute the collector.
func TestAggregatorIgnoresChatter(t *testing.T) {
	agg := NewAggregator()
	ref := msg.Ref{Author: alice, Seq: 2}
	agg.Record(Event{Type: EventDisseminated, Node: bob, At: at(1), Ref: ref, Kind: msg.KindFollow, Created: at(0)})
	agg.Record(Event{Type: EventDelivered, Node: bob, At: at(1), Ref: ref, Kind: msg.KindFollow, Created: at(0)})
	agg.Record(Event{Type: EventEvicted, Node: bob, At: at(2), Ref: ref, Kind: msg.KindFollow})
	col := agg.Collector()
	if col.CreatedCount() != 0 || len(col.Deliveries(metrics.AllHops)) != 0 {
		t.Fatalf("chatter reached the collector")
	}
	// The untracked eviction still counts toward the global total.
	if got := col.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := col.TrackedEvictions(); got != 0 {
		t.Fatalf("tracked evictions = %d, want 0", got)
	}
}

// TestExporterServerEndToEnd ships events over a real TCP connection and
// checks nothing is lost or duplicated.
func TestExporterServerEndToEnd(t *testing.T) {
	agg := NewAggregator()
	srv, err := NewServer("127.0.0.1:0", agg, t.Logf)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close(time.Second)

	exp := NewExporter(srv.Addr(), ExporterOptions{Logf: t.Logf})
	const posts = 50
	for i := 1; i <= posts; i++ {
		exp.Record(Event{
			Type: EventCreated, Node: alice, At: at(i),
			Ref: msg.Ref{Author: alice, Seq: uint64(i)}, Kind: msg.KindPost, Created: at(i),
		})
		exp.Record(Event{
			Type: EventDelivered, Node: bob, At: at(i + 1),
			Ref: msg.Ref{Author: alice, Seq: uint64(i)}, Kind: msg.KindPost, Hops: 1, Created: at(i),
		})
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("exporter Close: %v", err)
	}
	if err := srv.Close(5 * time.Second); err != nil {
		t.Fatalf("server Close: %v", err)
	}

	es := exp.Stats()
	if es.Recorded != 2*posts || es.Sent != 2*posts || es.Dropped != 0 {
		t.Fatalf("exporter stats = %+v", es)
	}
	as := agg.Stats()
	if as.Events != 2*posts {
		t.Fatalf("aggregator saw %d events, want %d", as.Events, 2*posts)
	}
	col := agg.Collector()
	if col.CreatedCount() != posts || len(col.Deliveries(metrics.AllHops)) != posts {
		t.Fatalf("collector: created=%d deliveries=%d, want %d each",
			col.CreatedCount(), len(col.Deliveries(metrics.AllHops)), posts)
	}
}

// TestExporterDropsWhenUnreachable: a dead collector must cost bounded
// memory and counted drops, never a blocked Record.
func TestExporterDropsWhenUnreachable(t *testing.T) {
	exp := newExporter("127.0.0.1:1", ExporterOptions{}, exporterTiming{
		buffer: 4,
		retry:  10 * time.Millisecond,
		dial:   50 * time.Millisecond,
		flush:  100 * time.Millisecond,
	})
	const n = 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			exp.Record(Event{Type: EventContactUp, Node: alice, At: at(i), Peer: bob})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Record blocked on unreachable collector")
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := exp.Stats()
	if st.Sent != 0 {
		t.Fatalf("sent %d events to nothing", st.Sent)
	}
	if st.Dropped == 0 {
		t.Fatalf("no drops counted: %+v", st)
	}
	if st.Recorded+0 < st.Dropped {
		t.Fatalf("more drops than records: %+v", st)
	}
}
