package telemetry

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sos/internal/id"
	"sos/internal/metrics"
	"sos/internal/msg"
	"sos/internal/wire"
)

// AggregatorStats counts what the aggregator has seen.
type AggregatorStats struct {
	// Events counts every ingested event.
	Events uint64
	// Created, Disseminated, Delivered, Evicted, Contacts break Events
	// down (contacts count both up and down edges).
	Created      uint64
	Disseminated uint64
	Delivered    uint64
	Evicted      uint64
	Contacts     uint64
	// Duplicates counts retransmitted events the Server's idempotence
	// filter discarded (an exporter retransmits after a write timeout it
	// cannot distinguish from a lost frame); zero for in-process feeds.
	Duplicates uint64
	// Nodes counts distinct reporting nodes.
	Nodes int
}

// Aggregator merges telemetry event streams into a metrics.Collector,
// recomputing the paper's §VI quantities live across a distributed
// fleet. It tracks posts — the experiment workload — and tolerates
// cross-stream reordering and even a lost creation record: every
// dissemination/delivery event carries the message's authored timestamp,
// so the aggregator registers the creation from whichever record arrives
// first and the merged series match what a single collector observing
// every node directly would have recorded.
//
// Aggregator is an in-process Sink and a plain fold: every event it is
// handed counts. The simulator feeds it directly from each node's
// Observer; Server feeds it from remote exporters over TCP, after
// discarding their retransmits. Both may be used at once.
type Aggregator struct {
	mu      sync.Mutex
	col     *metrics.Collector
	nodes   map[id.UserID]bool
	stats   AggregatorStats
	onEvent func(Event)
	// paths/pathsPrev hold the hop-by-hop receipt index behind PathTo;
	// nil until TracePaths enables tracing. When paths fills it rotates
	// into pathsPrev (generational pruning), keeping a long-lived
	// collector's memory bounded, not O(run length).
	paths     map[msg.Ref]map[id.UserID]receipt
	pathsPrev map[msg.Ref]map[id.UserID]receipt
}

var _ Sink = (*Aggregator)(nil)

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		col:   metrics.NewCollector(),
		nodes: make(map[id.UserID]bool),
	}
}

// OnEvent registers a callback invoked for every ingested event (live
// progress displays). It must be set before events flow and must not
// call back into the aggregator.
func (a *Aggregator) OnEvent(fn func(Event)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onEvent = fn
}

// Collector returns the merged collector. It is live — reading it mid-
// experiment gives a consistent snapshot of everything ingested so far.
func (a *Aggregator) Collector() *metrics.Collector { return a.col }

// Stats snapshots the aggregation counters.
func (a *Aggregator) Stats() AggregatorStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.Nodes = len(a.nodes)
	return st
}

// Record implements Sink: ingest one event.
func (a *Aggregator) Record(ev Event) {
	a.mu.Lock()
	a.stats.Events++
	a.nodes[ev.Node] = true
	a.traceLocked(ev)
	switch ev.Type {
	case EventCreated:
		a.stats.Created++
		a.trackLocked(ev)
	case EventEvicted:
		// The global drop count does not need the creation record, and
		// a tracked drop's attribution only needs the creation to be
		// registered first — virtually always true, since a message must
		// disseminate (registering it below) before a peer can evict it.
		a.stats.Evicted++
		a.col.Evicted(ev.Ref)
	case EventDisseminated:
		a.stats.Disseminated++
		a.trackLocked(ev)
		a.col.Disseminated(ev.Ref)
	case EventDelivered:
		a.stats.Delivered++
		a.trackLocked(ev)
		a.col.Delivered(ev.Ref, ev.Node, ev.At, ev.Hops)
	case EventContactUp, EventContactDown:
		a.stats.Contacts++
	}
	fn := a.onEvent
	a.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// trackLocked registers a workload message's creation with the
// collector. Dissemination and delivery events carry the authored
// timestamp precisely so this works from whichever record arrives first:
// streams interleave arbitrarily, and the author's creation frame may
// even be lost outright, without costing the merged series anything.
// Social-graph chatter (follows etc.) is never tracked, so those events
// fall through to the collector's no-op paths.
func (a *Aggregator) trackLocked(ev Event) {
	if ev.Kind != msg.KindPost || ev.Created.IsZero() {
		return
	}
	a.col.MessageCreated(ev.Ref, ev.Created)
}

// countDuplicate records one retransmit the Server discarded, so the
// ingest identity (Events = the per-type counters + Duplicates) holds.
func (a *Aggregator) countDuplicate() {
	a.mu.Lock()
	a.stats.Events++
	a.stats.Duplicates++
	a.mu.Unlock()
}

// Server accepts exporter connections and feeds their event streams into
// an Aggregator — the lab's collector endpoint. One goroutine per
// connection reads length-prefixed event frames until the exporter closes
// its end.
type Server struct {
	ln  net.Listener
	agg *Aggregator

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	// seen and seenPrev make ingestion idempotent: an exporter that hits
	// a write timeout cannot tell a lost frame from a delivered one, so
	// it retransmits (on whichever connection it holds next), and a
	// second arrival must not inflate any counter. The key is the full
	// event identity including the reporting node's nanosecond timestamp
	// — identical means retransmitted, while a genuine repeat (a contact
	// re-forming, a node re-receiving a message whose eviction tombstone
	// was forgotten) carries a fresh clock reading. Retransmits trail the
	// original by at most a few timeouts, so the filter only needs a
	// bounded look-back: when seen fills it rotates into seenPrev
	// (generational pruning), keeping memory O(maxSeenEvents), not
	// O(run length). Guarded by mu.
	seen     map[eventKey]bool
	seenPrev map[eventKey]bool

	wg   sync.WaitGroup
	logf func(format string, args ...any)
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves agg. logf
// may be nil.
func NewServer(addr string, agg *Aggregator, logf func(format string, args ...any)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listening on %s: %w", addr, err)
	}
	s := &Server{ln: ln, agg: agg, conns: make(map[net.Conn]bool), seen: make(map[eventKey]bool), logf: logf}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address, for exporters to dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, waits for connected exporters to finish their
// streams (bounded by timeout, then forcibly), and returns. Call it
// after the exporters have flushed and closed so no frame is lost.
func (s *Server) Close(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve ingests one exporter's stream until EOF or a malformed frame.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && s.logf != nil {
				s.logf("telemetry: stream from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		ev, err := DecodeEvent(frame)
		if err != nil {
			if s.logf != nil {
				s.logf("telemetry: bad event from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if s.fresh(ev) {
			s.agg.Record(ev)
		} else {
			// A retransmission is swallowed whole — it reaches neither
			// the collector nor the progress callback.
			s.agg.countDuplicate()
		}
	}
}

// maxSeenEvents bounds each generation of the retransmit filter.
const maxSeenEvents = 1 << 17

// eventKey identifies one real-world event.
type eventKey struct {
	t    EventType
	node id.UserID
	ref  msg.Ref
	peer id.UserID
	at   int64
}

// fresh reports whether ev is a first arrival, remembering it if so.
func (s *Server) fresh(ev Event) bool {
	key := eventKey{t: ev.Type, node: ev.Node, ref: ev.Ref, peer: ev.Peer, at: ev.At.UnixNano()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[key] || s.seenPrev[key] {
		return false
	}
	if len(s.seen) >= maxSeenEvents {
		s.seenPrev = s.seen
		s.seen = make(map[eventKey]bool, maxSeenEvents/4)
	}
	s.seen[key] = true
	return true
}
