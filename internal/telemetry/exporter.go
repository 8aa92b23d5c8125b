package telemetry

import (
	"io"
	"net"
	"sync"
	"time"

	"sos/internal/obs/span"
	"sos/internal/wire"
)

// Exporter defaults.
const (
	// DefaultExporterBuffer is the event queue depth; when the queue is
	// full (collector unreachable or slow) new events are dropped and
	// counted, never blocking the middleware.
	DefaultExporterBuffer = 4096
	// DefaultRetryInterval is the pause between reconnection attempts.
	DefaultRetryInterval = 250 * time.Millisecond
	// DefaultDialTimeout bounds one connection attempt.
	DefaultDialTimeout = 2 * time.Second
	// DefaultFlushTimeout bounds how long Close waits for queued events
	// to drain before abandoning them (counted as drops).
	DefaultFlushTimeout = 5 * time.Second

	// writeTimeout bounds one frame write; a stalled collector counts as
	// a broken connection.
	writeTimeout = 5 * time.Second
)

// ExporterOptions tunes an Exporter. The zero value is ready to use.
type ExporterOptions struct {
	// Logf, when set, receives debug logging.
	Logf func(format string, args ...any)
	// Tracer, when set, records export-plane spans (collector dials,
	// the Close flush) into the node's flight recorder.
	Tracer *span.Tracer
}

// exporterTiming is an exporter's queue depth and waits: the defaults
// above in every exporter, shorter ones in the package's tests.
type exporterTiming struct {
	buffer             int
	retry, dial, flush time.Duration
}

var defaultTiming = exporterTiming{
	buffer: DefaultExporterBuffer,
	retry:  DefaultRetryInterval,
	dial:   DefaultDialTimeout,
	flush:  DefaultFlushTimeout,
}

// ExporterStats counts exporter events.
type ExporterStats struct {
	// Recorded counts events handed to Record.
	Recorded uint64
	// Sent counts events written to the collector.
	Sent uint64
	// Dropped counts events lost to a full queue or an abandoned flush.
	Dropped uint64
	// Reconnects counts broken-and-redialed connections (the first
	// successful dial is not a reconnect).
	Reconnects uint64
}

// Exporter streams telemetry events to a remote Aggregator server over
// TCP. Record never blocks: events queue in a bounded buffer, a
// background goroutine writes them as length-prefixed frames, and the
// connection is redialed with backoff whenever it breaks — on a phone in
// the field the collector link is opportunistic too. Overflow drops the
// newest event and counts it, so a dead collector costs memory-bounded
// telemetry, never middleware progress.
type Exporter struct {
	addr   string
	opts   ExporterOptions
	timing exporterTiming

	mu     sync.Mutex
	closed bool
	stats  ExporterStats
	conn   net.Conn // live connection, force-closed on abandoned flush

	ch   chan Event
	stop chan struct{} // abandons dial/flush loops
	done chan struct{} // loop exited

	tracer *span.Tracer
	track  uint64
}

var _ Sink = (*Exporter)(nil)

// NewExporter starts an exporter shipping to the collector at addr. The
// connection is established lazily, so a collector that comes up late
// only delays events (up to the buffer), it does not fail the node.
func NewExporter(addr string, opts ExporterOptions) *Exporter {
	return newExporter(addr, opts, defaultTiming)
}

func newExporter(addr string, opts ExporterOptions, timing exporterTiming) *Exporter {
	e := &Exporter{
		addr:   addr,
		opts:   opts,
		timing: timing,
		ch:     make(chan Event, timing.buffer),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if e.opts.Tracer != nil {
		e.tracer = e.opts.Tracer
		e.track = e.tracer.Track("telemetry")
	}
	go e.loop()
	return e
}

// Record implements Sink: enqueue without blocking, drop on overflow.
func (e *Exporter) Record(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Recorded++
	if e.closed {
		e.stats.Dropped++
		return
	}
	select {
	case e.ch <- ev:
	default:
		e.stats.Dropped++
	}
}

// Stats snapshots the counters.
func (e *Exporter) Stats() ExporterStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// QueueDepth reports the number of events buffered and not yet written
// to the collector. A depth pinned at capacity means the export link is
// slower than the event rate and drops are imminent.
func (e *Exporter) QueueDepth() int { return len(e.ch) }

// Close stops accepting events, flushes the queue, waits for the
// collector to finish ingesting the stream (each phase bounded by
// DefaultFlushTimeout), and closes the connection. On a clean return every
// sent event has been read by the collector; events that cannot be
// flushed in time are dropped and counted.
func (e *Exporter) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	close(e.ch)
	e.mu.Unlock()

	sp := e.tracer.Start(e.track, "telemetry.flush")
	sp.Attr("queued", uint64(len(e.ch)))
	select {
	case <-e.done:
		sp.Attr("ok", 1)
	case <-time.After(e.timing.flush):
		sp.Attr("ok", 0)
		close(e.stop)
		e.mu.Lock()
		if e.conn != nil {
			e.conn.Close() // unblock a stalled write
		}
		e.mu.Unlock()
		<-e.done
	}
	sp.End()
	return nil
}

// loop drains the queue into the connection, redialing as needed.
func (e *Exporter) loop() {
	defer close(e.done)
	var buf []byte
	for ev := range e.ch {
		buf = ev.Encode(buf[:0])
		if !e.send(buf) {
			// Shipping was abandoned: count this and everything still
			// queued as dropped, then exit.
			dropped := uint64(1)
			for range e.ch {
				dropped++
			}
			e.mu.Lock()
			e.stats.Dropped += dropped
			e.mu.Unlock()
			return
		}
		e.mu.Lock()
		e.stats.Sent++
		e.mu.Unlock()
	}
	e.mu.Lock()
	conn := e.conn
	e.conn = nil
	e.mu.Unlock()
	if conn == nil {
		return
	}
	// Graceful shutdown barrier: written frames may still sit in kernel
	// buffers — or the whole connection in the listener's accept backlog
	// — so half-close and wait (bounded) for the collector to finish
	// reading the stream and close its end. When this returns cleanly,
	// every sent event has been ingested.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		tc.SetReadDeadline(time.Now().Add(e.timing.flush))
		io.Copy(io.Discard, tc)
	}
	conn.Close()
}

// send writes one encoded event, dialing and redialing until it succeeds
// or the exporter is told to stop; it reports whether the frame was sent.
func (e *Exporter) send(frame []byte) bool {
	for attempt := 0; ; attempt++ {
		conn := e.connect(attempt > 0)
		if conn == nil {
			return false
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := wire.WriteFrame(conn, frame); err == nil {
			return true
		} else if e.opts.Logf != nil {
			e.opts.Logf("telemetry: write to %s failed: %v", e.addr, err)
		}
		conn.Close()
		e.mu.Lock()
		e.conn = nil
		e.mu.Unlock()
		// Back off before retrying the frame: a peer that accepts dials
		// but rejects writes would otherwise spin this loop hot.
		select {
		case <-e.stop:
			return false
		case <-time.After(e.timing.retry):
		}
	}
}

// connect returns the live connection, dialing (with retries) if there is
// none. It returns nil when the exporter is stopped mid-dial.
func (e *Exporter) connect(redial bool) net.Conn {
	e.mu.Lock()
	if e.conn != nil {
		conn := e.conn
		e.mu.Unlock()
		return conn
	}
	e.mu.Unlock()
	for {
		select {
		case <-e.stop:
			return nil
		default:
		}
		sp := e.tracer.Start(e.track, "telemetry.connect")
		conn, err := net.DialTimeout("tcp", e.addr, e.timing.dial)
		if err == nil {
			sp.Attr("ok", 1)
			sp.End()
			e.mu.Lock()
			e.conn = conn
			if redial {
				e.stats.Reconnects++
			}
			e.mu.Unlock()
			return conn
		}
		sp.Attr("ok", 0)
		sp.End()
		if e.opts.Logf != nil {
			e.opts.Logf("telemetry: dial %s: %v", e.addr, err)
		}
		select {
		case <-e.stop:
			return nil
		case <-time.After(e.timing.retry):
		}
	}
}
