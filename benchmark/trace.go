package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sos/internal/msg"
)

// The traced run records one span per call the shims intercept: node,
// name, start, end and the span that caused it. Nothing inside the
// program is touched; the shims sit on the layers' public interfaces.
//
// A span's parent is the innermost shim span already open on the thread
// it runs on. Go has no thread identity to ask, so a node keeps two
// stacks: one for its medium callback thread (a medium serialises the
// callbacks of one endpoint) and one for the generator goroutine while
// it is inside Post. A shim call that arrives while exactly one stack is
// open belongs to it; with none open it is a root (a timer goroutine);
// with both open the owner cannot be told from outside, the span is kept
// as a root and counted in trace.ambiguous_spans, which bounds how much
// busy time the ledger may have counted twice.

// thread says which of a node's stacks a span sits on.
type thread int8

const (
	threadNone     thread = iota // root span, no enclosing shim span
	threadCallback               // the endpoint's serial callback queue
	threadPost                   // the generator goroutine inside Post
)

type span struct {
	node   int32
	name   string
	start  int64 // ns since the tracer started
	end    int64
	parent int32 // index into tracer.spans, -1 for a root
	thread thread
	ref    msg.Ref // zero unless the span belongs to one message
}

// tracer holds every span of one traced workload in memory.
type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	nodes     []string
	ambiguous int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nodeCtx is one node's view of the tracer: its index and its two open
// span stacks. A nil *nodeCtx records nothing, so the shims call it
// unconditionally.
type nodeCtx struct {
	tr  *tracer
	idx int32

	mu       sync.Mutex
	callback []int32
	post     []int32
}

func (t *tracer) node(name string) *nodeCtx {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes = append(t.nodes, name)
	return &nodeCtx{tr: t, idx: int32(len(t.nodes) - 1)}
}

// open is a started span; end closes it.
type open struct {
	n      *nodeCtx
	idx    int32
	thread thread
}

// begin opens a span on whichever of the node's threads is active.
func (n *nodeCtx) begin(name string) open {
	return n.beginOn(name, threadNone)
}

// beginCallback opens a span that is itself a medium callback: it starts
// the callback stack.
func (n *nodeCtx) beginCallback(name string) open {
	return n.beginOn(name, threadCallback)
}

// beginPost opens the generator's core.post span.
func (n *nodeCtx) beginPost() open {
	return n.beginOn("core.post", threadPost)
}

func (n *nodeCtx) beginOn(name string, force thread) open {
	if n == nil {
		return open{}
	}
	now := int64(time.Since(n.tr.t0))
	n.mu.Lock()
	th, parent, ambiguous := force, int32(-1), false
	switch {
	case force == threadCallback:
		parent = top(n.callback)
	case force == threadPost:
		parent = top(n.post)
	case len(n.callback) > 0 && len(n.post) > 0:
		ambiguous = true
	case len(n.callback) > 0:
		th, parent = threadCallback, top(n.callback)
	case len(n.post) > 0:
		th, parent = threadPost, top(n.post)
	}
	t := n.tr
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{node: n.idx, name: name, start: now, parent: parent, thread: th})
	if ambiguous {
		t.ambiguous++
	}
	t.mu.Unlock()
	switch th {
	case threadCallback:
		n.callback = append(n.callback, idx)
	case threadPost:
		n.post = append(n.post, idx)
	}
	n.mu.Unlock()
	return open{n: n, idx: idx, thread: th}
}

func top(stack []int32) int32 {
	if len(stack) == 0 {
		return -1
	}
	return stack[len(stack)-1]
}

// end closes the span and pops it from its stack.
func (o open) end() { o.endRef(msg.Ref{}) }

// endRef closes the span and tags it with the message it turned out to
// carry (Post learns its Ref only when it returns).
func (o open) endRef(ref msg.Ref) {
	n := o.n
	if n == nil {
		return
	}
	now := int64(time.Since(n.tr.t0))
	n.mu.Lock()
	switch o.thread {
	case threadCallback:
		n.callback = n.callback[:len(n.callback)-1]
	case threadPost:
		n.post = n.post[:len(n.post)-1]
	}
	n.mu.Unlock()
	n.tr.mu.Lock()
	n.tr.spans[o.idx].end = now
	if ref != (msg.Ref{}) {
		n.tr.spans[o.idx].ref = ref
	}
	n.tr.mu.Unlock()
}

// busyByName sums self time per span name over spans[base:], the spans
// one measured section recorded: a span's self time is its duration
// minus the part of it its child spans cover. Children of one span run
// one after another on one thread, so their durations add without
// overlap. Spans still open are left out.
func busyByName(spans []span, base int) (busy map[string]time.Duration, calls map[string]int) {
	self := selfTimes(spans, base)
	busy, calls = make(map[string]time.Duration), make(map[string]int)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		busy[s.name] += time.Duration(self[i])
		calls[s.name]++
	}
	return busy, calls
}

// selfTimes returns each span's duration minus its children's. Parent
// indices are absolute; base is the absolute index of spans[0], and a
// parent recorded before base is outside this section.
func selfTimes(spans []span, base int) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end != 0 {
			self[i] = s.end - s.start
		}
	}
	for _, s := range spans {
		if p := int(s.parent) - base; p >= 0 && s.end != 0 {
			self[p] -= s.end - s.start
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// since copies the spans recorded from absolute index base on.
func (t *tracer) since(base int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[base:]...)
}

// mark returns the absolute index the next span will get and the
// ambiguity count so far.
func (t *tracer) mark() (next, ambiguous int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.ambiguous
}

// writeChrome writes the spans as Chrome trace_event JSON — the format
// the nodes' /debug/trace already serves — one process per node, one
// thread per stack.
func (t *tracer) writeChrome(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	spans := t.since(0)
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	first := true
	sep := func() {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprint(w, "\n")
	}
	t.mu.Lock()
	nodes := append([]string(nil), t.nodes...)
	t.mu.Unlock()
	for i, name := range nodes {
		sep()
		fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, i, name)
	}
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		sep()
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d`,
			s.name, s.node, s.thread, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
		if s.ref != (msg.Ref{}) {
			fmt.Fprintf(w, `,"ref":%q`, s.ref.String())
		}
		fmt.Fprint(w, "}}")
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing trace file: %w", err)
	}
	return path, nil
}
