package telemetry

import (
	"time"

	"sos/internal/id"
	"sos/internal/msg"
)

// Hop is one edge of a message's dissemination path: the message moved
// From → To at time At, arriving with the given device-to-device hop
// count. The first hop of a path has From equal to the author (the
// creation record contributes the path root with From empty).
type Hop struct {
	From id.UserID
	To   id.UserID
	At   time.Time
	Hops uint16
}

// Path is one message's reconstructed relay chain from its author to a
// destination node, in transfer order.
type Path struct {
	Ref  msg.Ref
	Dest id.UserID
	Hops []Hop
}

// receipt records the first observed arrival of a message at a node:
// who handed it over and when. The author's creation record is stored
// with an empty from, terminating backward walks.
type receipt struct {
	from id.UserID
	at   time.Time
	hops uint16
}

// maxTracedMessages bounds each generation of the path index. Tracing
// keeps one receipt per (message, node) pair, so a generation costs
// O(messages × fleet); when the current generation fills it rotates,
// exactly like the retransmit filter, keeping long-lived aggregators
// bounded while preserving paths for everything recent.
const maxTracedMessages = 1 << 14

// TracePaths enables hop-by-hop path tracing. Must be called before
// events flow; tracing is off by default because the receipt index is
// the one aggregator structure whose size scales with messages × nodes.
func (a *Aggregator) TracePaths() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.paths = make(map[msg.Ref]map[id.UserID]receipt)
}

// traceLocked feeds one ingested (non-duplicate) event into the receipt
// index. Only the first arrival per (message, node) is kept: later
// re-receipts (after an eviction tombstone expires) do not rewrite
// history, so reconstructed chains reflect how the message actually
// first spread.
func (a *Aggregator) traceLocked(ev Event) {
	if a.paths == nil {
		return
	}
	var from id.UserID
	switch ev.Type {
	case EventCreated:
		// Root: the author holds the message with no upstream.
	case EventDisseminated, EventDelivered:
		from = ev.Peer
	default:
		return
	}
	byNode, ok := a.paths[ev.Ref]
	if !ok {
		if len(a.paths) >= maxTracedMessages {
			a.pathsPrev = a.paths
			a.paths = make(map[msg.Ref]map[id.UserID]receipt, maxTracedMessages/4)
		}
		byNode = make(map[id.UserID]receipt, 4)
		a.paths[ev.Ref] = byNode
	}
	if prev, ok := byNode[ev.Node]; ok && !prev.at.After(ev.At) {
		return
	}
	byNode[ev.Node] = receipt{from: from, at: ev.At, hops: ev.Hops}
}

// PathTo reconstructs the relay chain that first carried ref to dest by
// walking the receipt index backward from dest until it reaches the
// author (a receipt with no upstream) or runs out of records — streams
// may be merged mid-run, so a chain can be truncated at the oldest node
// whose receipt predates tracing. A cycle guard caps the walk at the
// fleet size. Returns ok=false when tracing is off or dest never
// received ref.
func (a *Aggregator) PathTo(ref msg.Ref, dest id.UserID) (Path, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	byNode := a.paths[ref]
	if byNode == nil {
		byNode = a.pathsPrev[ref]
	}
	if byNode == nil {
		return Path{}, false
	}
	rc, ok := byNode[dest]
	if !ok {
		return Path{}, false
	}
	p := Path{Ref: ref, Dest: dest}
	visited := map[id.UserID]bool{dest: true}
	node := dest
	for rc.from != (id.UserID{}) {
		p.Hops = append(p.Hops, Hop{From: rc.from, To: node, At: rc.at, Hops: rc.hops})
		if visited[rc.from] {
			break // defensive: clock skew produced a cycle
		}
		visited[rc.from] = true
		node = rc.from
		rc, ok = byNode[node]
		if !ok {
			break // upstream receipt predates tracing
		}
	}
	// The walk collected edges destination-first; flip into transfer
	// order, author outward.
	for i, j := 0, len(p.Hops)-1; i < j; i, j = i+1, j-1 {
		p.Hops[i], p.Hops[j] = p.Hops[j], p.Hops[i]
	}
	return p, true
}
