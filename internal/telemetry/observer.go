package telemetry

import (
	"sos/internal/clock"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/store"
)

// Observer adapts core.Middleware lifecycle hooks into telemetry events
// on a Sink. It is the node-side half of the lab: construct one per node
// with the node's user id and clock, hand it to core.Config.Observer, and
// point it at an Exporter (remote collection) or an Aggregator (in-process
// collection).
type Observer struct {
	node id.UserID
	clk  clock.Clock
	sink Sink
}

var _ core.Observer = (*Observer)(nil)

// NewObserver builds an observer reporting as node. clk stamps events and
// is required: pass the middleware's own clock, so a virtual-time run
// stamps its deliveries in virtual time (clock.System() for live nodes).
func NewObserver(node id.UserID, clk clock.Clock, sink Sink) *Observer {
	return &Observer{node: node, clk: clk, sink: sink}
}

// MessageCreated implements core.Observer.
func (o *Observer) MessageCreated(m *msg.Message) {
	o.sink.Record(Event{
		Type:    EventCreated,
		Node:    o.node,
		At:      o.clk.Now(),
		Ref:     m.Ref(),
		Kind:    m.Kind,
		Created: m.Created,
	})
}

// MessageReceived implements core.Observer: every receipt is one
// dissemination, and a receipt by a subscriber of the author is
// additionally one delivery.
func (o *Observer) MessageReceived(m *msg.Message, from id.UserID, delivered bool) {
	now := o.clk.Now()
	o.sink.Record(Event{
		Type:    EventDisseminated,
		Node:    o.node,
		At:      now,
		Ref:     m.Ref(),
		Kind:    m.Kind,
		Peer:    from,
		Hops:    m.Hops,
		Created: m.Created,
	})
	if delivered {
		o.sink.Record(Event{
			Type:    EventDelivered,
			Node:    o.node,
			At:      now,
			Ref:     m.Ref(),
			Kind:    m.Kind,
			Peer:    from,
			Hops:    m.Hops,
			Created: m.Created,
		})
	}
}

// MessageEvicted implements core.Observer.
func (o *Observer) MessageEvicted(ev store.Eviction) {
	o.sink.Record(Event{
		Type: EventEvicted,
		Node: o.node,
		At:   o.clk.Now(),
		Ref:  ev.Ref,
		Kind: ev.Kind,
	})
}

// ContactUp implements core.Observer.
func (o *Observer) ContactUp(user id.UserID) {
	o.sink.Record(Event{Type: EventContactUp, Node: o.node, At: o.clk.Now(), Peer: user})
}

// ContactDown implements core.Observer.
func (o *Observer) ContactDown(user id.UserID) {
	o.sink.Record(Event{Type: EventContactDown, Node: o.node, At: o.clk.Now(), Peer: user})
}
