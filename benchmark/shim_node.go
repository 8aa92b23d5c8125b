package main

import (
	"sync"
	"time"

	"sos"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/routing"
	"sos/internal/store"
	"sos/internal/wire"
)

// tracedSchemeSuffix names the registered copy of a built-in scheme whose
// Wants calls are timed.
const tracedSchemeSuffix = "-traced"

// schemeShim times Scheme.Wants, the request-planning hook; the other
// hooks are the embedded scheme's.
type schemeShim struct {
	routing.Scheme
	n *nodeCtx
}

func (s *schemeShim) Wants(summary map[id.UserID]uint64) []wire.Want {
	sp := s.n.begin("routing.wants")
	defer sp.end()
	return s.Scheme.Wants(summary)
}

// installSchemeShim registers and activates a timed copy of the node's
// current built-in scheme through the public RegisterScheme/SetScheme.
func installSchemeShim(node *sos.Node, n *nodeCtx) error {
	var build func(routing.StoreView, routing.Options) routing.Scheme
	switch name := node.Scheme(); name {
	case sos.SchemeEpidemic:
		build = func(v routing.StoreView, o routing.Options) routing.Scheme { return routing.NewEpidemic(v, o) }
	case sos.SchemeInterest:
		build = func(v routing.StoreView, o routing.Options) routing.Scheme { return routing.NewInterest(v, o) }
	default:
		return nil // no workload runs the other schemes on a shimmed node
	}
	traced := node.Scheme() + tracedSchemeSuffix
	err := node.RegisterScheme(traced, func(v routing.StoreView, o routing.Options) routing.Scheme {
		return &schemeShim{Scheme: build(v, o), n: n}
	})
	if err != nil {
		return err
	}
	return node.SetScheme(traced)
}

// observerShim is the core.Observer of a traced node: it stamps contact
// and delivery events so handshake time (medium Join → ContactUp) is
// measured at the middleware's own boundary.
type observerShim struct {
	n      *nodeCtx
	medium *mediumShim
	peer   mpc.PeerID

	mu         sync.Mutex
	handshakes []time.Duration
	contactUps int
}

var _ sos.Observer = (*observerShim)(nil)

func (o *observerShim) MessageCreated(*msg.Message) {}

func (o *observerShim) MessageReceived(m *msg.Message, _ id.UserID, _ bool) {
	o.n.tagCallback(m.Ref())
}

func (o *observerShim) MessageEvicted(store.Eviction) {}

func (o *observerShim) ContactUp(id.UserID) {
	now := time.Now()
	joined, ok := o.medium.joinedAt(o.peer)
	o.mu.Lock()
	o.contactUps++
	if ok && o.contactUps == 1 {
		// Only a node's first contact is join → up; later ones started
		// from an already-joined endpoint.
		o.handshakes = append(o.handshakes, now.Sub(joined))
	}
	o.mu.Unlock()
}

func (o *observerShim) ContactDown(id.UserID) {}

// tagCallback marks the callback span now open on the node with the
// message it is delivering, so spans of one message share its Ref.
func (n *nodeCtx) tagCallback(ref msg.Ref) {
	if n == nil {
		return
	}
	n.mu.Lock()
	idx := top(n.callback)
	n.mu.Unlock()
	if idx < 0 {
		return
	}
	n.tr.mu.Lock()
	if n.tr.spans[idx].ref == (msg.Ref{}) {
		n.tr.spans[idx].ref = ref
	}
	n.tr.mu.Unlock()
}
