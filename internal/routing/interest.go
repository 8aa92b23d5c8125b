package routing

import (
	"sos/internal/id"
	"sos/internal/wire"
)

// Interest implements the paper's interest-based (IB) routing protocol
// (§III-B): it "operates in a similar manner to epidemic routing, except,
// instead of propagating messages to all users, messages are only
// propagated to interested users who are subscribed to the publisher of
// the original message." A node therefore pulls only messages authored by
// users it follows; it becomes a forwarder for a publisher the moment it
// requests and receives one of their messages (§V-B), after which its own
// advertisements offer those messages to other subscribers. Requesters
// self-select by interest, so it serves whatever is asked.
type Interest struct {
	noHooks
	view StoreView
}

var _ Scheme = (*Interest)(nil)

// NewInterest builds the scheme over a store view.
func NewInterest(view StoreView, _ Options) *Interest {
	return &Interest{view: view}
}

// Name implements Scheme.
func (ib *Interest) Name() string { return SchemeInterest }

// Wants implements Scheme: request missing messages only from subscribed
// publishers.
func (ib *Interest) Wants(summary map[id.UserID]uint64) []wire.Want {
	return wantsOf(ib.view, summary, ib.view.IsSubscribed)
}
