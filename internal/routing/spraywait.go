package routing

import (
	"sync"

	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/wire"
)

// SprayAndWait implements binary spray-and-wait (Spyropoulos et al.,
// 2005), adapted to SOS's receiver-driven exchange. Each message starts
// with a copy allowance L at its author. While a node holds more than one
// allowance unit for a message it is in the *spray* phase and may hand
// half of its allowance to any peer; at one unit it is in the *wait*
// phase and serves the message only to destinations — peers that follow
// the message's author, recognized through subscription gossip.
//
// The per-copy allowance travels in the message's Budget field (mutable
// routing metadata outside the author signature, like the hop count).
type SprayAndWait struct {
	noHooks
	view StoreView

	// mu guards budget and peerSubs: unlike the other hooks, OnEvicted
	// fires from whichever goroutine triggered the storage eviction
	// (often the application's publish path), concurrently with the
	// link-callback thread running Serve/OnReceived.
	mu       sync.Mutex
	budget   map[msg.Ref]uint16
	peerSubs map[id.UserID]map[id.UserID]bool // peer → authors peer follows
}

var _ Scheme = (*SprayAndWait)(nil)

// NewSprayAndWait builds the scheme over a store view.
func NewSprayAndWait(view StoreView, _ Options) *SprayAndWait {
	return &SprayAndWait{
		view:     view,
		budget:   make(map[msg.Ref]uint16),
		peerSubs: make(map[id.UserID]map[id.UserID]bool),
	}
}

// Name implements Scheme.
func (sw *SprayAndWait) Name() string { return SchemeSprayAndWait }

// Wants implements Scheme: like epidemic, accept anything on offer — the
// copy limit binds on the serving side.
func (sw *SprayAndWait) Wants(summary map[id.UserID]uint64) []wire.Want {
	return wantsOf(sw.view, summary, nil)
}

// Serve implements Scheme: a destination (a peer that follows the author)
// gets a wait-phase copy without costing allowance; anyone else gets one
// only in the spray phase, and then carries half the allowance away —
// binary splitting — while we keep the other half.
func (sw *SprayAndWait) Serve(peer id.UserID, m *msg.Message) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.peerSubs[peer][m.Author] {
		m.Budget = 1
		return true
	}
	ref := m.Ref()
	local := sw.allowance(ref)
	if local <= 1 {
		return false
	}
	give := local / 2
	sw.budget[ref] = local - give
	m.Budget = give
	return true
}

// OnReceived implements Scheme: adopt the allowance the copy carried.
func (sw *SprayAndWait) OnReceived(m *msg.Message, _ id.UserID) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	b := m.Budget
	if b == 0 {
		b = 1
	}
	sw.budget[m.Ref()] = b
}

// OnEvicted implements Scheme: release the evicted message's remaining
// copy allowance — the buffer dropped it, so the budget entry would
// otherwise leak (and wrongly resurrect if the ref ever reappeared).
func (sw *SprayAndWait) OnEvicted(ref msg.Ref) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	delete(sw.budget, ref)
}

// SchemeData implements Scheme: gossip our subscription list so peers can
// recognize us as a destination.
func (sw *SprayAndWait) SchemeData() []byte {
	subs := sw.view.Subscriptions()
	if len(subs) > maxGossipSubs {
		subs = subs[:maxGossipSubs]
	}
	blob, err := encodeGossip(gossip{Subs: subs})
	if err != nil {
		return nil
	}
	return blob
}

// OnPeerData implements Scheme.
func (sw *SprayAndWait) OnPeerData(peer id.UserID, data []byte) {
	g, err := decodeGossip(data)
	if err != nil {
		return
	}
	set := make(map[id.UserID]bool, len(g.Subs))
	for _, author := range g.Subs {
		set[author] = true
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.peerSubs[peer] = set
}

// allowance returns the local copy allowance for ref: authored messages
// start at DefaultSprayBudget; relayed messages default to wait phase until
// OnReceived records their carried budget. Callers must hold sw.mu (the
// single-threaded tests call it bare).
func (sw *SprayAndWait) allowance(ref msg.Ref) uint16 {
	if b, ok := sw.budget[ref]; ok {
		return b
	}
	if ref.Author == sw.view.Owner() {
		sw.budget[ref] = DefaultSprayBudget
		return DefaultSprayBudget
	}
	return 1
}
