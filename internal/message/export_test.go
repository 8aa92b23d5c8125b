package message

import (
	"maps"

	"sos/internal/mpc"
	"sos/internal/msg"
)

// PlanOrder re-plans over every linked peer's cached view as the resync
// heartbeat does, with nothing in flight, and returns the peers the
// planned Requests would go to, in send order. Nothing is sent: the
// in-flight ledger is left empty and no peer is left asking.
func (m *Manager) PlanOrder() []mpc.PeerID {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.ledger)
	defer func() {
		clear(m.ledger)
		for _, ps := range m.peers {
			ps.ledger.asks, ps.ledger.stale = ps.ledger.asks[:0], 0
		}
	}()
	var order []mpc.PeerID
	for _, s := range m.planLocked(m.linkedViewsLocked()) {
		order = append(order, s.link.Peer())
	}
	return order
}

// MaxPeerSync is the bound of the per-peer table.
const MaxPeerSync = maxPeerSync

// AdBurst and AdRefillPerSec shape the flood bucket: the full summaries
// a peer may send, or pull, at once, and per second after that.
const (
	AdBurst        = int(adBurst)
	AdRefillPerSec = adRefillPerSec
)

// Inflight returns the in-flight ledger: which peer each outstanding
// request was made of.
func (m *Manager) Inflight() map[msg.Ref]mpc.PeerID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.ledger)
}

// CheckLedger returns the first broken invariant of the request ledger
// and every slot's half; they hold once the contact is quiet.
func (m *Manager) CheckLedger() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	links := make(map[mpc.PeerID]*linkLedger, len(m.peers))
	for peer, ps := range m.peers {
		links[peer] = &ps.ledger
	}
	return m.ledger.check(links, func(peer mpc.PeerID) bool { return m.peers[peer].link != nil })
}

// Dialing reports whether a dial to peer is under way.
func (m *Manager) Dialing(peer mpc.PeerID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.peers[peer]
	return ps != nil && ps.dialing
}

// Asking reports whether a Request to peer is unanswered, and how many
// entries wait for its Batch to be planned.
func (m *Manager) Asking(peer mpc.PeerID) (asking bool, due int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps := m.peers[peer]; ps != nil {
		return len(ps.ledger.asks) > 0, len(ps.ledger.due)
	}
	return false, 0
}

// View reports how many entries peer's view holds folded and how many
// wait unread, folding nothing.
func (m *Manager) View(peer mpc.PeerID) (folded, unread int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps := m.peers[peer]; ps != nil {
		return len(ps.summary), ps.unreadLen
	}
	return 0, 0
}
