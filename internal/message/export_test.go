package message

import (
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
	clear(m.inflight)
	defer func() {
		clear(m.inflight)
		for _, ps := range m.peers {
			ps.asking = false
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
	out := make(map[msg.Ref]mpc.PeerID, len(m.inflight))
	for ref, e := range m.inflight {
		out[ref] = e.peer
	}
	return out
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
		return ps.asking, len(ps.due)
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
