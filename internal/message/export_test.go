package message

import (
	"sos/internal/mpc"
	"sos/internal/msg"
)

// PlanOrder re-plans over every linked peer's cached view as the resync
// heartbeat does, with nothing in flight, and returns the peers the
// planned Requests would go to, in send order. Nothing is sent and the
// in-flight ledger is left empty.
func (m *Manager) PlanOrder() []mpc.PeerID {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.inflight)
	defer clear(m.inflight)
	var order []mpc.PeerID
	for _, s := range m.planLocked(m.linkedViewsLocked()) {
		order = append(order, s.link.Peer())
	}
	return order
}

// MaxPeerSync is the bound of the per-peer table.
const MaxPeerSync = maxPeerSync

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
