package main

import (
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/store"
)

// storeShim times the storage calls the sync path makes, in the four
// groups the ledger reports: put, missing, summary (Summary,
// SummaryStripe, Changes) and select (Select, MessagesFrom, Get). Every
// other method is the embedded engine's, untouched. Only the traced run
// installs it.
type storeShim struct {
	store.Engine
	n *nodeCtx
}

var _ store.Engine = (*storeShim)(nil)

func (s *storeShim) Put(m *msg.Message) (bool, error) {
	sp := s.n.begin("store.put")
	defer sp.end()
	return s.Engine.Put(m)
}

func (s *storeShim) Missing(author id.UserID, upto uint64) []uint64 {
	sp := s.n.begin("store.missing")
	defer sp.end()
	return s.Engine.Missing(author, upto)
}

func (s *storeShim) Summary() map[id.UserID]uint64 {
	sp := s.n.begin("store.summary")
	defer sp.end()
	return s.Engine.Summary()
}

func (s *storeShim) SummaryStripe(i int) map[id.UserID]uint64 {
	sp := s.n.begin("store.summary")
	defer sp.end()
	return s.Engine.SummaryStripe(i)
}

func (s *storeShim) Changes(sinceGen uint64) (map[id.UserID]uint64, bool) {
	sp := s.n.begin("store.summary")
	defer sp.end()
	return s.Engine.Changes(sinceGen)
}

func (s *storeShim) Select(author id.UserID, seqs []uint64) []*msg.Message {
	sp := s.n.begin("store.select")
	defer sp.end()
	return s.Engine.Select(author, seqs)
}

func (s *storeShim) MessagesFrom(author id.UserID, after uint64) []*msg.Message {
	sp := s.n.begin("store.select")
	defer sp.end()
	return s.Engine.MessagesFrom(author, after)
}

func (s *storeShim) Get(ref msg.Ref) (*msg.Message, bool) {
	sp := s.n.begin("store.select")
	defer sp.end()
	return s.Engine.Get(ref)
}
