package message

import (
	"slices"

	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/wire"
)

// ledger is the requester's record of what is in flight, how the manager
// knows which messages were not transferred when a connection breaks. It
// maps each ref a plan asked of a peer, and not yet received, to that
// peer, so links to several holders of a message do not each move it;
// every entry is a ref of a Request out in the peer's half (linkLedger).
// The session is ordered, so a Batch answers the oldest Request out on
// its link, and the refs that Request did not get are declined: not asked
// of that peer again while the link lasts, and, after an empty answer,
// asked of the other links at once. Every Request still out when its link
// ends is an aborted transfer, planned again on the links that remain.
// It holds no lock and reads no clock: the Manager's lock guards it, and
// the heartbeat's tick is one of its transitions, each of which returns
// the refs it released for the Manager to count. A transition reads the
// peer's view through a function, only when it needs a seq from it, as
// reading a view folds the chunks set aside for it (viewLocked).
type ledger map[msg.Ref]mpc.PeerID

// linkLedger is the ledger's half on one link, ended with it. asks holds
// the wants of each Request out, in wire order; stale counts the head ones
// already out at the previous tick, which the next one expires. While one
// is out, a delta from the peer waits in due for its next Batch or the
// next tick. declined holds, per author, the seq the peer's view held when
// it left refs of that author unserved; the peer is asked only for later
// ones.
type linkLedger struct {
	asks     [][]wire.Want
	stale    int
	due      []wire.Entry
	declined map[id.UserID]uint64
}

// inFlight reports whether ref is asked of some peer.
func (r ledger) inFlight(ref msg.Ref) bool { return r[ref] != "" }

// declinedTo returns the seq up to which the link's peer declined author.
func (l *linkLedger) declinedTo(author id.UserID) uint64 { return l.declined[author] }

// plan marks ref in flight to peer.
func (r ledger) plan(ref msg.Ref, peer mpc.PeerID) { r[ref] = peer }

// send records req on l as it leaves, after the Requests sent before it,
// and reports true; with its link gone (l nil), it releases req unsent.
func (r ledger) send(peer mpc.PeerID, l *linkLedger, req []wire.Want) bool {
	if l == nil {
		r.release(peer, nil, nil, req)
		return false
	}
	l.asks = append(l.asks, req)
	return true
}

// hold keeps a delta's entries in due while a Request is out, and reports
// whether it did.
func (l *linkLedger) hold(entries []wire.Entry) bool {
	if len(l.asks) > 0 {
		l.due = append(l.due, entries...)
	}
	return len(l.asks) > 0
}

// answer takes the Request batch answers off l: the oldest, unless batch
// carries messages and a later one asked for the first, as a server
// answers in order. The answers of the Requests before it were lost: their
// refs are released, lost counting them. It returns the answered Request,
// which release settles once its messages are stored, and what was due, at
// view's seq (0, past no floor, once gone from it).
func (r ledger) answer(peer mpc.PeerID, l *linkLedger, batch *wire.Batch, view func() map[id.UserID]uint64) (req []wire.Want, due []wire.Entry, lost uint64) {
	i := min(len(l.asks), 1) - 1
	if len(batch.Msgs) > 0 && i == 0 {
		first := batch.Msgs[0]
		i = slices.IndexFunc(l.asks, func(req []wire.Want) bool {
			return slices.ContainsFunc(req, func(w wire.Want) bool {
				return w.Author == first.Author && slices.Contains(w.Seqs, first.Seq)
			})
		})
	}
	if i >= 0 {
		lost, req = r.release(peer, nil, nil, l.asks[:i]...), l.asks[i]
		l.asks, l.stale = slices.Delete(l.asks, 0, i+1), max(l.stale-i-1, 0)
	}
	for k, e := range l.due {
		l.due[k].Seq = view()[e.Author]
	}
	due, l.due = l.due, l.due[:0]
	return req, due, lost
}

// received takes ref out of the ledger, as it is held now, whoever it was
// asked of.
func (r ledger) received(ref msg.Ref) { delete(r, ref) }

// release takes the refs of reqs still asked of peer out of the ledger
// and returns how many it took. Given the link's half, they are declined
// there, each author at the seq of view: release settles an answered
// Request once the messages it brought are stored.
func (r ledger) release(peer mpc.PeerID, l *linkLedger, view func() map[id.UserID]uint64, reqs ...[]wire.Want) (n uint64) {
	for _, req := range reqs {
		for _, w := range req {
			for _, seq := range w.Seqs {
				if ref := (msg.Ref{Author: w.Author, Seq: seq}); r[ref] == peer {
					delete(r, ref)
					n++
					if l != nil {
						if l.declined == nil {
							l.declined = make(map[id.UserID]uint64)
						}
						l.declined[w.Author] = view()[w.Author]
					}
				}
			}
		}
	}
	return n
}

// end ends l with its link: the refs of the Requests out are aborted
// transfers, released, and end returns how many.
func (r ledger) end(peer mpc.PeerID, l *linkLedger) uint64 {
	n := r.release(peer, nil, nil, l.asks...)
	*l = linkLedger{asks: l.asks[:0], due: l.due[:0]}
	return n
}

// expire releases the Requests already out at the previous tick, as lost,
// and returns how many refs: each has sat a full interval (in ticks, so a
// frozen virtual clock works) unanswered, so it or its Batch is gone. What
// was due goes too, as the tick re-plans every view.
func (r ledger) expire(peer mpc.PeerID, l *linkLedger) uint64 {
	n := r.release(peer, nil, nil, l.asks[:l.stale]...)
	l.asks = slices.Delete(l.asks, 0, l.stale)
	l.stale, l.due = len(l.asks), l.due[:0]
	return n
}

// cutRequest cuts the first Request off wants, at most
// wire.MaxBatchMessages sequences so one Batch answers it, and returns it
// and the rest: an author's list that does not fit whole fills it and
// leads the rest.
func cutRequest(wants []wire.Want) (req, rest []wire.Want) {
	n, seqs := 0, 0
	for n < len(wants) && seqs+len(wants[n].Seqs) <= wire.MaxBatchMessages {
		seqs += len(wants[n].Seqs)
		n++
	}
	req = wants[:n:n]
	if room := wire.MaxBatchMessages - seqs; n < len(wants) && room > 0 {
		req = append(req, wire.Want{Author: wants[n].Author, Seqs: wants[n].Seqs[:room]})
		wants[n].Seqs = wants[n].Seqs[room:]
	}
	return req, wants[n:]
}
