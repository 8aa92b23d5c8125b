package message

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/wire"
)

// check returns the first broken invariant of the ledger at quiescence,
// when no plan waits to be sent and no Batch is half handled. links holds
// every peer's half, and linked says whether it has a link.
func (r ledger) check(links map[mpc.PeerID]*linkLedger, linked func(mpc.PeerID) bool) error {
	for ref, peer := range r {
		if l := links[peer]; l == nil || !slices.ContainsFunc(l.asks, func(req []wire.Want) bool { return names(req, ref) }) {
			return fmt.Errorf("ref %v in flight to %s is named by no Request out there", ref, peer)
		}
	}
	for peer, l := range links {
		for _, req := range l.asks {
			if n := seqCount(req); n > wire.MaxBatchMessages {
				return fmt.Errorf("a Request out to %s totals %d sequences, over %d", peer, n, wire.MaxBatchMessages)
			}
		}
		if !linked(peer) && len(l.asks)+len(l.due) > 0 {
			return fmt.Errorf("%s has no link but %d Requests out and %d entries due", peer, len(l.asks), len(l.due))
		}
	}
	return nil
}

// names reports whether req asks for ref.
func names(req []wire.Want, ref msg.Ref) bool {
	return slices.ContainsFunc(req, func(w wire.Want) bool { return w.Author == ref.Author && slices.Contains(w.Seqs, ref.Seq) })
}

func seqCount(req []wire.Want) (n int) {
	for _, w := range req {
		n += len(w.Seqs)
	}
	return n
}

var (
	authorA = id.NewUserID("ledger-a")
	authorB = id.NewUserID("ledger-b")
)

// req is a Request for seqs of author.
func req(author id.UserID, seqs ...uint64) []wire.Want {
	return []wire.Want{{Author: author, Seqs: seqs}}
}

func refA(seq uint64) msg.Ref { return msg.Ref{Author: authorA, Seq: seq} }
func refB(seq uint64) msg.Ref { return msg.Ref{Author: authorB, Seq: seq} }

// ledgerBench is a ledger with the halves of peers "p" and "q", linked
// unless the test ends a link, and the view peer "p" holds.
type ledgerBench struct {
	r     ledger
	links map[mpc.PeerID]*linkLedger
	ended map[mpc.PeerID]bool
	view  map[id.UserID]uint64
}

func newLedgerBench() *ledgerBench {
	return &ledgerBench{
		r:     make(ledger),
		links: map[mpc.PeerID]*linkLedger{"p": {}, "q": {}},
		ended: map[mpc.PeerID]bool{},
		view:  map[id.UserID]uint64{authorA: 7, authorB: 9},
	}
}

// ask plans every ref of reqs to peer and sends the Requests, in order.
func (b *ledgerBench) ask(peer mpc.PeerID, reqs ...[]wire.Want) {
	for _, req := range reqs {
		for _, w := range req {
			for _, seq := range w.Seqs {
				b.r.plan(msg.Ref{Author: w.Author, Seq: seq}, peer)
			}
		}
		b.r.send(peer, b.links[peer], req)
	}
}

// viewOf is the view of "p" as the transitions read it.
func (b *ledgerBench) viewOf() map[id.UserID]uint64 { return b.view }

// batch is a Batch carrying refs.
func batch(refs ...msg.Ref) *wire.Batch {
	out := &wire.Batch{}
	for _, ref := range refs {
		out.Msgs = append(out.Msgs, &msg.Message{Author: ref.Author, Seq: ref.Seq})
	}
	return out
}

// deliver is a Batch on p's link from arrival to settling: answer, the
// refs stored, then the answered Request settled. It returns the refs the
// answer released as lost and the refs the settling declined.
func (b *ledgerBench) deliver(in *wire.Batch, stored ...msg.Ref) (lost, declined uint64) {
	answered, _, lost := b.r.answer("p", b.links["p"], in, b.viewOf)
	for _, ref := range stored {
		b.r.received(ref)
	}
	return lost, b.r.release("p", b.links["p"], b.viewOf, answered)
}

// verify fails t unless the ledger holds inflight and p has out Requests
// out, and the ledger's invariants hold.
func (b *ledgerBench) verify(t *testing.T, inflight map[msg.Ref]mpc.PeerID, out int) {
	t.Helper()
	if got := map[msg.Ref]mpc.PeerID(b.r); !maps.Equal(got, inflight) {
		t.Errorf("in flight %v, want %v", got, inflight)
	}
	if got := len(b.links["p"].asks); got != out {
		t.Errorf("%d Requests out to p, want %d", got, out)
	}
	if err := b.r.check(b.links, func(peer mpc.PeerID) bool { return !b.ended[peer] }); err != nil {
		t.Error(err)
	}
}

// TestLedgerPlan: a plan marks refs in flight to one peer, and the planner
// asks two questions of the ledger: is this ref in flight, and up to which
// seq did this link's peer decline this author.
func TestLedgerPlan(t *testing.T) {
	for _, tc := range []struct {
		name     string
		run      func(b *ledgerBench)
		inFlight []msg.Ref
		idle     []msg.Ref
		declined map[id.UserID]uint64
	}{
		{
			name:     "a planned ref is in flight to its peer, no other ref is",
			run:      func(b *ledgerBench) { b.ask("p", req(authorA, 1, 2)) },
			inFlight: []msg.Ref{refA(1), refA(2)},
			idle:     []msg.Ref{refA(3), refB(1)},
			declined: map[id.UserID]uint64{authorA: 0, authorB: 0},
		},
		{
			name: "refs left unserved are declined at the view's seq, per author",
			run: func(b *ledgerBench) {
				b.ask("p", append(req(authorA, 1, 2), req(authorB, 1)...))
				b.deliver(batch(refA(1)), refA(1))
			},
			idle:     []msg.Ref{refA(1), refA(2), refB(1)},
			declined: map[id.UserID]uint64{authorA: 7, authorB: 9},
		},
		{
			name: "a ref p declined can be planned to another peer",
			run: func(b *ledgerBench) {
				b.ask("p", req(authorA, 1))
				b.deliver(batch())
				b.ask("q", req(authorA, 1))
			},
			inFlight: []msg.Ref{refA(1)},
			declined: map[id.UserID]uint64{authorA: 7},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newLedgerBench()
			tc.run(b)
			for _, ref := range tc.inFlight {
				if !b.r.inFlight(ref) {
					t.Errorf("%v not in flight", ref)
				}
			}
			for _, ref := range tc.idle {
				if b.r.inFlight(ref) {
					t.Errorf("%v in flight", ref)
				}
			}
			for author, want := range tc.declined {
				if got := b.links["p"].declinedTo(author); got != want {
					t.Errorf("p declined %v up to %d, want %d", author, got, want)
				}
			}
			if err := b.r.check(b.links, func(mpc.PeerID) bool { return true }); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLedgerSend: a Request joins its link's half as it leaves, after the
// ones sent before it; one whose link went away is released unsent, and
// takes only the refs still asked of that peer.
func TestLedgerSend(t *testing.T) {
	for _, tc := range []struct {
		name     string
		run      func(b *ledgerBench) bool
		sent     bool
		inflight map[msg.Ref]mpc.PeerID
		out      []id.UserID // the author of each Request out to p, in order
	}{
		{
			name: "sent Requests join in the order they leave",
			run: func(b *ledgerBench) bool {
				b.ask("p", req(authorB, 1))
				b.r.plan(refA(1), "p")
				return b.r.send("p", b.links["p"], req(authorA, 1))
			},
			sent:     true,
			inflight: map[msg.Ref]mpc.PeerID{refA(1): "p", refB(1): "p"},
			out:      []id.UserID{authorB, authorA},
		},
		{
			name: "a plan for a gone link is released unsent",
			run: func(b *ledgerBench) bool {
				b.r.plan(refA(1), "p")
				return b.r.send("p", nil, req(authorA, 1))
			},
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			name: "releasing unsent leaves a ref asked of another peer",
			run: func(b *ledgerBench) bool {
				b.ask("q", req(authorA, 1))
				b.r.plan(refA(2), "p")
				return b.r.send("p", nil, req(authorA, 1, 2))
			},
			inflight: map[msg.Ref]mpc.PeerID{refA(1): "q"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newLedgerBench()
			if sent := tc.run(b); sent != tc.sent {
				t.Errorf("send reported %v, want %v", sent, tc.sent)
			}
			var out []id.UserID
			for _, req := range b.links["p"].asks {
				out = append(out, req[0].Author)
			}
			if !slices.Equal(out, tc.out) {
				t.Errorf("Requests out to p ask %v, want %v", out, tc.out)
			}
			b.verify(t, tc.inflight, len(tc.out))
		})
	}
}

// TestLedgerAnswer: a Batch answers one Request out on its link, the
// oldest unless it carries messages a later one asked for; the answers of
// the ones before it were lost. Once the stored messages are received, the
// rest of the answered Request is declined at the view's seq.
func TestLedgerAnswer(t *testing.T) {
	for _, tc := range []struct {
		name           string
		out            [][]wire.Want
		in             *wire.Batch
		stored         []msg.Ref
		lost, declined uint64
		inflight       map[msg.Ref]mpc.PeerID
		left           int
	}{
		{
			name:     "a whole answer settles its Request",
			out:      [][]wire.Want{req(authorA, 1, 2)},
			in:       batch(refA(1), refA(2)),
			stored:   []msg.Ref{refA(1), refA(2)},
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			name:     "a partial answer declines the rest",
			out:      [][]wire.Want{req(authorA, 1, 2, 3)},
			in:       batch(refA(1)),
			stored:   []msg.Ref{refA(1)},
			declined: 2,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			name:     "a copy that failed its checks is declined with the rest",
			out:      [][]wire.Want{req(authorA, 1, 2)},
			in:       batch(refA(1), refA(2)),
			stored:   []msg.Ref{refA(2)},
			declined: 1,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			name:     "an answer settles the oldest Request, the next stays out",
			out:      [][]wire.Want{req(authorA, 1), req(authorB, 1)},
			in:       batch(refA(1)),
			stored:   []msg.Ref{refA(1)},
			inflight: map[msg.Ref]mpc.PeerID{refB(1): "p"},
			left:     1,
		},
		{
			name:     "an answer to a later Request releases the lost one before it",
			out:      [][]wire.Want{req(authorA, 1), req(authorB, 1)},
			in:       batch(refB(1)),
			stored:   []msg.Ref{refB(1)},
			lost:     1,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			// The stated limit of one answer per Request: when the first
			// Request's Batch was lost, the second's empty answer cannot
			// be told from the first's, so it settles the first and
			// declines its refs, while the second stays out.
			name:     "under loss an empty Batch is matched to the earlier Request",
			out:      [][]wire.Want{req(authorA, 1), req(authorB, 1)},
			in:       batch(),
			declined: 1,
			inflight: map[msg.Ref]mpc.PeerID{refB(1): "p"},
			left:     1,
		},
		{
			name:     "a Batch with no Request out answers nothing",
			in:       batch(refA(1)),
			stored:   []msg.Ref{refA(1)},
			inflight: map[msg.Ref]mpc.PeerID{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newLedgerBench()
			b.ask("p", tc.out...)
			lost, declined := b.deliver(tc.in, tc.stored...)
			if lost != tc.lost || declined != tc.declined {
				t.Errorf("released %d lost and %d declined, want %d and %d", lost, declined, tc.lost, tc.declined)
			}
			b.verify(t, tc.inflight, tc.left)
		})
	}
}

// TestLedgerAnswerReturnsWhatWasDue: deltas held while a Request is out
// come back with its answer at the view's seq, 0 for an author gone from
// it, and a delta with nothing out is not held.
func TestLedgerAnswerReturnsWhatWasDue(t *testing.T) {
	b := newLedgerBench()
	gone := id.NewUserID("ledger-gone")
	if b.links["p"].hold([]wire.Entry{{Author: authorA, Seq: 1}}) {
		t.Fatal("a delta was held with no Request out")
	}
	b.ask("p", req(authorB, 1))
	if !b.links["p"].hold([]wire.Entry{{Author: authorA, Seq: 1}, {Author: gone, Seq: 4}}) {
		t.Fatal("a delta was not held while a Request is out")
	}
	_, due, _ := b.r.answer("p", b.links["p"], batch(refB(1)), b.viewOf)
	if want := []wire.Entry{{Author: authorA, Seq: 7}, {Author: gone}}; !slices.Equal(due, want) {
		t.Errorf("due %v, want %v", due, want)
	}
	if n := len(b.links["p"].due); n != 0 {
		t.Errorf("%d entries still due after the answer", n)
	}
}

// TestLedgerReceived: a stored ref leaves the ledger whoever it was asked
// of, and its Request stays out until answered.
func TestLedgerReceived(t *testing.T) {
	for _, tc := range []struct {
		name     string
		received msg.Ref
		inflight map[msg.Ref]mpc.PeerID
	}{
		{"a ref asked of p", refA(1), map[msg.Ref]mpc.PeerID{refA(2): "p", refB(1): "q"}},
		{"a ref asked of q", refB(1), map[msg.Ref]mpc.PeerID{refA(1): "p", refA(2): "p"}},
		{"a ref asked of no one", refB(2), map[msg.Ref]mpc.PeerID{refA(1): "p", refA(2): "p", refB(1): "q"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newLedgerBench()
			b.ask("p", req(authorA, 1, 2))
			b.ask("q", req(authorB, 1))
			b.r.received(tc.received)
			b.verify(t, tc.inflight, 1)
		})
	}
}

// TestLedgerEnd: a link that ends takes its Requests with it: their refs
// still asked of its peer are aborted transfers, and its half starts the
// next link empty.
func TestLedgerEnd(t *testing.T) {
	for _, tc := range []struct {
		name     string
		run      func(b *ledgerBench)
		aborted  uint64
		inflight map[msg.Ref]mpc.PeerID
	}{
		{
			name:     "every Request out is aborted",
			run:      func(b *ledgerBench) { b.ask("p", req(authorA, 1, 2), req(authorB, 1)) },
			aborted:  3,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			name: "a ref received meanwhile is not",
			run: func(b *ledgerBench) {
				b.ask("p", req(authorA, 1, 2))
				b.r.received(refA(1))
			},
			aborted:  1,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			name: "another link's Requests stay",
			run: func(b *ledgerBench) {
				b.ask("p", req(authorA, 1))
				b.ask("q", req(authorB, 1))
			},
			aborted:  1,
			inflight: map[msg.Ref]mpc.PeerID{refB(1): "q"},
		},
		{
			name: "what was due and declined goes with the link",
			run: func(b *ledgerBench) {
				b.ask("p", req(authorA, 1), req(authorB, 1))
				b.links["p"].hold([]wire.Entry{{Author: authorB, Seq: 2}})
				b.deliver(batch())
			},
			aborted:  1,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newLedgerBench()
			tc.run(b)
			if got := b.r.end("p", b.links["p"]); got != tc.aborted {
				t.Errorf("end aborted %d refs, want %d", got, tc.aborted)
			}
			b.ended["p"] = true
			b.verify(t, tc.inflight, 0)
			if got := b.links["p"].declinedTo(authorA); got != 0 {
				t.Errorf("the next link starts with author A declined up to %d", got)
			}
		})
	}
}

// TestLedgerExpire: a tick expires the Requests that were already out at
// the previous tick, as lost, and drops what was due, as the tick re-plans
// every view.
func TestLedgerExpire(t *testing.T) {
	for _, tc := range []struct {
		name     string
		run      func(b *ledgerBench) uint64
		expired  uint64
		inflight map[msg.Ref]mpc.PeerID
		out      int
	}{
		{
			name:     "a Request sent since the last tick stays out",
			run:      func(b *ledgerBench) uint64 { b.ask("p", req(authorA, 1)); return 0 },
			inflight: map[msg.Ref]mpc.PeerID{refA(1): "p"},
			out:      1,
		},
		{
			name: "one already out at the previous tick expires",
			run: func(b *ledgerBench) uint64 {
				b.ask("p", req(authorA, 1, 2))
				return b.r.expire("p", b.links["p"])
			},
			expired:  2,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
		{
			name: "one sent after the previous tick outlives the next",
			run: func(b *ledgerBench) uint64 {
				b.ask("p", req(authorA, 1))
				n := b.r.expire("p", b.links["p"])
				b.ask("p", req(authorB, 1))
				return n
			},
			expired:  1,
			inflight: map[msg.Ref]mpc.PeerID{refB(1): "p"},
			out:      1,
		},
		{
			name: "one answered between the ticks is not expired",
			run: func(b *ledgerBench) uint64 {
				b.ask("p", req(authorA, 1), req(authorB, 1))
				n := b.r.expire("p", b.links["p"])
				b.deliver(batch(refA(1)), refA(1))
				return n
			},
			expired:  1,
			inflight: map[msg.Ref]mpc.PeerID{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newLedgerBench()
			n := tc.run(b)
			b.links["p"].hold([]wire.Entry{{Author: authorA, Seq: 9}})
			if n += b.r.expire("p", b.links["p"]); n != tc.expired {
				t.Errorf("the ticks expired %d refs, want %d", n, tc.expired)
			}
			if due := len(b.links["p"].due); due != 0 {
				t.Errorf("%d entries still due after a tick", due)
			}
			b.verify(t, tc.inflight, tc.out)
		})
	}
}

// TestCutRequest: a plan leaves as Requests of at most
// wire.MaxBatchMessages sequences each, an author's list that does not fit
// whole filling one and leading the next.
func TestCutRequest(t *testing.T) {
	seqs := func(from, n uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = from + uint64(i)
		}
		return out
	}
	const limit = wire.MaxBatchMessages
	for _, tc := range []struct {
		name  string
		wants []wire.Want
		sizes [][]int // sequences per want, per Request
	}{
		{"one Request", append(req(authorA, 1, 2), req(authorB, 1)...), [][]int{{2, 1}}},
		{"one author past the bound", req(authorA, seqs(1, limit+5)...), [][]int{{limit}, {5}}},
		{"the second author split", append(req(authorA, seqs(1, limit-3)...), req(authorB, seqs(1, 10)...)...), [][]int{{limit - 3, 3}, {7}}},
		{"an author that fits exactly", append(req(authorA, seqs(1, limit)...), req(authorB, 1)...), [][]int{{limit}, {1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sizes [][]int
			for rest := tc.wants; len(rest) > 0; {
				var r []wire.Want
				r, rest = cutRequest(rest)
				var s []int
				for _, w := range r {
					s = append(s, len(w.Seqs))
				}
				sizes = append(sizes, s)
			}
			if !slices.EqualFunc(sizes, tc.sizes, slices.Equal) {
				t.Errorf("Requests of %v sequences, want %v", sizes, tc.sizes)
			}
		})
	}
}

// TestLedgerSteadyRoundAllocBudget: the round every steady message takes
// through a warmed ledger, a ref planned and sent, answered by a
// one-message Batch, received and settled, allocates nothing.
func TestLedgerSteadyRoundAllocBudget(t *testing.T) {
	b := newLedgerBench()
	out, in := req(authorA, 1), batch(refA(1))
	round := func() {
		b.ask("p", out)
		if lost, declined := b.deliver(in, refA(1)); lost+declined != 0 {
			t.Fatalf("a whole answer released %d lost and %d declined", lost, declined)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a steady round: %.1f allocs, want 0", allocs)
	}
	b.verify(t, map[msg.Ref]mpc.PeerID{}, 0)
}
