package message

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/store"
	"sos/internal/wire"
)

// mergeReceiver is onSummary without the lock, the link and the flood
// bucket: a full summary's chunk 0 empties the view, and every frame goes
// through mergeAd. pulled latches once any frame exposed a gap.
type mergeReceiver struct {
	view    map[id.UserID]uint64
	recvGen uint64
	pulled  bool
}

// apply feeds one frame and reports whether it lowered any entry.
func (r *mergeReceiver) apply(ad *wire.Summary) (lowered bool) {
	before := maps.Clone(r.view)
	if !ad.IsDelta() && ad.Chunk == 0 {
		r.view, r.recvGen = nil, ad.Gen
	}
	if r.view == nil {
		r.view = make(map[id.UserID]uint64)
	}
	var gap bool
	r.recvGen, gap = mergeAd(r.view, r.recvGen, ad)
	r.pulled = r.pulled || gap
	for author, seq := range before {
		if r.view[author] < seq {
			return true
		}
	}
	return false
}

// mergeSender is an honest summary sender for one link: a store taking
// Puts and the sentGen cursor, emitting what sendSummary would.
type mergeSender struct {
	st      *store.Store
	rng     *rand.Rand
	authors []id.UserID
	next    map[id.UserID]uint64
	sentGen uint64
}

func newMergeSender(rng *rand.Rand, authors int) *mergeSender {
	s := &mergeSender{
		st:   store.New(id.NewUserID("merge-owner")),
		rng:  rng,
		next: make(map[id.UserID]uint64),
	}
	for i := 0; i < authors; i++ {
		a := id.NewUserID(fmt.Sprintf("merge-author-%05d", i))
		s.authors = append(s.authors, a)
		s.putFor(a)
	}
	return s
}

func (s *mergeSender) putFor(a id.UserID) {
	s.next[a] += 1 + uint64(s.rng.Intn(3))
	if _, err := s.st.Put(&msg.Message{Author: a, Seq: s.next[a], Kind: msg.KindPost, Created: time.Unix(0, 0)}); err != nil {
		panic(err)
	}
}

func (s *mergeSender) put() { s.putFor(s.authors[s.rng.Intn(len(s.authors))]) }

// full returns the full summary at the current generation as
// streamFullTo frames it: one frame, or chunk 0 plus continuations.
func (s *mergeSender) full() []*wire.Summary {
	gen := s.st.Generation()
	s.sentGen = gen
	if s.st.SummarySize() <= SummaryChunkEntries {
		return []*wire.Summary{{Gen: gen, Entries: sortedEntries(s.st.Summary())}}
	}
	var out []*wire.Summary
	ch := newSummaryChunker(s.st)
	for chunk, more := uint32(0), true; more; chunk++ {
		var entries []wire.Entry
		entries, more = ch.next()
		out = append(out, &wire.Summary{Gen: gen, Chunk: chunk, More: more, Entries: slices.Clone(entries)})
	}
	return out
}

// delta returns the next delta of the chain. With racing set, a Put
// lands between reading the generation and reading the change log — the
// window sendSummary documents — so the delta carries a change newer
// than its Gen label, which the next delta then re-tells.
func (s *mergeSender) delta(racing bool) *wire.Summary {
	gen := s.st.Generation()
	if racing {
		s.put()
	}
	changes, ok := s.st.Changes(s.sentGen)
	if !ok {
		panic("change log does not reach the base")
	}
	ad := &wire.Summary{Gen: gen, BaseGen: s.sentGen, Entries: sortedEntries(changes)}
	s.sentGen = gen
	return ad
}

// sortedEntries is dict as a Summary carries it.
func sortedEntries(dict map[id.UserID]uint64) []wire.Entry {
	entries := wire.AppendEntries(nil, dict)
	wire.SortEntries(entries)
	return entries
}

// settle is what the link carries once the run is over: the sender's
// next heartbeat, and the full summary if the receiver ever pulled. An
// honest full is newer than anything the view can hold, so once its
// stream is through (chunk 0 alone is a partial view) nothing is lower.
func settle(s *mergeSender, r *mergeReceiver) (lowered bool) {
	lowered = r.apply(s.delta(false))
	if r.pulled {
		before := maps.Clone(r.view)
		for _, ad := range s.full() {
			r.apply(ad)
		}
		for author, seq := range before {
			lowered = lowered || r.view[author] < seq
		}
	}
	return lowered
}

// TestMergeSemilattice is the property the summary plane rests on. An
// honest sender emits a full summary (chunked past SummaryChunkEntries)
// and a chain of deltas while its store takes random Puts; the receiver
// applies those frames dropped, duplicated and in any order. Then the
// link settles: the next heartbeat arrives, and the full summary if any
// frame exposed a gap. The view must equal the sender's Summary(), and
// no frame but the out-of-place reset may ever have lowered an entry.
//
// Two limits on the chaos, both what a sealed session already enforces
// or what the rule cannot see: chunk 0 — the reset — is applied at most
// once (the AEAD window rejects a replay, and a duplicated reset after
// its own continuation chunks would discard them), and each continuation
// chunk arrives at least once (a lost one is invisible without a chunk
// cursor, as it was before this rule).
func TestMergeSemilattice(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		authors := 1 + rng.Intn(40)
		if seed%8 == 0 {
			authors = SummaryChunkEntries + 1 + rng.Intn(64) // a two-chunk stream
		}
		s := newMergeSender(rng, authors)

		frames := s.full()
		reset, merges := frames[0], frames[1:]
		mustKeep := len(merges)
		for k := rng.Intn(12); k > 0; k-- {
			for puts := rng.Intn(4); puts > 0; puts-- {
				s.put()
			}
			merges = append(merges, s.delta(rng.Intn(4) == 0))
		}

		var run []*wire.Summary
		for i, ad := range merges {
			copies := rng.Intn(3) // 0 = lost
			if i < mustKeep && copies == 0 {
				copies = 1
			}
			for ; copies > 0; copies-- {
				run = append(run, ad)
			}
		}
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		resetAt := -1
		if rng.Intn(8) != 0 {
			resetAt = 0
			if rng.Intn(4) == 0 {
				resetAt = rng.Intn(len(run) + 1)
			}
		}

		r := &mergeReceiver{}
		for i := 0; i <= len(run); i++ {
			if i == resetAt {
				r.apply(reset) // out of place it may lower: that is what a reset is
			}
			if i < len(run) && r.apply(run[i]) {
				t.Logf("seed %d: frame %d of the run (%+v) lowered an entry", seed, i, run[i])
				return false
			}
		}
		if settle(s, r) {
			t.Logf("seed %d: settling lowered an entry", seed)
			return false
		}
		if !maps.Equal(r.view, s.st.Summary()) {
			t.Logf("seed %d: view has %d entries at gen %d, sender %d at gen %d (pulled=%v)",
				seed, len(r.view), r.recvGen, s.st.SummarySize(), s.st.Generation(), r.pulled)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMergeFrameSchedules walks the schedules a chaotic radio actually
// produces through the rule, one table row each.
func TestMergeFrameSchedules(t *testing.T) {
	// The sender's sequence is always full, d1, d2, d3; order indexes it.
	cases := []struct {
		name     string
		order    []int
		wantPull bool
	}{
		{"in order", []int{0, 1, 2, 3}, false},
		{"duplicated delta", []int{0, 1, 1, 2, 2, 3}, false},
		// Today's failure shape: the gap-tolerant AEAD window accepted
		// frame n+1 first, so frame n was rejected as a replay and is gone.
		{"frame n+1 accepted, frame n rejected as replay", []int{0, 1, 3}, true},
		{"swapped pair", []int{0, 2, 1, 3}, true},
		{"full lost", []int{1, 2, 3}, true},
		{"receiver restarted mid-chain", []int{3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newMergeSender(rand.New(rand.NewSource(1)), 5)
			frames := s.full()
			for i := 0; i < 3; i++ {
				s.put()
				frames = append(frames, s.delta(false))
			}
			r := &mergeReceiver{}
			for _, i := range tc.order {
				if r.apply(frames[i]) {
					t.Fatalf("frame %d lowered or dropped an entry", i)
				}
			}
			if r.pulled != tc.wantPull {
				t.Errorf("pulled = %v, want %v (recvGen %d)", r.pulled, tc.wantPull, r.recvGen)
			}
			if !tc.wantPull && !maps.Equal(r.view, s.st.Summary()) {
				t.Errorf("gap-free run left view %v, sender has %v", r.view, s.st.Summary())
			}
			if settle(s, r) {
				t.Error("settling lowered an entry")
			}
			if !maps.Equal(r.view, s.st.Summary()) {
				t.Errorf("settled view %v, sender has %v", r.view, s.st.Summary())
			}
		})
	}
}
