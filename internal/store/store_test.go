package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/msg"
)

var (
	alice = id.NewUserID("alice")
	bob   = id.NewUserID("bob")
	carol = id.NewUserID("carol")
)

func post(author id.UserID, seq uint64, text string) *msg.Message {
	return &msg.Message{
		Author:  author,
		Seq:     seq,
		Kind:    msg.KindPost,
		Created: time.Date(2017, 4, 6, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Minute),
		Payload: []byte(text),
	}
}

func mustPut(t *testing.T, s *Store, m *msg.Message) {
	t.Helper()
	added, err := s.Put(m)
	if err != nil {
		t.Fatalf("Put(%v): %v", m.Ref(), err)
	}
	if !added {
		t.Fatalf("Put(%v): duplicate", m.Ref())
	}
}

func TestPutGet(t *testing.T) {
	s := New(alice)
	m := post(bob, 1, "hi")
	mustPut(t, s, m)

	got, ok := s.Get(m.Ref())
	if !ok {
		t.Fatal("Get: not found")
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("Get = %+v, want %+v", got, m)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestPutDuplicateIdempotent(t *testing.T) {
	s := New(alice)
	m := post(bob, 1, "hi")
	mustPut(t, s, m)
	added, err := s.Put(m)
	if err != nil {
		t.Fatalf("Put dup: %v", err)
	}
	if added {
		t.Error("duplicate Put reported as new")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestPutRejectsInvalid(t *testing.T) {
	s := New(alice)
	if _, err := s.Put(&msg.Message{}); err == nil {
		t.Error("invalid message accepted")
	}
}

// TestPutTakesOwnership pins the one-copy contract: the store keeps the
// message Put was handed, and a read costs no copy of it.
func TestPutTakesOwnership(t *testing.T) {
	s := New(alice)
	m := post(bob, 1, "original")
	mustPut(t, s, m)
	if got, _ := s.Get(m.Ref()); got != m {
		t.Error("store copied the message on insert or on read")
	}
	if n := testing.AllocsPerRun(100, func() { s.Get(m.Ref()) }); n != 0 {
		t.Errorf("Get allocates %.0f times, want 0", n)
	}
	seqs := []uint64{1}
	if n := testing.AllocsPerRun(100, func() { s.Select(bob, seqs) }); n != 1 {
		t.Errorf("Select of one message allocates %.0f times, want 1 (the result slice)", n)
	}
}

func TestSummaryTracksMaxSeq(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(bob, 2, "b2"))
	mustPut(t, s, post(bob, 1, "b1"))
	mustPut(t, s, post(carol, 5, "c5"))

	want := map[id.UserID]uint64{bob: 2, carol: 5}
	if got := s.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("Summary = %v, want %v", got, want)
	}
	if s.MaxSeq(bob) != 2 {
		t.Errorf("MaxSeq(bob) = %d, want 2", s.MaxSeq(bob))
	}
	if s.MaxSeq(alice) != 0 {
		t.Errorf("MaxSeq(alice) = %d, want 0", s.MaxSeq(alice))
	}
}

func TestMissing(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(bob, 1, "b1"))
	mustPut(t, s, post(bob, 3, "b3"))

	got := s.Missing(bob, 5)
	want := []uint64{2, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Missing = %v, want %v", got, want)
	}
	if missing := s.Missing(carol, 2); !reflect.DeepEqual(missing, []uint64{1, 2}) {
		t.Errorf("Missing(unknown author) = %v, want [1 2]", missing)
	}
	if missing := s.Missing(bob, 0); missing != nil {
		t.Errorf("Missing(upto=0) = %v, want nil", missing)
	}
}

func TestMessagesFromOrdered(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(bob, 3, "b3"))
	mustPut(t, s, post(bob, 1, "b1"))
	mustPut(t, s, post(bob, 2, "b2"))

	got := s.MessagesFrom(bob, 1)
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Errorf("MessagesFrom(bob, 1) returned seqs %v", seqsOf(got))
	}
	if all := s.MessagesFrom(bob, 0); len(all) != 3 {
		t.Errorf("MessagesFrom(bob, 0) = %d messages, want 3", len(all))
	}
	if none := s.MessagesFrom(carol, 0); none != nil {
		t.Errorf("MessagesFrom(carol) = %v, want nil", none)
	}
}

func TestSelect(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(bob, 1, "b1"))
	mustPut(t, s, post(bob, 3, "b3"))
	got := s.Select(bob, []uint64{1, 2, 3})
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 {
		t.Errorf("Select returned seqs %v, want [1 3]", seqsOf(got))
	}
}

func TestAllDeterministicOrder(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(carol, 1, "c1"))
	mustPut(t, s, post(bob, 2, "b2"))
	mustPut(t, s, post(bob, 1, "b1"))

	first := heldRefs(s)
	for i := 0; i < 5; i++ {
		if got := heldRefs(s); !reflect.DeepEqual(got, first) {
			t.Fatalf("All order unstable: %v vs %v", got, first)
		}
	}
}

func TestAuthors(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(carol, 1, "c1"))
	mustPut(t, s, post(bob, 1, "b1"))
	authors := s.Authors()
	if len(authors) != 2 {
		t.Fatalf("Authors = %v, want 2 entries", authors)
	}
}

func TestSubscriptions(t *testing.T) {
	s := New(alice)
	if s.IsSubscribed(bob) {
		t.Error("new store subscribed to bob")
	}
	s.Subscribe(bob)
	s.Subscribe(carol)
	s.Subscribe(bob) // idempotent
	if !s.IsSubscribed(bob) || !s.IsSubscribed(carol) {
		t.Error("subscriptions not recorded")
	}
	if got := len(s.Subscriptions()); got != 2 {
		t.Errorf("Subscriptions len = %d, want 2", got)
	}
	s.Unsubscribe(bob)
	if s.IsSubscribed(bob) {
		t.Error("unsubscribe did not take effect")
	}
}

func TestNextSeqMonotonic(t *testing.T) {
	s := New(alice)
	if got := s.NextSeq(); got != 1 {
		t.Errorf("first NextSeq = %d, want 1", got)
	}
	if got := s.NextSeq(); got != 2 {
		t.Errorf("second NextSeq = %d, want 2", got)
	}
}

// TestNextSeqResumesAfterOwnMessages: when the owner's own messages are
// loaded from a snapshot, NextSeq must continue after them, never reusing
// a sequence number.
func TestNextSeqResumesAfterOwnMessages(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(alice, 7, "old post"))
	if got := s.NextSeq(); got != 8 {
		t.Errorf("NextSeq after loading own seq 7 = %d, want 8", got)
	}
}

func TestConcurrentPutters(t *testing.T) {
	s := New(alice)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			author := id.NewUserID(fmt.Sprintf("author-%d", w))
			for i := 1; i <= perWriter; i++ {
				if _, err := s.Put(post(author, uint64(i), "x")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != writers*perWriter {
		t.Errorf("Len = %d, want %d", got, writers*perWriter)
	}
}

// TestSnapshotRoundTrip: a compacted log is the whole state. Everything
// an engine holds — messages, subscriptions, summary, tombstones, the
// owner's sequence — comes back from a compact-and-reopen.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, Options{NoSync: true})
	for _, m := range []*msg.Message{post(bob, 1, "b1"), post(bob, 2, "b2"), post(carol, 9, "c9"), post(alice, 3, "mine")} {
		if _, err := s.Put(m); err != nil {
			t.Fatalf("Put(%v): %v", m.Ref(), err)
		}
	}
	s.Subscribe(bob)
	s.Subscribe(carol)
	s.applyEvict(msg.Ref{Author: carol, Seq: 4}) // tombstone without holding
	s.logMu.Lock()
	err := s.compactLocked()
	s.logMu.Unlock()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	// Crash: only what the compaction wrote is on disk.

	restored := openDisk(t, dir, Options{})
	defer restored.Close()
	if !reflect.DeepEqual(heldRefs(restored), heldRefs(s)) {
		t.Error("restored messages differ")
	}
	if !reflect.DeepEqual(restored.Subscriptions(), s.Subscriptions()) {
		t.Error("restored subscriptions differ")
	}
	if !reflect.DeepEqual(restored.Summary(), s.Summary()) {
		t.Error("restored summary differs")
	}
	if got := restored.Missing(carol, 9); !reflect.DeepEqual(got, []uint64{1, 2, 3, 5, 6, 7, 8}) {
		t.Errorf("restored tombstones lost: Missing(carol) = %v", got)
	}
	if got := restored.NextSeq(); got != 4 {
		t.Errorf("NextSeq after restore = %d, want 4", got)
	}
}

func TestEvictionDropOldest(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2017, 4, 6, 0, 0, 0, 0, time.UTC))
	var drops []Eviction
	s := NewMemory(alice, Options{MaxMessages: 2, Clock: clk})
	s.OnEvict(func(ev Eviction) { drops = append(drops, ev) })
	mustPut(t, s, post(bob, 1, "b1"))
	clk.Advance(time.Minute)
	mustPut(t, s, post(carol, 1, "c1"))
	clk.Advance(time.Minute)
	mustPut(t, s, post(bob, 2, "b2")) // over quota: bob#1 is oldest

	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if has(s, msg.Ref{Author: bob, Seq: 1}) {
		t.Error("oldest message not evicted")
	}
	if len(drops) != 1 || drops[0].Ref != (msg.Ref{Author: bob, Seq: 1}) || drops[0].Reason != EvictCapacity {
		t.Errorf("drops = %+v, want one capacity eviction of bob#1", drops)
	}
	// The advertised summary keeps the high-water mark.
	if s.MaxSeq(bob) != 2 {
		t.Errorf("MaxSeq(bob) = %d, want 2", s.MaxSeq(bob))
	}
	// The tombstone blocks both re-request and re-admission.
	if got := s.Missing(bob, 2); got != nil {
		t.Errorf("Missing(bob) = %v, want nil (evicted seq tombstoned)", got)
	}
	if added, err := s.Put(post(bob, 1, "b1 again")); err != nil || added {
		t.Errorf("re-Put of evicted ref = (%v, %v), want (false, nil)", added, err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 1 eviction and 1 duplicate", st)
	}
}

func TestEvictionNeverDropsOwnerMessages(t *testing.T) {
	s := NewMemory(alice, Options{MaxMessages: 1})
	mustPut(t, s, post(alice, 1, "mine"))
	mustPut(t, s, post(alice, 2, "also mine"))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (owner messages exceed quota rather than drop)", s.Len())
	}
	// A foreign message gives the policy a victim again.
	mustPut(t, s, post(bob, 1, "cargo"))
	if s.Len() != 2 || has(s, msg.Ref{Author: bob, Seq: 1}) {
		t.Errorf("foreign message not chosen as victim: len=%d", s.Len())
	}
}

func TestTTLSweep(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2017, 4, 6, 0, 0, 0, 0, time.UTC))
	s := NewMemory(alice, Options{Policy: TTL(24 * time.Hour), Clock: clk})
	old := post(bob, 1, "stale")
	old.Created = clk.Now().Add(-36 * time.Hour)
	mustPut(t, s, old)
	ownOld := post(alice, 1, "own stale")
	ownOld.Created = clk.Now().Add(-48 * time.Hour)
	mustPut(t, s, ownOld)
	fresh := post(bob, 2, "fresh")
	fresh.Created = clk.Now()
	mustPut(t, s, fresh)

	if n := s.SweepExpired(); n != 1 {
		t.Fatalf("SweepExpired = %d, want 1", n)
	}
	if has(s, msg.Ref{Author: bob, Seq: 1}) {
		t.Error("expired foreign message survived the sweep")
	}
	if !has(s, msg.Ref{Author: alice, Seq: 1}) {
		t.Error("owner's old message was expired")
	}
	if !has(s, msg.Ref{Author: bob, Seq: 2}) {
		t.Error("fresh message was expired")
	}
	if st := s.Stats(); st.Expirations != 1 {
		t.Errorf("Expirations = %d, want 1", st.Expirations)
	}
}

func TestSummaryGeneration(t *testing.T) {
	s := New(alice)
	g0 := s.Generation()
	mustPut(t, s, post(bob, 2, "b2"))
	g1 := s.Generation()
	if g1 == g0 {
		t.Error("generation did not move on a summary change")
	}
	// An out-of-order older seq changes holdings but not the summary.
	mustPut(t, s, post(bob, 1, "b1"))
	if s.Generation() != g1 {
		t.Error("generation moved though the summary did not change")
	}
	// A handed-out snapshot stays immutable across later puts.
	snap := s.Summary()
	mustPut(t, s, post(bob, 3, "b3"))
	if snap[bob] != 2 {
		t.Errorf("handed-out summary mutated: %v", snap)
	}
	if got := s.Summary()[bob]; got != 3 {
		t.Errorf("fresh summary = %d, want 3", got)
	}
}

func TestSizeQuotaPolicyEvictsLargest(t *testing.T) {
	s := NewMemory(alice, Options{MaxMessages: 2, Policy: sizeQuota{}})
	mustPut(t, s, post(bob, 1, "tiny"))
	mustPut(t, s, post(carol, 1, string(make([]byte, 4096))))
	mustPut(t, s, post(bob, 2, "small"))
	if has(s, msg.Ref{Author: carol, Seq: 1}) {
		t.Error("size-quota policy kept the largest message")
	}
	if !has(s, msg.Ref{Author: bob, Seq: 1}) || !has(s, msg.Ref{Author: bob, Seq: 2}) {
		t.Error("size-quota policy dropped a small message")
	}
}

func TestSubscriptionPriorityPolicyProtectsFeed(t *testing.T) {
	s := NewMemory(alice, Options{MaxMessages: 2, Policy: subPriority{}})
	s.Subscribe(carol)
	mustPut(t, s, post(carol, 1, "feed"))
	mustPut(t, s, post(bob, 1, "cargo"))
	mustPut(t, s, post(carol, 2, "more feed"))
	if has(s, msg.Ref{Author: bob, Seq: 1}) {
		t.Error("unsubscribed cargo survived over feed content")
	}
	if !has(s, msg.Ref{Author: carol, Seq: 1}) || !has(s, msg.Ref{Author: carol, Seq: 2}) {
		t.Error("subscribed feed content was evicted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{PolicyDropOldest, PolicySizeQuota, PolicySubscriptionPriority} {
		p, err := PolicyByName(name, 0)
		if err != nil || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := PolicyByName(PolicyTTL, time.Hour); err != nil || p.Name() != PolicyTTL {
		t.Errorf("PolicyByName(ttl, 1h) = %v, %v", p, err)
	}
	if _, err := PolicyByName(PolicyTTL, 0); err == nil {
		t.Error("ttl policy without a lifetime accepted")
	}
	if _, err := PolicyByName("no-such-policy", 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if p, _ := PolicyByName("", 0); p.Name() != PolicyDropOldest {
		t.Errorf("default policy = %s, want drop-oldest", p.Name())
	}
	if p, _ := PolicyByName("", time.Hour); p.Name() != PolicyTTL {
		t.Errorf("default policy with ttl = %s, want ttl", p.Name())
	}
	// A relay TTL composes with any named policy instead of being
	// silently dropped.
	p, err := PolicyByName(PolicySubscriptionPriority, time.Hour)
	if err != nil {
		t.Fatalf("PolicyByName(subscription-priority, 1h): %v", err)
	}
	if !p.Expires() {
		t.Error("ttl not layered over subscription-priority")
	}
	old := Entry{Created: time.Date(2017, 4, 6, 0, 0, 0, 0, time.UTC)}
	if !p.Expired(old, old.Created.Add(2*time.Hour)) {
		t.Error("composed policy did not expire an old entry")
	}
	if !p.Less(Entry{Subscribed: false}, Entry{Subscribed: true}) {
		t.Error("composed policy lost the base victim ranking")
	}
}

// TestSummaryMonotoneProperty: inserting any batch of messages never
// lowers any author's summary entry.
func TestSummaryMonotoneProperty(t *testing.T) {
	f := func(seqsRaw []uint16) bool {
		s := New(alice)
		prev := make(map[id.UserID]uint64)
		for _, raw := range seqsRaw {
			seq := uint64(raw%64) + 1
			author := bob
			if raw%2 == 0 {
				author = carol
			}
			if _, err := s.Put(post(author, seq, "m")); err != nil {
				return false
			}
			cur := s.Summary()
			for a, v := range prev {
				if cur[a] < v {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMissingComplementProperty: for any set of held sequences, Missing
// plus held must exactly cover 1..upto.
func TestMissingComplementProperty(t *testing.T) {
	f := func(heldRaw []uint16, uptoRaw uint8) bool {
		upto := uint64(uptoRaw%40) + 1
		s := New(alice)
		held := make(map[uint64]bool)
		for _, raw := range heldRaw {
			seq := uint64(raw%40) + 1
			if !held[seq] {
				if _, err := s.Put(post(bob, seq, "m")); err != nil {
					return false
				}
				held[seq] = true
			}
		}
		missing := s.Missing(bob, upto)
		missingSet := make(map[uint64]bool, len(missing))
		for _, seq := range missing {
			if seq < 1 || seq > upto || held[seq] {
				return false
			}
			missingSet[seq] = true
		}
		for seq := uint64(1); seq <= upto; seq++ {
			if !held[seq] && !missingSet[seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func seqsOf(ms []*msg.Message) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.Seq
	}
	return out
}

// heldRefs lists every message the engine holds, by author display form
// and then sequence.
func heldRefs(e Engine) []msg.Ref {
	var out []msg.Ref
	for _, author := range e.Authors() {
		for _, m := range e.MessagesFrom(author, 0) {
			out = append(out, m.Ref())
		}
	}
	return out
}

// has reports whether the engine holds ref.
func has(e Engine, ref msg.Ref) bool {
	_, ok := e.Get(ref)
	return ok
}

// TestChangesLogBounded drives one stripe's change log past its cap and
// checks that ancient bases become unanswerable (full-summary fallback)
// while recent bases still produce exact deltas.
func TestChangesLogBounded(t *testing.T) {
	s := New(id.NewUserID("owner"))
	author := id.NewUserID("busy")
	var n uint64
	for s.sum.floor.Load() == 0 {
		n++
		if _, err := s.Put(&msg.Message{
			Author: author, Seq: n, Kind: msg.KindPost, Created: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
		if n > 3*maxStripeLog {
			t.Fatalf("log never compacted after %d changes", n)
		}
	}
	if _, ok := s.Changes(0); ok {
		t.Error("Changes(0) still answerable after log compaction")
	}
	recent := s.Generation() - 5
	delta, ok := s.Changes(recent)
	if !ok {
		t.Fatalf("Changes(%d) unanswerable", recent)
	}
	if len(delta) != 1 || delta[author] != n {
		t.Errorf("Changes(%d) = %v, want {%s: %d}", recent, delta, author, n)
	}
}

// TestSummaryNoCloneWithoutSnapshot is the mega-alloc regression guard:
// Summary hands out a private merged copy, so a Put after Summary()+drop
// must not force any copy-on-write clone — the old design cloned the
// whole dictionary on the next bump after every hand-out.
func TestSummaryNoCloneWithoutSnapshot(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(bob, 1, "b1"))
	_ = s.Summary() // dropped immediately
	mustPut(t, s, post(bob, 2, "b2"))
	mustPut(t, s, post(carol, 1, "c1"))
	if got := s.Stats().SummaryClones; got != 0 {
		t.Errorf("SummaryClones after Summary()+drop = %d, want 0", got)
	}
}

// TestStripeSnapshotClonesOnce: a handed-out stripe snapshot forces
// exactly one clone on that stripe's next change, stays immutable, and
// further changes without a new hand-out are clone-free.
func TestStripeSnapshotClonesOnce(t *testing.T) {
	s := New(alice)
	mustPut(t, s, post(bob, 1, "b1"))
	snap := s.SummaryStripe(stripeOf(bob))
	mustPut(t, s, post(bob, 2, "b2")) // first change after hand-out: clones
	mustPut(t, s, post(bob, 3, "b3")) // no snapshot outstanding: clone-free
	if got := s.Stats().SummaryClones; got != 1 {
		t.Errorf("SummaryClones = %d, want exactly 1", got)
	}
	if snap[bob] != 1 {
		t.Errorf("handed-out stripe snapshot mutated: %v", snap)
	}
	if got := s.SummaryStripe(stripeOf(bob))[bob]; got != 3 {
		t.Errorf("fresh stripe snapshot = %d, want 3", got)
	}
	// A change in a different stripe never clones bob's stripe.
	other := carol
	if stripeOf(other) == stripeOf(bob) {
		for i := 0; stripeOf(other) == stripeOf(bob); i++ {
			other = id.NewUserID(fmt.Sprintf("other-%d", i))
		}
	}
	_ = s.SummaryStripe(stripeOf(bob))
	mustPut(t, s, post(other, 1, "o1"))
	if got := s.Stats().SummaryClones; got != 1 {
		t.Errorf("cross-stripe Put forced a clone: SummaryClones = %d", got)
	}
}

// TestStripedSummaryConcurrent exercises writers against every reader of
// the striped index under the race detector.
func TestStripedSummaryConcurrent(t *testing.T) {
	s := New(alice)
	var wg sync.WaitGroup
	const writers, perWriter = 4, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			author := id.NewUserID(fmt.Sprintf("stripe-writer-%d", w))
			for i := 1; i <= perWriter; i++ {
				if _, err := s.Put(post(author, uint64(i), "x")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			base := s.Generation()
			_ = s.Summary()
			for st := 0; st < s.SummaryStripes(); st++ {
				for range s.SummaryStripe(st) {
				}
			}
			if delta, ok := s.Changes(base); ok {
				for a, seq := range delta {
					if seq == 0 {
						t.Errorf("delta advertises seq 0 for %s", a)
					}
				}
			}
		}
	}()
	wg.Wait()
	<-done
	want := map[id.UserID]uint64{}
	for w := 0; w < writers; w++ {
		want[id.NewUserID(fmt.Sprintf("stripe-writer-%d", w))] = perWriter
	}
	if got := s.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("final Summary = %v, want %v", got, want)
	}
	if got := s.SummarySize(); got != writers {
		t.Errorf("SummarySize = %d, want %d", got, writers)
	}
}

// TestChangesDedupsAuthors checks that a delta names each author once at
// its latest sequence even when many generations touched it.
func TestChangesDedupsAuthors(t *testing.T) {
	s := New(id.NewUserID("owner"))
	a, b := id.NewUserID("a"), id.NewUserID("b")
	base := s.Generation()
	for seq := uint64(1); seq <= 50; seq++ {
		for _, author := range []id.UserID{a, b} {
			if _, err := s.Put(&msg.Message{
				Author: author, Seq: seq, Kind: msg.KindPost, Created: time.Unix(0, 0),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	delta, ok := s.Changes(base)
	if !ok {
		t.Fatal("Changes unanswerable")
	}
	want := map[id.UserID]uint64{a: 50, b: 50}
	if !reflect.DeepEqual(delta, want) {
		t.Errorf("Changes = %v, want %v", delta, want)
	}
}
