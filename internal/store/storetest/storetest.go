// Package storetest is the shared conformance suite for store.Engine
// implementations, mirroring mpc/mediumtest: every backend — the
// in-memory Store and the disk-backed Disk — must expose identical
// database semantics (idempotent puts, high-water summaries with a
// generation counter, tombstoned evictions, quota enforcement), so the
// layers above can treat them as interchangeable. Durable engines are
// additionally run through clean reload and kill-and-reload crash
// recovery.
package storetest

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/store"
	"sos/internal/wire"
)

// World is one isolated storage universe. Open opens an engine over the
// universe's durable state; calling it again models a process restart.
// For volatile backends every Open returns a fresh empty engine.
type World interface {
	Open(t *testing.T, opts store.Options) store.Engine
	// Persistent reports whether state written through one Open survives
	// into the next.
	Persistent() bool
}

// owner and peers used throughout the suite.
var (
	owner = id.NewUserID("conformance-owner")
	bob   = id.NewUserID("conformance-bob")
	carol = id.NewUserID("conformance-carol")
)

var t0 = time.Date(2017, 4, 6, 0, 0, 0, 0, time.UTC)

// Run exercises the full conformance suite, building a fresh World per
// subtest.
func Run(t *testing.T, mk func(t *testing.T) World) {
	t.Run("PutGetRoundTrip", func(t *testing.T) { testPutGet(t, mk(t)) })
	t.Run("DuplicatePuts", func(t *testing.T) { testDuplicates(t, mk(t)) })
	t.Run("SummaryAndGeneration", func(t *testing.T) { testSummary(t, mk(t)) })
	t.Run("MissingGapWalk", func(t *testing.T) { testMissing(t, mk(t)) })
	t.Run("MissingOutOfOrder", func(t *testing.T) { testMissingOutOfOrder(t, mk(t)) })
	t.Run("MissingCapped", func(t *testing.T) { testMissingCapped(t, mk(t)) })
	t.Run("MissingAfterEviction", func(t *testing.T) { testMissingAfterEviction(t, mk(t)) })
	t.Run("MissingAfterForgottenTombstones", func(t *testing.T) { testMissingForgotten(t, mk(t)) })
	t.Run("MissingAfterCrash", func(t *testing.T) { testMissingAfterCrash(t, mk(t)) })
	t.Run("AheadMatchesMissing", func(t *testing.T) { testAheadMatchesMissing(t, mk(t)) })
	t.Run("ChangesDelta", func(t *testing.T) { testChanges(t, mk(t)) })
	t.Run("ChangesStriped", func(t *testing.T) { testChangesStriped(t, mk(t)) })
	t.Run("Subscriptions", func(t *testing.T) { testSubscriptions(t, mk(t)) })
	t.Run("NextSeqResumes", func(t *testing.T) { testNextSeq(t, mk(t)) })
	t.Run("QuotaEviction", func(t *testing.T) { testQuotaEviction(t, mk(t)) })
	t.Run("TTLExpiry", func(t *testing.T) { testTTLExpiry(t, mk(t)) })
	t.Run("Reload", func(t *testing.T) { testReload(t, mk(t)) })
	t.Run("CrashRecovery", func(t *testing.T) { testCrashRecovery(t, mk(t)) })
	t.Run("EvictionSurvivesReload", func(t *testing.T) { testEvictionReload(t, mk(t)) })
	t.Run("ArrivalOrderAcrossCompaction", func(t *testing.T) { testArrivalOrderAcrossCompaction(t, mk(t)) })
}

func post(author id.UserID, seq uint64, text string) *msg.Message {
	return &msg.Message{
		Author:  author,
		Seq:     seq,
		Kind:    msg.KindPost,
		Created: t0.Add(time.Duration(seq) * time.Minute),
		Payload: []byte(text),
	}
}

func mustPut(t *testing.T, e store.Engine, m *msg.Message) {
	t.Helper()
	added, err := e.Put(m)
	if err != nil {
		t.Fatalf("Put(%v): %v", m.Ref(), err)
	}
	if !added {
		t.Fatalf("Put(%v): unexpectedly a duplicate", m.Ref())
	}
}

func testPutGet(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	if e.Owner() != owner {
		t.Errorf("Owner = %s, want %s", e.Owner(), owner)
	}
	m := post(bob, 1, "hello")
	mustPut(t, e, m)
	got, ok := e.Get(m.Ref())
	if !ok {
		t.Fatal("Get: not found")
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("Get = %+v, want %+v", got, m)
	}
	// One copy per message: the engine keeps the message it was handed,
	// and every read hands out that same read-only message.
	if got != m {
		t.Error("Get handed out a copy, not the held message")
	}
	if sel := e.Select(bob, []uint64{1}); len(sel) != 1 || sel[0] != m {
		t.Error("Select handed out a copy, not the held message")
	}
	if from := e.MessagesFrom(bob, 0); len(from) != 1 || from[0] != m {
		t.Error("MessagesFrom handed out a copy, not the held message")
	}
	if !has(e, m.Ref()) || e.Len() != 1 {
		t.Errorf("held/Len = %v/%d, want true/1", has(e, m.Ref()), e.Len())
	}
	if _, err := e.Put(&msg.Message{}); err == nil {
		t.Error("invalid message accepted")
	}
}

func testDuplicates(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	m := post(bob, 1, "once")
	mustPut(t, e, m)
	added, err := e.Put(m)
	if err != nil || added {
		t.Errorf("duplicate Put = (%v, %v), want (false, nil)", added, err)
	}
	if st := e.Stats(); st.Puts != 1 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 1 put and 1 duplicate", st)
	}
}

func testSummary(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	g0 := e.Generation()
	mustPut(t, e, post(bob, 2, "b2"))
	mustPut(t, e, post(carol, 5, "c5"))
	if e.Generation() == g0 {
		t.Error("generation did not advance on summary changes")
	}
	want := map[id.UserID]uint64{bob: 2, carol: 5}
	if got := e.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("Summary = %v, want %v", got, want)
	}
	g1 := e.Generation()
	mustPut(t, e, post(bob, 1, "older")) // holdings change, summary does not
	if e.Generation() != g1 {
		t.Error("generation advanced without a summary change")
	}
	if e.MaxSeq(bob) != 2 || e.MaxSeq(owner) != 0 {
		t.Errorf("MaxSeq = %d/%d, want 2/0", e.MaxSeq(bob), e.MaxSeq(owner))
	}
}

func testMissing(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	mustPut(t, e, post(bob, 1, "b1"))
	mustPut(t, e, post(bob, 3, "b3"))
	// Sparse, large sequence numbers must not cost O(upto).
	mustPut(t, e, post(bob, 1_000_000, "way out"))
	if got, want := e.Missing(bob, 5), []uint64{2, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Missing(bob, 5) = %v, want %v", got, want)
	}
	if got := e.Missing(carol, 2); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("Missing(unknown author) = %v, want [1 2]", got)
	}
	if got := e.Missing(bob, 0); got != nil {
		t.Errorf("Missing(upto=0) = %v, want nil", got)
	}
	if got := e.MessagesFrom(bob, 1); len(got) != 2 || got[0].Seq != 3 {
		t.Errorf("MessagesFrom(bob, 1) = %d messages, want [3, 1000000]", len(got))
	}
	if got := e.Select(bob, []uint64{1, 2, 3}); len(got) != 2 {
		t.Errorf("Select = %d messages, want 2", len(got))
	}
}

func testSubscriptions(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	if e.IsSubscribed(bob) {
		t.Error("fresh engine subscribed to bob")
	}
	e.Subscribe(bob)
	e.Subscribe(carol)
	e.Subscribe(bob) // idempotent
	if !e.IsSubscribed(bob) || len(e.Subscriptions()) != 2 {
		t.Errorf("subscriptions = %v", e.Subscriptions())
	}
	e.Unsubscribe(bob)
	if e.IsSubscribed(bob) {
		t.Error("unsubscribe did not take effect")
	}
}

func testNextSeq(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	if got := e.NextSeq(); got != 1 {
		t.Errorf("first NextSeq = %d, want 1", got)
	}
	mustPut(t, e, post(owner, 7, "own action from the past"))
	if got := e.NextSeq(); got != 8 {
		t.Errorf("NextSeq after own seq 7 = %d, want 8", got)
	}
}

func testQuotaEviction(t *testing.T, w World) {
	clk := clock.NewVirtual(t0)
	var drops []store.Eviction
	e := w.Open(t, store.Options{MaxMessages: 2, Clock: clk})
	e.OnEvict(func(ev store.Eviction) { drops = append(drops, ev) })
	defer e.Close()
	mustPut(t, e, post(owner, 1, "own, protected"))
	clk.Advance(time.Minute)
	mustPut(t, e, post(bob, 1, "oldest cargo"))
	clk.Advance(time.Minute)
	mustPut(t, e, post(carol, 1, "newer cargo"))

	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	if has(e, msg.Ref{Author: owner, Seq: 1}) == false {
		t.Error("owner's message was evicted")
	}
	if has(e, msg.Ref{Author: bob, Seq: 1}) {
		t.Error("drop-oldest kept the oldest foreign message")
	}
	if len(drops) != 1 || drops[0].Reason != store.EvictCapacity {
		t.Fatalf("drops = %+v, want one capacity eviction", drops)
	}
	// Tombstone semantics: not missing, not re-admittable.
	if got := e.Missing(bob, 1); got != nil {
		t.Errorf("Missing includes an evicted seq: %v", got)
	}
	if added, _ := e.Put(post(bob, 1, "return of the cargo")); added {
		t.Error("evicted ref re-admitted")
	}
	if st := e.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

func testTTLExpiry(t *testing.T, w World) {
	clk := clock.NewVirtual(t0)
	e := w.Open(t, store.Options{Policy: store.TTL(time.Hour), Clock: clk})
	defer e.Close()
	m := post(bob, 1, "cargo")
	m.Created = clk.Now()
	mustPut(t, e, m)
	own := post(owner, 1, "own")
	own.Created = clk.Now()
	mustPut(t, e, own)

	if n := e.SweepExpired(); n != 0 {
		t.Fatalf("premature expiry: %d", n)
	}
	clk.Advance(2 * time.Hour)
	if n := e.SweepExpired(); n != 1 {
		t.Fatalf("SweepExpired = %d, want 1", n)
	}
	if has(e, m.Ref()) {
		t.Error("expired foreign message survived")
	}
	if !has(e, own.Ref()) {
		t.Error("owner's message expired")
	}
	if st := e.Stats(); st.Expirations != 1 {
		t.Errorf("Expirations = %d, want 1", st.Expirations)
	}
}

// testReload checks the clean shutdown/reopen path on durable engines.
func testReload(t *testing.T, w World) {
	if !w.Persistent() {
		t.Skip("volatile engine")
	}
	e := w.Open(t, store.Options{})
	mustPut(t, e, post(bob, 1, "survives"))
	mustPut(t, e, post(owner, 2, "own survives"))
	e.Subscribe(carol)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := w.Open(t, store.Options{})
	defer re.Close()
	if re.Len() != 2 || !has(re, msg.Ref{Author: bob, Seq: 1}) {
		t.Errorf("reloaded Len = %d, want 2", re.Len())
	}
	if !re.IsSubscribed(carol) {
		t.Error("subscription lost across reload")
	}
	if got := re.NextSeq(); got != 3 {
		t.Errorf("NextSeq after reload = %d, want 3 (own seq continues)", got)
	}
	if got := re.Summary()[bob]; got != 1 {
		t.Errorf("reloaded summary[bob] = %d, want 1", got)
	}
}

// testCrashRecovery kills the engine — no Close, the process just goes
// away — and reopens over the same state.
func testCrashRecovery(t *testing.T, w World) {
	if !w.Persistent() {
		t.Skip("volatile engine")
	}
	e := w.Open(t, store.Options{})
	mustPut(t, e, post(bob, 1, "acked before the crash"))
	e.Subscribe(bob)
	e.Unsubscribe(bob)
	e.Subscribe(carol)
	// Crash: drop the handle on the floor.

	re := w.Open(t, store.Options{})
	defer re.Close()
	if !has(re, msg.Ref{Author: bob, Seq: 1}) {
		t.Error("message lost in crash")
	}
	if re.IsSubscribed(bob) || !re.IsSubscribed(carol) {
		t.Errorf("subscription replay wrong: bob=%v carol=%v",
			re.IsSubscribed(bob), re.IsSubscribed(carol))
	}
}

// testEvictionReload checks that tombstones are durable: a message
// evicted before a restart must not become requestable again after it.
func testEvictionReload(t *testing.T, w World) {
	if !w.Persistent() {
		t.Skip("volatile engine")
	}
	e := w.Open(t, store.Options{MaxMessages: 1})
	mustPut(t, e, post(bob, 1, "evict me"))
	mustPut(t, e, post(carol, 1, "usurper"))
	if has(e, msg.Ref{Author: bob, Seq: 1}) {
		t.Fatal("expected bob#1 evicted")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := w.Open(t, store.Options{MaxMessages: 1})
	defer re.Close()
	if got := re.Missing(bob, 1); got != nil {
		t.Errorf("evicted ref requestable after reload: Missing = %v", got)
	}
	if added, _ := re.Put(post(bob, 1, "zombie")); added {
		t.Error("evicted ref re-admitted after reload")
	}
	if !has(re, msg.Ref{Author: carol, Seq: 1}) {
		t.Error("survivor lost across reload")
	}
}

// testArrivalOrderAcrossCompaction kills an engine whose log has been
// compacted and reopens it under a tighter quota: the overflow must be
// the oldest arrivals, exactly what the running engine would have
// dropped, not whatever order the compacted state happened to be written
// in.
func testArrivalOrderAcrossCompaction(t *testing.T, w World) {
	if !w.Persistent() {
		t.Skip("volatile engine")
	}
	// A one-byte threshold compacts as often as an engine ever will.
	e := w.Open(t, store.Options{CompactBytes: 1, NoSync: true})
	for seq := uint64(1); seq <= 4; seq++ {
		mustPut(t, e, post(carol, seq, "interleaved"))
		mustPut(t, e, post(bob, seq, "interleaved"))
	}
	// Crash: drop the handle on the floor.

	re := w.Open(t, store.Options{MaxMessages: 6})
	defer re.Close()
	for _, author := range []id.UserID{carol, bob} {
		for seq := uint64(1); seq <= 4; seq++ {
			ref := msg.Ref{Author: author, Seq: seq}
			if got, want := has(re, ref), seq > 1; got != want {
				t.Errorf("held(%s) = %v, want %v (the two oldest arrivals, carol/1 and bob/1, go)", ref, got, want)
			}
		}
	}
}

// testChangesStriped checks delta correctness when the summary is
// sharded: interleaved updates to authors in *different* stripes must
// merge into one exact delta regardless of which stripe's log holds
// which generation, and the union of the stripe snapshots must equal
// the merged Summary.
func testChangesStriped(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()

	// Collect one author per distinct stripe (at least three stripes).
	stripeFor := func(u id.UserID) int {
		for i := 0; i < e.SummaryStripes(); i++ {
			for a := range e.SummaryStripe(i) {
				if a == u {
					return i
				}
			}
		}
		return -1
	}
	var authors []id.UserID
	seen := map[int]bool{}
	for i := 0; len(authors) < 3 && i < 256; i++ {
		u := id.NewUserID(fmt.Sprintf("striped-author-%d", i))
		mustPut(t, e, post(u, 1, "probe"))
		s := stripeFor(u)
		if s < 0 {
			t.Fatalf("author %s in no stripe snapshot", u)
		}
		if !seen[s] {
			seen[s] = true
			authors = append(authors, u)
		}
	}
	if len(authors) < 3 {
		t.Fatal("could not find authors in 3 distinct stripes")
	}

	base := e.Generation()
	// Interleave bumps across the stripes so consecutive generations land
	// in different stripe logs.
	for seq := uint64(2); seq <= 5; seq++ {
		for _, u := range authors {
			mustPut(t, e, post(u, seq, "interleaved"))
		}
	}
	delta, ok := e.Changes(base)
	if !ok {
		t.Fatalf("Changes(%d) not answerable", base)
	}
	want := map[id.UserID]uint64{}
	for _, u := range authors {
		want[u] = 5
	}
	if !reflect.DeepEqual(delta, want) {
		t.Errorf("striped Changes(%d) = %v, want %v", base, delta, want)
	}

	// A mid-stream base must see only the later updates, still merged
	// across stripes at each author's latest sequence.
	mid := e.Generation()
	mustPut(t, e, post(authors[0], 6, "late"))
	mustPut(t, e, post(authors[2], 6, "late"))
	mustPut(t, e, post(authors[0], 7, "later"))
	delta, ok = e.Changes(mid)
	if !ok {
		t.Fatalf("Changes(%d) not answerable", mid)
	}
	midWant := map[id.UserID]uint64{authors[0]: 7, authors[2]: 6}
	if !reflect.DeepEqual(delta, midWant) {
		t.Errorf("mid-stream Changes(%d) = %v, want %v", mid, delta, midWant)
	}

	// Stripe union == Summary: every author in exactly one stripe.
	union := map[id.UserID]uint64{}
	for i := 0; i < e.SummaryStripes(); i++ {
		for a, seq := range e.SummaryStripe(i) {
			if _, dup := union[a]; dup {
				t.Errorf("author %s appears in two stripes", a)
			}
			union[a] = seq
		}
	}
	if full := e.Summary(); !reflect.DeepEqual(union, full) {
		t.Errorf("stripe union (%d entries) != Summary (%d entries)", len(union), len(full))
	}
}

// seqs returns lo..hi inclusive.
func seqs(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo+1)
	for seq := lo; seq <= hi; seq++ {
		out = append(out, seq)
	}
	return out
}

func wantMissing(t *testing.T, e store.Engine, author id.UserID, upto uint64, want []uint64) {
	t.Helper()
	if got := e.Missing(author, upto); !reflect.DeepEqual(got, want) {
		if len(got) > 16 || len(want) > 16 {
			t.Errorf("Missing(upto=%d): %d entries, want %d", upto, len(got), len(want))
			return
		}
		t.Errorf("Missing(upto=%d) = %v, want %v", upto, got, want)
	}
}

// testMissingOutOfOrder fills an author's sequence out of order: an
// engine that skips a prefix it believes complete must only skip what
// really is.
func testMissingOutOfOrder(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	mustPut(t, e, post(bob, 3, "b3"))
	wantMissing(t, e, bob, 5, []uint64{1, 2, 4, 5})
	mustPut(t, e, post(bob, 1, "b1"))
	wantMissing(t, e, bob, 5, []uint64{2, 4, 5})
	mustPut(t, e, post(bob, 2, "b2")) // closes the gap: 1..3 complete
	wantMissing(t, e, bob, 5, []uint64{4, 5})
	wantMissing(t, e, bob, 2, nil)
	mustPut(t, e, post(bob, 5, "b5"))
	mustPut(t, e, post(bob, 4, "b4"))
	wantMissing(t, e, bob, 5, nil)
	wantMissing(t, e, bob, 7, []uint64{6, 7})
	wantMissing(t, e, carol, 2, []uint64{1, 2})
}

// testMissingCapped: upto comes from a peer's dictionary, so a forged
// entry must cost neither memory nor time in proportion to it.
func testMissingCapped(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()
	mustPut(t, e, post(bob, 2, "b2"))
	for _, author := range []id.UserID{bob, carol} {
		got := e.Missing(author, 1<<62)
		if len(got) != store.MaxMissing {
			t.Fatalf("Missing(upto=1<<62) returned %d entries, want %d", len(got), store.MaxMissing)
		}
		if got[0] != 1 || got[len(got)-1] > store.MaxMissing+1 {
			t.Errorf("Missing(upto=1<<62) spans %d..%d, want the lowest sequences", got[0], got[len(got)-1])
		}
	}
	wantMissing(t, e, bob, ^uint64(0), append([]uint64{1}, seqs(3, store.MaxMissing+1)...))
}

// testMissingAfterEviction: an evicted sequence stays accounted for, at
// the bottom of an author's range and in the middle of it.
func testMissingAfterEviction(t *testing.T, w World) {
	e := w.Open(t, store.Options{MaxMessages: 2})
	defer e.Close()
	mustPut(t, e, post(bob, 1, "b1"))
	mustPut(t, e, post(bob, 2, "b2"))
	mustPut(t, e, post(bob, 3, "b3")) // evicts bob#1
	mustPut(t, e, post(bob, 6, "b6")) // evicts bob#2
	if has(e, msg.Ref{Author: bob, Seq: 2}) || e.Len() != 2 {
		t.Fatalf("expected bob#1 and bob#2 evicted, Len = %d", e.Len())
	}
	wantMissing(t, e, bob, 7, []uint64{4, 5, 7})
	mustPut(t, e, post(bob, 4, "b4")) // evicts bob#3
	wantMissing(t, e, bob, 7, []uint64{5, 7})
}

// forgetAfter is the tombstone count at which an engine forgets the
// lower half of an author's tombstones (twice the store package's
// maxTombstonesPerAuthor).
const forgetAfter = 8192

// testMissingForgotten drives one author past the tombstone cap: the
// forgotten refs become missing, and admittable, again.
func testMissingForgotten(t *testing.T, w World) {
	e := w.Open(t, store.Options{MaxMessages: 1, NoSync: true})
	defer e.Close()
	for seq := uint64(1); seq < forgetAfter; seq++ {
		mustPut(t, e, post(bob, seq, "cargo"))
	}
	// forgetAfter-2 tombstones, the newest message held: nothing missing.
	wantMissing(t, e, bob, forgetAfter-1, nil)
	mustPut(t, e, post(bob, forgetAfter, "cargo"))
	mustPut(t, e, post(bob, forgetAfter+1, "cargo")) // tombstone number forgetAfter
	wantMissing(t, e, bob, forgetAfter+2, append(seqs(1, forgetAfter/2), forgetAfter+2))
	mustPut(t, e, post(bob, 2, "back again"))
	wantMissing(t, e, bob, 4, []uint64{1, 3, 4})
	mustPut(t, e, post(bob, 1, "back again")) // evicts bob#2, which stays accounted
	wantMissing(t, e, bob, 4, []uint64{3, 4})
}

// wantAhead checks Ahead against Missing over one entry per author and
// seq: an entry is kept if and only if Missing has something for it, in
// the order given, and filtering in place (dst = entries[:0]) keeps the
// same.
func wantAhead(t *testing.T, e store.Engine, authors []id.UserID, seqs ...uint64) {
	t.Helper()
	var entries, want []wire.Entry
	for _, author := range authors {
		for _, seq := range seqs {
			entry := wire.Entry{Author: author, Seq: seq}
			entries = append(entries, entry)
			if len(e.Missing(author, seq)) > 0 {
				want = append(want, entry)
			}
		}
	}
	if got := e.Ahead(nil, entries); !reflect.DeepEqual(got, want) {
		t.Errorf("Ahead kept %v, Missing says %v", got, want)
	}
	if got := e.Ahead(entries[:0], entries); !reflect.DeepEqual(got, want) {
		t.Errorf("Ahead in place kept %v, Missing says %v", got, want)
	}
}

// testAheadMatchesMissing: the floor pass keeps exactly the entries
// Missing would answer — across holes, tombstones at the bottom and in
// the middle of a range, the floor reset that forgetting tombstones
// causes, and an author the engine never saw.
func testAheadMatchesMissing(t *testing.T, w World) {
	e := w.Open(t, store.Options{MaxMessages: 2, NoSync: true})
	defer e.Close()
	never := id.NewUserID("conformance-never-seen")
	all := []id.UserID{bob, carol, never}
	wantAhead(t, e, all, 0, 1, 2, 3)
	mustPut(t, e, post(bob, 2, "b2")) // a hole at 1
	mustPut(t, e, post(bob, 4, "b4")) // and at 3
	wantAhead(t, e, all, 0, 1, 2, 3, 4, 5, 6)
	mustPut(t, e, post(bob, 1, "b1")) // evicts bob#2: a tombstone closes the bottom
	mustPut(t, e, post(bob, 5, "b5")) // evicts bob#4: a tombstone in the middle
	wantAhead(t, e, all, 0, 1, 2, 3, 4, 5, 6, 7)
	if got := e.Ahead(nil, nil); len(got) != 0 {
		t.Errorf("Ahead of no entries = %v", got)
	}

	// carol#1 and #2 evict bob's two held messages; from carol#3 on each
	// put evicts carol's oldest, so carol#forgetAfter+2 makes tombstone
	// number forgetAfter and resets her floor.
	edges := []uint64{0, 1, 2, forgetAfter / 2, forgetAfter/2 + 1, forgetAfter, forgetAfter + 1, forgetAfter + 2, forgetAfter + 3}
	for seq := uint64(1); seq <= forgetAfter+1; seq++ {
		mustPut(t, e, post(carol, seq, "cargo"))
	}
	wantAhead(t, e, all, edges...)
	if got := e.Ahead(nil, []wire.Entry{{Author: carol, Seq: forgetAfter}}); len(got) != 0 {
		t.Fatalf("before the floor reset Ahead kept %v", got)
	}
	mustPut(t, e, post(carol, forgetAfter+2, "cargo"))
	if got := e.Ahead(nil, []wire.Entry{{Author: carol, Seq: 1}}); len(got) != 1 {
		t.Fatalf("after the floor reset Ahead kept %v of carol#1, want it", got)
	}
	wantAhead(t, e, all, edges...)
}

// testMissingAfterCrash kills the engine with gaps, tombstones and a
// complete prefix on disk, and checks that the reopened engine accounts
// for exactly the same sequences.
func testMissingAfterCrash(t *testing.T, w World) {
	if !w.Persistent() {
		t.Skip("volatile engine")
	}
	e := w.Open(t, store.Options{MaxMessages: 3})
	for _, seq := range []uint64{2, 1, 3, 4, 7} { // 1 and 2 end up evicted
		mustPut(t, e, post(bob, seq, "cargo"))
	}
	mustPut(t, e, post(carol, 2, "c2")) // evicts bob#3
	wantMissing(t, e, bob, 8, []uint64{5, 6, 8})
	// Crash: drop the handle on the floor.

	re := w.Open(t, store.Options{MaxMessages: 3})
	defer re.Close()
	wantMissing(t, re, bob, 8, []uint64{5, 6, 8})
	wantMissing(t, re, carol, 2, []uint64{1})
	mustPut(t, re, post(bob, 5, "late")) // evicts bob#4
	wantMissing(t, re, bob, 8, []uint64{6, 8})
}

// testChanges checks the delta-advertisement contract: Changes(sinceGen)
// returns exactly the summary entries that moved after sinceGen, answers
// ok=false for unanswerable bases, and stays consistent across reloads.
func testChanges(t *testing.T, w World) {
	e := w.Open(t, store.Options{})
	defer e.Close()

	mustPut(t, e, post(bob, 1, "b1"))
	mustPut(t, e, post(carol, 1, "c1"))
	base := e.Generation()

	// Nothing changed yet: the delta since base is empty but answerable.
	delta, ok := e.Changes(base)
	if !ok || len(delta) != 0 {
		t.Fatalf("Changes(%d) = %v, %v; want empty, true", base, delta, ok)
	}

	mustPut(t, e, post(bob, 2, "b2"))
	mustPut(t, e, post(bob, 3, "b3"))
	delta, ok = e.Changes(base)
	if !ok {
		t.Fatalf("Changes(%d) not answerable after puts", base)
	}
	if want := map[id.UserID]uint64{bob: 3}; !reflect.DeepEqual(delta, want) {
		t.Errorf("Changes(%d) = %v, want %v", base, delta, want)
	}

	// A delta from generation zero must match the full summary while the
	// change log covers all history.
	if delta, ok = e.Changes(0); ok {
		if want := e.Summary(); !reflect.DeepEqual(delta, want) {
			t.Errorf("Changes(0) = %v, want full summary %v", delta, want)
		}
	}

	// Bases the engine cannot know about are unanswerable.
	if _, ok := e.Changes(e.Generation() + 1); ok {
		t.Error("Changes(future generation) answered ok")
	}

	if !w.Persistent() {
		return
	}
	gen := e.Generation()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := w.Open(t, store.Options{})
	defer re.Close()
	if got := re.Generation(); got != gen {
		t.Fatalf("reloaded generation = %d, want %d", got, gen)
	}
	delta, ok = re.Changes(base)
	if !ok {
		t.Fatalf("reloaded Changes(%d) not answerable", base)
	}
	if want := map[id.UserID]uint64{bob: 3}; !reflect.DeepEqual(delta, want) {
		t.Errorf("reloaded Changes(%d) = %v, want %v", base, delta, want)
	}
}

// has reports whether the engine holds ref.
func has(e store.Engine, ref msg.Ref) bool {
	_, ok := e.Get(ref)
	return ok
}
