package routing

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/store"
	"sos/internal/wire"
)

var (
	self  = id.NewUserID("self")
	alice = id.NewUserID("alice")
	bob   = id.NewUserID("bob")
	carol = id.NewUserID("carol")
)

func newView(t *testing.T) *store.Store {
	t.Helper()
	return store.New(self)
}

func put(t *testing.T, s *store.Store, author id.UserID, seq uint64) {
	t.Helper()
	m := &msg.Message{Author: author, Seq: seq, Kind: msg.KindPost, Created: time.Unix(1491472800, 0)}
	if _, err := s.Put(m); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func TestManagerBuiltins(t *testing.T) {
	mgr, err := NewManager(newView(t), Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	want := []string{SchemeEpidemic, SchemeInterest, SchemeSprayAndWait, SchemeProphet}
	if got := mgr.Available(); !reflect.DeepEqual(got, want) {
		t.Errorf("Available = %v, want %v", got, want)
	}
	if got := mgr.Current().Name(); got != SchemeEpidemic {
		t.Errorf("default scheme = %s, want epidemic", got)
	}
}

func TestManagerUseAndSwitch(t *testing.T) {
	mgr, err := NewManager(newView(t), Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := mgr.Use(SchemeInterest); err != nil {
		t.Fatalf("Use(interest): %v", err)
	}
	if got := mgr.Current().Name(); got != SchemeInterest {
		t.Errorf("current = %s, want interest", got)
	}
	if err := mgr.Use("no-such-scheme"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestManagerSwitchResetsState(t *testing.T) {
	view := newView(t)
	mgr, err := NewManager(view, Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := mgr.Use(SchemeSprayAndWait); err != nil {
		t.Fatalf("Use: %v", err)
	}
	first := mgr.Current()
	if err := mgr.Use(SchemeSprayAndWait); err != nil {
		t.Fatalf("Use again: %v", err)
	}
	if mgr.Current() == first {
		t.Error("Use did not construct a fresh scheme instance")
	}
}

func TestManagerRegister(t *testing.T) {
	mgr, err := NewManager(newView(t), Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	custom := func(v StoreView, o Options) Scheme { return NewEpidemic(v, o) }
	if err := mgr.Register("custom", custom); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := mgr.Register("custom", custom); err == nil {
		t.Error("duplicate Register accepted")
	}
	if err := mgr.Register("", custom); err == nil {
		t.Error("empty name accepted")
	}
	if err := mgr.Use("custom"); err != nil {
		t.Errorf("Use(custom): %v", err)
	}
}

func TestEpidemicWantsEverythingMissing(t *testing.T) {
	view := newView(t)
	put(t, view, alice, 1) // already have alice#1
	e := NewEpidemic(view, Options{})

	offer := map[id.UserID]uint64{alice: 3, bob: 2}
	for i := range 16 {
		offer[id.NewUserID(fmt.Sprintf("author-%d", i))] = 1
	}
	wants := e.Wants(offer)
	if !slices.IsSortedFunc(wants, func(a, b wire.Want) int { return bytes.Compare(a.Author[:], b.Author[:]) }) {
		t.Errorf("wants are not in author byte order: %v", wants)
	}
	got := wantsByAuthor(wants)
	if !reflect.DeepEqual(got[alice], []uint64{2, 3}) {
		t.Errorf("alice wants = %v, want [2 3]", got[alice])
	}
	if !reflect.DeepEqual(got[bob], []uint64{1, 2}) {
		t.Errorf("bob wants = %v, want [1 2]", got[bob])
	}
}

// TestBuiltinWantsOrder: every built-in, reached through Manager.Use,
// pulls in author byte order with one Want per author, and wants nothing
// from an empty summary.
func TestBuiltinWantsOrder(t *testing.T) {
	view := newView(t)
	offer := map[id.UserID]uint64{alice: 2, bob: 1, carol: 3}
	for i := range 16 {
		offer[id.NewUserID(fmt.Sprintf("author-%d", i))] = 1
	}
	for author := range offer {
		view.Subscribe(author) // interest and PRoPHET pull followed authors
	}
	mgr, err := NewManager(view, Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	for _, name := range mgr.Available() {
		if err := mgr.Use(name); err != nil {
			t.Fatalf("Use(%s): %v", name, err)
		}
		scheme := mgr.Current()
		wants := scheme.Wants(offer)
		if len(wants) != len(offer) {
			t.Errorf("%s: %d wants for %d advertised authors", name, len(wants), len(offer))
		}
		for i := 1; i < len(wants); i++ {
			if bytes.Compare(wants[i-1].Author[:], wants[i].Author[:]) >= 0 {
				t.Errorf("%s: want %d (%s) does not follow want %d (%s) in author byte order", name, i, wants[i].Author, i-1, wants[i-1].Author)
			}
		}
		if got := scheme.Wants(map[id.UserID]uint64{}); got != nil {
			t.Errorf("%s: Wants(empty) = %v, want nil", name, got)
		}
	}
}

func TestEpidemicWantsNothingWhenCurrent(t *testing.T) {
	view := newView(t)
	put(t, view, alice, 1)
	put(t, view, alice, 2)
	e := NewEpidemic(view, Options{})
	if wants := e.Wants(map[id.UserID]uint64{alice: 2}); len(wants) != 0 {
		t.Errorf("wants = %v, want none", wants)
	}
}

func TestInterestWantsOnlySubscribed(t *testing.T) {
	view := newView(t)
	view.Subscribe(alice)
	ib := NewInterest(view, Options{})

	wants := ib.Wants(map[id.UserID]uint64{alice: 2, bob: 5})
	got := wantsByAuthor(wants)
	if !reflect.DeepEqual(got[alice], []uint64{1, 2}) {
		t.Errorf("alice wants = %v, want [1 2]", got[alice])
	}
	if _, asked := got[bob]; asked {
		t.Error("interest scheme requested messages from an unfollowed author")
	}
}

// TestInterestNeverWantsUnsubscribedProperty: for any summary, IB never
// requests an author the node does not follow.
func TestInterestNeverWantsUnsubscribedProperty(t *testing.T) {
	view := newView(t)
	view.Subscribe(alice)
	ib := NewInterest(view, Options{})
	f := func(aliceMax, bobMax, carolMax uint8) bool {
		summary := map[id.UserID]uint64{
			alice: uint64(aliceMax % 16),
			bob:   uint64(bobMax % 16),
			carol: uint64(carolMax % 16),
		}
		for _, w := range ib.Wants(summary) {
			if w.Author != alice {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSprayAndWaitBudgetSplit(t *testing.T) {
	view := newView(t)
	put(t, view, self, 1) // own message
	sw := NewSprayAndWait(view, Options{})

	ref := msg.Ref{Author: self, Seq: 1}
	out := &msg.Message{Author: self, Seq: 1, Kind: msg.KindPost, Created: time.Now()}

	// First relay: give 4, keep 4.
	if !sw.Serve(bob, out) {
		t.Fatal("spray phase refused a copy")
	}
	if out.Budget != 4 {
		t.Errorf("first outgoing budget = %d, want 4", out.Budget)
	}
	if sw.allowance(ref) != 4 {
		t.Errorf("local allowance = %d, want 4", sw.allowance(ref))
	}
	// Second relay: give 2, keep 2. Third: give 1, keep 1.
	if !sw.Serve(carol, out) {
		t.Fatal("spray phase refused a copy")
	}
	if out.Budget != 2 {
		t.Errorf("second outgoing budget = %d, want 2", out.Budget)
	}
	if !sw.Serve(alice, out) {
		t.Fatal("spray phase refused a copy")
	}
	if out.Budget != 1 {
		t.Errorf("third outgoing budget = %d, want 1", out.Budget)
	}
	if sw.allowance(ref) != 1 {
		t.Errorf("final allowance = %d, want 1 (wait phase)", sw.allowance(ref))
	}
}

func TestSprayAndWaitWaitPhaseServesOnlyDestinations(t *testing.T) {
	view := newView(t)
	put(t, view, alice, 1)
	sw := NewSprayAndWait(view, Options{})

	// Relayed message arrives with an exhausted budget.
	relayed := &msg.Message{Author: alice, Seq: 1, Kind: msg.KindPost, Created: time.Now(), Budget: 1}
	sw.OnReceived(relayed, bob)

	out := relayed.Clone()

	// carol is not a known subscriber of alice: refuse.
	if sw.Serve(carol, out) {
		t.Errorf("wait-phase served non-destination: budget %d", out.Budget)
	}

	// carol gossips that she follows alice: now she is a destination.
	blob, err := encodeGossip(gossip{Subs: []id.UserID{alice}})
	if err != nil {
		t.Fatalf("encodeGossip: %v", err)
	}
	sw.OnPeerData(carol, blob)
	if !sw.Serve(carol, out) {
		t.Error("wait-phase refused a destination")
	}
	if out.Budget != 1 {
		t.Errorf("destination copy budget = %d, want 1", out.Budget)
	}
}

func TestSprayAndWaitDefaultBudget(t *testing.T) {
	view := newView(t)
	sw := NewSprayAndWait(view, Options{})
	put(t, view, self, 1)
	if got := sw.allowance(msg.Ref{Author: self, Seq: 1}); got != DefaultSprayBudget {
		t.Errorf("own allowance = %d, want %d", got, DefaultSprayBudget)
	}
	// Unknown relayed ref defaults to wait phase.
	if got := sw.allowance(msg.Ref{Author: bob, Seq: 9}); got != 1 {
		t.Errorf("foreign allowance = %d, want 1", got)
	}
}

// TestSprayAllowanceNeverExceedsInitialProperty: no sequence of splits can
// mint allowance above the initial budget.
func TestSprayAllowanceNeverExceedsInitialProperty(t *testing.T) {
	f := func(splits uint8) bool {
		view := store.New(self)
		m := &msg.Message{Author: self, Seq: 1, Kind: msg.KindPost, Created: time.Now()}
		if _, err := view.Put(m); err != nil {
			return false
		}
		sw := NewSprayAndWait(view, Options{})
		total := func() uint16 { return sw.allowance(msg.Ref{Author: self, Seq: 1}) }
		given := uint16(0)
		for i := 0; i < int(splits%24); i++ {
			out := m.Clone()
			if sw.Serve(bob, out) {
				given += out.Budget
			}
		}
		// Kept allowance never hits zero, and a non-destination is refused
		// in the wait phase, so kept + given is exactly the initial budget.
		return total() >= 1 && total()+given == DefaultSprayBudget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSprayAndWaitEvictionReleasesBudget: the storage engine dropping a
// message must free its copy allowance, and a later reappearance of the
// same ref starts from the carried budget again, not a stale entry.
func TestSprayAndWaitEvictionReleasesBudget(t *testing.T) {
	view := newView(t)
	put(t, view, self, 1)
	sw := NewSprayAndWait(view, Options{})
	ref := msg.Ref{Author: self, Seq: 1}
	out := &msg.Message{Author: self, Seq: 1, Kind: msg.KindPost, Created: time.Now()}
	sw.Serve(bob, out) // allowance now 4
	if sw.allowance(ref) != 4 {
		t.Fatalf("allowance = %d, want 4", sw.allowance(ref))
	}
	sw.OnEvicted(ref)
	if _, held := sw.budget[ref]; held {
		t.Error("eviction left a stale budget entry")
	}
	// Own refs restart at the initial budget on next touch.
	if got := sw.allowance(ref); got != 8 {
		t.Errorf("allowance after eviction = %d, want initial 8", got)
	}
}

// TestManagerForwardsEvictions: the manager routes storage-engine drops
// to whichever scheme is active at that moment.
func TestManagerForwardsEvictions(t *testing.T) {
	view := newView(t)
	mgr, err := NewManager(view, Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := mgr.Use(SchemeSprayAndWait); err != nil {
		t.Fatalf("Use: %v", err)
	}
	put(t, view, self, 1)
	sw := mgr.Current().(*SprayAndWait)
	ref := msg.Ref{Author: self, Seq: 1}
	if got := sw.allowance(ref); got != DefaultSprayBudget {
		t.Fatalf("allowance = %d, want %d", got, DefaultSprayBudget)
	}
	mgr.OnEvicted(ref)
	if _, held := sw.budget[ref]; held {
		t.Error("manager did not forward the eviction to the active scheme")
	}
}

// predictability ages p's model and reads its value toward user.
func predictability(p *Prophet, user id.UserID) float64 {
	p.age()
	return p.preds[user]
}

func TestProphetEncounterAndAging(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC))
	view := newView(t)
	p := NewProphet(view, Options{Clock: clk})

	if got := predictability(p, bob); got != 0 {
		t.Errorf("initial predictability = %f, want 0", got)
	}
	p.OnPeerConnected(bob)
	first := predictability(p, bob)
	if first != prophetEncounter {
		t.Errorf("after one encounter = %f, want %f", first, prophetEncounter)
	}
	p.OnPeerConnected(bob)
	second := predictability(p, bob)
	if second <= first || second > 1 {
		t.Errorf("after two encounters = %f, want (%f, 1]", second, first)
	}

	// A day of silence decays the predictability substantially.
	clk.Advance(24 * time.Hour)
	aged := predictability(p, bob)
	if aged >= second/2 {
		t.Errorf("aged predictability = %f, want well below %f", aged, second)
	}
}

func TestProphetTransitivity(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC))
	view := newView(t)
	p := NewProphet(view, Options{Clock: clk})

	p.OnPeerConnected(bob)
	// Bob gossips a strong predictability toward carol.
	blob, err := encodeGossip(gossip{Preds: map[id.UserID]float64{carol: 0.9}})
	if err != nil {
		t.Fatalf("encodeGossip: %v", err)
	}
	p.OnPeerData(bob, blob)

	want := predictability(p, bob) * 0.9 * prophetBeta
	if got := predictability(p, carol); got < want*0.99 || got > want*1.01 {
		t.Errorf("transitive predictability = %f, want ≈ %f", got, want)
	}
}

func TestProphetWants(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC))
	view := newView(t)
	view.Subscribe(alice)
	p := NewProphet(view, Options{Clock: clk})

	// Subscribed author: always wanted.
	wants := p.Wants(map[id.UserID]uint64{alice: 1, bob: 1})
	got := wantsByAuthor(wants)
	if _, ok := got[alice]; !ok {
		t.Error("prophet skipped a subscribed author")
	}
	if _, ok := got[bob]; ok {
		t.Error("prophet pulled an author with no known subscribers")
	}

	// carol follows bob (learned via gossip), and we meet carol often →
	// we become a promising custodian for bob's messages.
	blob, err := encodeGossip(gossip{Subs: []id.UserID{bob}})
	if err != nil {
		t.Fatalf("encodeGossip: %v", err)
	}
	p.OnPeerData(carol, blob)
	p.OnPeerConnected(carol)

	wants = p.Wants(map[id.UserID]uint64{bob: 2})
	got = wantsByAuthor(wants)
	if !reflect.DeepEqual(got[bob], []uint64{1, 2}) {
		t.Errorf("custodian wants = %v, want [1 2]", got[bob])
	}
}

func TestProphetLearnsFromFollowMessages(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC))
	view := newView(t)
	p := NewProphet(view, Options{Clock: clk})

	follow := &msg.Message{Author: carol, Seq: 1, Kind: msg.KindFollow, Subject: bob, Created: clk.Now()}
	p.OnReceived(follow, carol)
	p.OnPeerConnected(carol)

	wants := p.Wants(map[id.UserID]uint64{bob: 1})
	if len(wants) != 1 {
		t.Fatalf("wants = %v, want bob's message", wants)
	}

	unfollow := &msg.Message{Author: carol, Seq: 2, Kind: msg.KindUnfollow, Subject: bob, Created: clk.Now()}
	p.OnReceived(unfollow, carol)
	if wants := p.Wants(map[id.UserID]uint64{bob: 1}); len(wants) != 0 {
		t.Errorf("wants after unfollow = %v, want none", wants)
	}
}

func TestGossipRoundTrip(t *testing.T) {
	give := gossip{
		Subs:  []id.UserID{alice, bob},
		Preds: map[id.UserID]float64{carol: 0.5, bob: 0.25},
	}
	blob, err := encodeGossip(give)
	if err != nil {
		t.Fatalf("encodeGossip: %v", err)
	}
	got, err := decodeGossip(blob)
	if err != nil {
		t.Fatalf("decodeGossip: %v", err)
	}
	if len(got.Subs) != 2 || len(got.Preds) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Preds[carol] != 0.5 || got.Preds[bob] != 0.25 {
		t.Errorf("preds = %v", got.Preds)
	}
}

func TestGossipDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{gossipMagic},
		{gossipMagic, 0xff, 0xff},
		append([]byte{gossipMagic, 0, 1}, make([]byte, 5)...),
	}
	for _, give := range cases {
		if _, err := decodeGossip(give); err == nil {
			t.Errorf("decodeGossip(% x) accepted garbage", give)
		}
	}
}

// TestGossipNeverPanicsProperty fuzzes the decoder.
func TestGossipNeverPanicsProperty(t *testing.T) {
	f := func(buf []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = decodeGossip(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func wantsByAuthor(wants []wire.Want) map[id.UserID][]uint64 {
	out := make(map[id.UserID][]uint64, len(wants))
	for _, w := range wants {
		out[w.Author] = w.Seqs
	}
	return out
}
