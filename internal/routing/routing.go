// Package routing implements the SOS routing manager (paper §III-B): a
// modular registry of opportunistic routing schemes that can be switched
// at runtime without touching any other layer. Two schemes ship exactly as
// the paper describes — epidemic routing (Vahdat & Becker) and
// interest-based (IB) routing — plus two classic baselines, binary
// spray-and-wait and PRoPHET, to demonstrate the modularity the paper
// claims and to serve as comparison points in the benchmarks.
//
// SOS message exchange is receiver-driven: a node sees a peer's summary
// dictionary (UserID → latest MessageNumber) and decides what to request.
// A scheme therefore expresses its forwarding policy in two decisions:
// Wants (what do I pull from a peer?) and Serve (do I hand this held
// message to the peer that asked, and with what routing metadata?).
// Schemes that need side information — spray budgets, delivery
// predictabilities, subscription gossip — piggyback it on advertisements
// through SchemeData/OnPeerData. The hooks a scheme does not need come
// from one embedded default (noHooks).
package routing

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/wire"
)

// Built-in scheme names.
const (
	SchemeEpidemic     = "epidemic"
	SchemeInterest     = "interest"
	SchemeSprayAndWait = "spray-and-wait"
	SchemeProphet      = "prophet"
)

// Errors reported by the routing manager.
var (
	ErrUnknownScheme = errors.New("routing: unknown scheme")
	ErrDupScheme     = errors.New("routing: scheme already registered")
)

// StoreView is the read-only surface schemes use to consult the local
// database; every store.Engine satisfies it. Age-based buffer policy
// lives in the storage engine (store.Policy), not here.
type StoreView interface {
	Owner() id.UserID
	Missing(author id.UserID, upto uint64) []uint64
	IsSubscribed(author id.UserID) bool
	Subscriptions() []id.UserID
}

// Scheme is one opportunistic routing protocol: two decisions, Wants and
// Serve, plus the observations and gossip a policy may need. The message
// manager calls the exchange hooks from a single logical thread per node
// — but OnEvicted (and SchemeData, via Advertise) can fire from whichever
// goroutine mutated the store, e.g. the application's publish path, so
// schemes with mutable per-message state need internal locking around it
// (see SprayAndWait).
type Scheme interface {
	// Name returns the registry name.
	Name() string
	// Wants inspects a peer's summary and returns the messages to request,
	// in slices the caller owns. The message manager hands it only entries
	// past the store's floor (store.Engine.Ahead), which Missing answers.
	Wants(summary map[id.UserID]uint64) []wire.Want
	// Serve decides whether to hand one held message to the peer that
	// requested it and, if so, stamps this transfer's routing metadata
	// (e.g. spray budget) on m, an outgoing struct copy whose byte fields
	// are read-only.
	Serve(peer id.UserID, m *msg.Message) bool
	// OnReceived observes a newly stored message obtained from peer.
	OnReceived(m *msg.Message, from id.UserID)
	// OnEvicted observes the storage engine dropping a held message
	// (quota eviction or TTL expiry), so schemes release any per-message
	// state — spray budgets, custody notes — instead of leaking it.
	OnEvicted(ref msg.Ref)
	// OnPeerConnected observes an authenticated encounter starting.
	OnPeerConnected(peer id.UserID)
	// SchemeData returns the gossip blob to piggyback on advertisements
	// and summary exchanges; nil when the scheme needs none.
	SchemeData() []byte
	// OnPeerData ingests a peer's gossip blob.
	OnPeerData(peer id.UserID, data []byte)
}

// Options tunes scheme construction.
type Options struct {
	// Clock drives PRoPHET predictability aging. Nil selects wall time.
	// (How long a node carries other users' messages is the store's
	// eviction policy, not a scheme's: see store.PolicyByName.)
	Clock clock.Clock
}

// DefaultSprayBudget is the initial number of copies spray-and-wait may
// distribute per message.
const DefaultSprayBudget = 8

// Factory builds a scheme over a store view.
type Factory func(view StoreView, opts Options) Scheme

// Manager is the routing manager: a scheme registry plus the active
// scheme. Switching is atomic with respect to scheme hook invocation.
type Manager struct {
	view StoreView
	opts Options

	mu        sync.Mutex
	factories map[string]Factory
	order     []string
	current   Scheme
}

// NewManager builds a manager with all built-in schemes registered and
// epidemic routing active.
func NewManager(view StoreView, opts Options) (*Manager, error) {
	if view == nil {
		return nil, errors.New("routing: nil store view")
	}
	if opts.Clock == nil {
		opts.Clock = clock.System()
	}
	m := &Manager{view: view, opts: opts, factories: make(map[string]Factory)}
	builtins := []struct {
		name    string
		factory Factory
	}{
		{SchemeEpidemic, func(v StoreView, o Options) Scheme { return NewEpidemic(v, o) }},
		{SchemeInterest, func(v StoreView, o Options) Scheme { return NewInterest(v, o) }},
		{SchemeSprayAndWait, func(v StoreView, o Options) Scheme { return NewSprayAndWait(v, o) }},
		{SchemeProphet, func(v StoreView, o Options) Scheme { return NewProphet(v, o) }},
	}
	for _, b := range builtins {
		if err := m.Register(b.name, b.factory); err != nil {
			return nil, err
		}
	}
	if err := m.Use(SchemeEpidemic); err != nil {
		return nil, err
	}
	return m, nil
}

// Register adds a scheme factory under a unique name. Researchers add
// protocols here without touching any other layer — the modularity the
// paper's routing manager exists to provide.
func (m *Manager) Register(name string, factory Factory) error {
	if name == "" || factory == nil {
		return errors.New("routing: empty name or nil factory")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.factories[name]; dup {
		return fmt.Errorf("%w: %s", ErrDupScheme, name)
	}
	m.factories[name] = factory
	m.order = append(m.order, name)
	return nil
}

// Use activates the named scheme, constructing a fresh instance. Any
// state held by the previous scheme (spray budgets, predictabilities) is
// discarded, mirroring an app-level protocol toggle.
func (m *Manager) Use(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	factory, ok := m.factories[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownScheme, name)
	}
	m.current = factory(m.view, m.opts)
	return nil
}

// Available lists registered scheme names in registration order.
func (m *Manager) Available() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Current returns the active scheme.
func (m *Manager) Current() Scheme {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// OnEvicted forwards a storage-engine drop to the active scheme. The
// core layer registers it as the store's eviction hook, which is how the
// routing layer observes buffer management it no longer performs itself.
func (m *Manager) OnEvicted(ref msg.Ref) {
	m.Current().OnEvicted(ref)
}

// wantsOf is the pull walk the built-ins share: one Want per advertised
// author that pull admits (every author when pull is nil), holding the
// sequences view lacks, in author byte order. Missing already excludes
// evicted refs, so a bounded buffer never re-fetches what it dropped.
func wantsOf(view StoreView, summary map[id.UserID]uint64, pull func(id.UserID) bool) []wire.Want {
	var wants []wire.Want
	for author, latest := range summary {
		if pull != nil && !pull(author) {
			continue
		}
		if missing := view.Missing(author, latest); len(missing) > 0 {
			wants = append(wants, wire.Want{Author: author, Seqs: missing})
		}
	}
	slices.SortFunc(wants, func(a, b wire.Want) int { return bytes.Compare(a.Author[:], b.Author[:]) })
	return wants
}

// noHooks is the default for every hook but Name and Wants: serve all
// that is asked, observe nothing, gossip nothing. Schemes embed it and
// override only the hooks their policy uses.
type noHooks struct{}

func (noHooks) Serve(id.UserID, *msg.Message) bool { return true }
func (noHooks) OnReceived(*msg.Message, id.UserID) {}
func (noHooks) OnEvicted(msg.Ref)                  {}
func (noHooks) OnPeerConnected(id.UserID)          {}
func (noHooks) SchemeData() []byte                 { return nil }
func (noHooks) OnPeerData(id.UserID, []byte)       {}
