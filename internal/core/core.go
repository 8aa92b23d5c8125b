// Package core assembles the SOS middleware (paper Fig. 1): it wires the
// routing manager, message manager, and ad hoc manager into a single
// per-application instance. As the paper emphasizes, SOS runs inside each
// mobile application rather than as a system daemon — no jailbreak, App
// Store compliant — so Middleware is constructed with the application's
// own credentials and medium attachment, and its lifetime is the
// application's lifetime.
package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/obs/span"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/secure"
	"sos/internal/store"
)

// Observer receives middleware lifecycle events — the telemetry hook the
// in-vivo lab attaches so a live deployment emits the same records the
// simulator's collector computes in silico. Callbacks fire synchronously
// on middleware goroutines; implementations must be fast, non-blocking,
// and must not call back into the middleware. Messages handed to an
// observer are shared snapshots and must not be mutated.
type Observer interface {
	// MessageCreated fires once per locally authored message, after it is
	// signed and stored.
	MessageCreated(m *msg.Message)
	// MessageReceived fires once per newly stored remote message — one
	// user-to-user dissemination. delivered reports whether this node
	// subscribes to the author (the paper's delivery event).
	MessageReceived(m *msg.Message, from id.UserID, delivered bool)
	// MessageEvicted fires once per message dropped by the storage
	// engine (quota or TTL).
	MessageEvicted(ev store.Eviction)
	// ContactUp / ContactDown observe authenticated encounters.
	ContactUp(user id.UserID)
	ContactDown(user id.UserID)
}

// CombineObservers fans events out to every non-nil observer in order.
// It returns nil when none remain, so the result can be assigned to
// Config.Observer directly.
func CombineObservers(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

func (m multiObserver) MessageCreated(mm *msg.Message) {
	for _, o := range m {
		o.MessageCreated(mm)
	}
}

func (m multiObserver) MessageReceived(mm *msg.Message, from id.UserID, delivered bool) {
	for _, o := range m {
		o.MessageReceived(mm, from, delivered)
	}
}

func (m multiObserver) MessageEvicted(ev store.Eviction) {
	for _, o := range m {
		o.MessageEvicted(ev)
	}
}

func (m multiObserver) ContactUp(user id.UserID) {
	for _, o := range m {
		o.ContactUp(user)
	}
}

func (m multiObserver) ContactDown(user id.UserID) {
	for _, o := range m {
		o.ContactDown(user)
	}
}

// DefaultResyncInterval is the heartbeat period a zero ResyncInterval selects.
const DefaultResyncInterval = 3 * time.Second

// Config assembles a middleware instance.
type Config struct {
	// Creds are the device credentials from the one-time infrastructure
	// bootstrap (cloud.Bootstrap).
	Creds *cloud.Credentials
	// Medium is the device-to-device substrate to attach to.
	Medium mpc.Medium
	// PeerName is the device's discovery display name; defaults to the
	// credential handle plus "-device".
	PeerName mpc.PeerID
	// Scheme selects the initial routing protocol; empty selects epidemic.
	Scheme string
	// Clock drives timestamps and certificate checks; nil selects wall time.
	Clock clock.Clock
	// Rand supplies handshake nonces; nil selects crypto/rand.
	Rand io.Reader
	// Store selects the storage engine, whose eviction policy carries any
	// relay TTL (store.PolicyByName). Nil builds an unbounded in-memory
	// engine that drops oldest first; daemons pass a disk engine
	// (store.OpenDisk) so the local database survives restarts. The
	// engine's owner must match the credentials, and the middleware
	// takes ownership: Close closes it.
	Store store.Engine

	// OnReceive fires once per newly stored message; read-only.
	OnReceive func(m *msg.Message, from id.UserID)
	// Observer, when set, receives every lifecycle event: creations,
	// receipts with the delivery verdict, evictions, contacts up and down.
	// Combine several with CombineObservers.
	Observer Observer

	// ResyncInterval is the period of the node's one ticker, which calls
	// message.Manager.Tick: re-advertise, re-plan, expire wedged
	// handshakes, re-dial. 0 selects DefaultResyncInterval; negative
	// starts no ticker, so nothing is retried (the simulator's setting).
	// The lab shortens it to its fast radio timescale.
	ResyncInterval time.Duration

	// Tracer, when set, records contact-lifecycle spans (handshakes,
	// advertisements, full-sync chunk streams) into a bounded ring the
	// debug server dumps as Chrome trace_event JSON. Nil disables
	// tracing at zero cost.
	Tracer *span.Tracer

	// Security tunes the secure layer: session key rotation and the
	// persistent replay store. The zero value selects secure-layer
	// defaults with the seen-nonce set in memory only.
	Security SecurityConfig
}

// SecurityConfig is the node-level secure-layer tuning.
type SecurityConfig struct {
	// Dir, when set, persists the nonces of opened envelopes under this
	// directory (a record log, internal/recordlog, like the disk
	// engine's), so an envelope opened before a restart is still refused
	// after it. Empty keeps the seen nonces in memory only. Sessions need
	// no directory: their replay state is per link and in memory.
	Dir string
}

// Stats aggregates the counters of every layer.
type Stats struct {
	Adhoc   adhoc.Stats
	Message message.Stats
	Store   store.Stats
	PKI     pki.Stats
}

// Middleware is one application's SOS instance.
type Middleware struct {
	cfg      Config
	store    store.Engine
	verifier *pki.Verifier
	routing  *routing.Manager
	msgMgr   *message.Manager
	adhocMgr *adhoc.Manager

	secRec *secure.StatsRecorder
	// e2e is the end-to-end plane behind Direct and OpenDirect: this
	// node's prekeys, what its peers published, the seen-nonce set.
	e2e *secure.EndToEnd
	// stopTicks stops the heartbeat driver and waits for it; nil if none.
	stopTicks func()
}

// New wires up a middleware instance and begins advertising.
func New(cfg Config) (*Middleware, error) {
	if cfg.Creds == nil || cfg.Medium == nil {
		return nil, errors.New("core: config requires Creds and Medium")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.PeerName == "" {
		cfg.PeerName = mpc.PeerID(cfg.Creds.Handle + "-device")
	}

	st := cfg.Store
	if st == nil {
		st = store.NewMemory(cfg.Creds.Ident.User, store.Options{Clock: cfg.Clock})
	} else if st.Owner() != cfg.Creds.Ident.User {
		return nil, fmt.Errorf("core: store owner %s does not match credentials user %s",
			st.Owner(), cfg.Creds.Ident.User)
	}
	verifier, err := pki.NewVerifier(cfg.Creds.RootDER, cfg.Clock.Now)
	if err != nil {
		return nil, fmt.Errorf("core: building verifier: %w", err)
	}
	routingMgr, err := routing.NewManager(st, routing.Options{Clock: cfg.Clock})
	if err != nil {
		return nil, fmt.Errorf("core: building routing manager: %w", err)
	}
	// Schemes observe every buffer drop, so per-message routing state
	// (spray budgets) is released with the message; the observer sees the
	// drop too (telemetry).
	obs := cfg.Observer
	st.OnEvict(func(ev store.Eviction) {
		routingMgr.OnEvicted(ev.Ref)
		if obs != nil {
			obs.MessageEvicted(ev)
		}
	})
	if cfg.Scheme != "" {
		if err := routingMgr.Use(cfg.Scheme); err != nil {
			return nil, fmt.Errorf("core: selecting scheme: %w", err)
		}
	}
	// The observer rides the message-manager callbacks: a receipt is one
	// dissemination, and a receipt by a subscriber of the author is one
	// delivery — the exact events the evaluation counts, decided here and
	// nowhere else.
	onReceive := cfg.OnReceive
	var onPeerUp, onPeerDown func(id.UserID)
	if obs != nil {
		onReceive = func(m *msg.Message, from id.UserID) {
			obs.MessageReceived(m, from, st.IsSubscribed(m.Author))
			if cfg.OnReceive != nil {
				cfg.OnReceive(m, from)
			}
		}
		onPeerUp, onPeerDown = obs.ContactUp, obs.ContactDown
	}
	// The node's secure-layer state: a scoped stats recorder (parallel
	// fleets in one process stop cross-contaminating counters) and the
	// end-to-end plane.
	secRec := &secure.StatsRecorder{}
	e2e, err := secure.NewEndToEnd(cfg.Creds.Ident,
		secure.PrekeyConfig{Clock: cfg.Clock, Rand: cfg.Rand, Stats: secRec},
		cfg.Security.Dir, secure.ReplayOptions{Stats: secRec})
	if err != nil {
		return nil, fmt.Errorf("core: building end-to-end plane: %w", err)
	}

	mw := &Middleware{
		cfg:      cfg,
		store:    st,
		verifier: verifier,
		routing:  routingMgr,
		secRec:   secRec,
		e2e:      e2e,
	}

	msgMgr, err := message.New(message.Config{
		Store:          st,
		Routing:        routingMgr,
		Verifier:       verifier,
		Clock:          cfg.Clock,
		OnReceive:      onReceive,
		OnPeerUp:       onPeerUp,
		OnPeerDown:     onPeerDown,
		AutoConnect:    true,
		Tracer:         cfg.Tracer,
		PrekeySource:   e2e.Bundle,
		OnPrekeyBundle: e2e.Accept,
	})
	if err != nil {
		e2e.Close()
		return nil, fmt.Errorf("core: building message manager: %w", err)
	}
	adhocMgr, err := adhoc.New(adhoc.Config{
		Medium:      cfg.Medium,
		PeerName:    cfg.PeerName,
		Ident:       cfg.Creds.Ident,
		CertDER:     cfg.Creds.Cert.DER,
		Verifier:    verifier,
		Handler:     msgMgr,
		Clock:       cfg.Clock,
		Rand:        cfg.Rand,
		Tracer:      cfg.Tracer,
		SecureStats: secRec,
	})
	if err != nil {
		e2e.Close()
		return nil, fmt.Errorf("core: building ad hoc manager: %w", err)
	}
	mw.msgMgr, mw.adhocMgr = msgMgr, adhocMgr
	if err := msgMgr.Advertise(); err != nil {
		msgMgr.Close()
		adhocMgr.Close()
		e2e.Close()
		return nil, fmt.Errorf("core: initial advertisement: %w", err)
	}
	if cfg.ResyncInterval >= 0 {
		// The resync heartbeat: msgMgr.Tick at every beat, each on a
		// goroutine of its own, so a dial that blocks delays only the
		// dials after it in its tick.
		ticker := time.NewTicker(cmp.Or(cfg.ResyncInterval, DefaultResyncInterval))
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		mw.stopTicks = func() { cancel(); <-done }
		go func() {
			defer close(done)
			for {
				select {
				case <-ticker.C:
					go msgMgr.Tick()
				case <-ctx.Done():
					ticker.Stop()
					return
				}
			}
		}()
	}
	return mw, nil
}

// User returns the local user identifier.
func (mw *Middleware) User() id.UserID { return mw.cfg.Creds.Ident.User }

// Peer returns the device's discovery name.
func (mw *Middleware) Peer() mpc.PeerID { return mw.adhocMgr.Self() }

// Store exposes the local database engine (feeds, summaries,
// subscriptions, buffer statistics).
func (mw *Middleware) Store() store.Engine { return mw.store }

// Verifier exposes the device's certificate verifier, e.g. for CRL syncs.
func (mw *Middleware) Verifier() *pki.Verifier { return mw.verifier }

// Post publishes a public post to subscribers.
func (mw *Middleware) Post(payload []byte) (*msg.Message, error) {
	return mw.publish(msg.KindPost, id.UserID{}, payload)
}

// Follow subscribes to a user and disseminates the follow action.
func (mw *Middleware) Follow(user id.UserID) (*msg.Message, error) {
	mw.store.Subscribe(user)
	return mw.publish(msg.KindFollow, user, nil)
}

// Unfollow unsubscribes and disseminates the unfollow action.
func (mw *Middleware) Unfollow(user id.UserID) (*msg.Message, error) {
	mw.store.Unsubscribe(user)
	return mw.publish(msg.KindUnfollow, user, nil)
}

// Subscribe records interest without publishing an action message (used
// for pre-seeded social graphs in experiments; interactive apps call
// Follow).
func (mw *Middleware) Subscribe(user id.UserID) {
	mw.store.Subscribe(user)
}

// Direct seals payload end-to-end for the recipient and disseminates the
// envelope. Forwarders can route it but never read it; only the recipient
// with cert recipCert can open it. The end-to-end plane picks the key
// material (secure.EndToEnd.Seal): the recipient's published prekey bundle
// when one is held, its certified long-term key when it was never met.
func (mw *Middleware) Direct(recipCert *pki.UserCert, payload []byte) (*msg.Message, error) {
	sealed, err := mw.e2e.Seal(recipCert.User, recipCert.Key, payload)
	if err != nil {
		return nil, fmt.Errorf("core: sealing direct message to %s: %w", recipCert.User, err)
	}
	return mw.publish(msg.KindDirect, recipCert.User, sealed)
}

// OpenDirect opens a received direct message addressed to this user: the
// author's certificate is verified, then the envelope is opened against
// the author's certified public key — at most once, even across a restart
// when Security.Dir is set (as sosd does beside a disk store).
func (mw *Middleware) OpenDirect(m *msg.Message) ([]byte, error) {
	if m.Kind != msg.KindDirect {
		return nil, fmt.Errorf("core: %s is not a direct message", m.Ref())
	}
	if m.Subject != mw.User() {
		return nil, fmt.Errorf("core: direct message %s is addressed to %s", m.Ref(), m.Subject)
	}
	cert, err := mw.verifier.VerifyFor(m.CertDER, m.Author)
	if err != nil {
		return nil, fmt.Errorf("core: verifying author certificate: %w", err)
	}
	plain, err := mw.e2e.Open(cert.Key, m.Payload)
	if err != nil {
		return nil, fmt.Errorf("core: opening direct message %s: %w", m.Ref(), err)
	}
	return plain, nil
}

// SecureStats snapshots this node's secure-layer counters: its sessions,
// replay store and prekey store, and nothing else in the process.
func (mw *Middleware) SecureStats() secure.Stats { return mw.secRec.Read() }

// PrekeysRemaining reports the unissued one-time prekey pool depth.
func (mw *Middleware) PrekeysRemaining() int { return mw.e2e.PrekeysRemaining() }

// ReplayState reports how many seen envelope nonces the node holds;
// right after New, what a persistent replay store resumed.
func (mw *Middleware) ReplayState() int { return mw.e2e.SeenNonces() }

// publish signs, stores, and advertises a new action message. The store
// keeps m, so the payload is copied away from the caller.
func (mw *Middleware) publish(kind msg.Kind, subject id.UserID, payload []byte) (*msg.Message, error) {
	m := &msg.Message{
		Author:  mw.User(),
		Seq:     mw.store.NextSeq(),
		Kind:    kind,
		Created: mw.cfg.Clock.Now(),
		Subject: subject,
		Payload: bytes.Clone(payload),
		CertDER: mw.cfg.Creds.Cert.DER,
	}
	if err := m.Sign(mw.cfg.Creds.Ident); err != nil {
		return nil, fmt.Errorf("core: signing action: %w", err)
	}
	if _, err := mw.store.Put(m); err != nil {
		return nil, fmt.Errorf("core: storing action: %w", err)
	}
	if mw.cfg.Observer != nil {
		mw.cfg.Observer.MessageCreated(m)
	}
	if err := mw.msgMgr.Advertise(); err != nil {
		return nil, fmt.Errorf("core: advertising action: %w", err)
	}
	return m, nil
}

// SetScheme switches the active routing protocol at runtime (the paper's
// demo lets users toggle schemes inside the application) and pushes a
// summary on every link so linked peers see the new scheme's gossip; the
// discovery hint carries none.
func (mw *Middleware) SetScheme(name string) error {
	if err := mw.routing.Use(name); err != nil {
		return err
	}
	return mw.msgMgr.Advertise()
}

// Scheme returns the active routing protocol name.
func (mw *Middleware) Scheme() string { return mw.routing.Current().Name() }

// Schemes lists the registered routing protocols.
func (mw *Middleware) Schemes() []string { return mw.routing.Available() }

// RegisterScheme adds a custom routing protocol to this instance.
func (mw *Middleware) RegisterScheme(name string, factory routing.Factory) error {
	return mw.routing.Register(name, factory)
}

// SyncWithCloud performs the online maintenance the paper reserves for
// moments of connectivity: push locally stored actions authored by this
// user, and pull the latest revocation list.
func (mw *Middleware) SyncWithCloud(svc *cloud.Service) error {
	own := mw.store.MessagesFrom(mw.User(), 0)
	actions := make([][]byte, 0, len(own))
	for _, m := range own {
		enc, err := m.Encode()
		if err != nil {
			return fmt.Errorf("core: encoding action for sync: %w", err)
		}
		actions = append(actions, enc)
	}
	if err := svc.SyncActions(mw.User(), actions); err != nil {
		return fmt.Errorf("core: pushing actions: %w", err)
	}
	crl, err := svc.SyncCRL()
	if err != nil {
		return fmt.Errorf("core: pulling CRL: %w", err)
	}
	mw.verifier.UpdateCRL(crl)
	return nil
}

// Stats snapshots all layer counters.
func (mw *Middleware) Stats() Stats {
	return Stats{
		Adhoc:   mw.adhocMgr.Stats(),
		Message: mw.msgMgr.Stats(),
		Store:   mw.store.Stats(),
		PKI:     mw.verifier.Stats(),
	}
}

// ActiveLinks returns the users currently linked to this node.
func (mw *Middleware) ActiveLinks() []id.UserID { return mw.msgMgr.ActiveLinks() }

// SyncState reports the size of the contact-sync plane: peers in range
// or linked, currently active links, and total inbound summary entries
// held.
func (mw *Middleware) SyncState() (peers, links, summaryEntries int) {
	return mw.msgMgr.SyncState()
}

// Advertise refreshes the discovery hint when the store moved and a
// device in range can act on it, and pushes in-session summaries (with
// the scheme gossip) to linked peers.
func (mw *Middleware) Advertise() error { return mw.msgMgr.Advertise() }

// Close shuts the middleware down, detaches from the medium, and flushes
// and closes the storage engine (crash-safe persistence for daemons).
func (mw *Middleware) Close() error {
	if mw.stopTicks != nil {
		mw.stopTicks()
	}
	mw.msgMgr.Close()
	return errors.Join(mw.adhocMgr.Close(), mw.store.Close(), mw.e2e.Close())
}
