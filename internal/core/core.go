// Package core assembles the SOS middleware (paper Fig. 1): it wires the
// routing manager, message manager, and ad hoc manager into a single
// per-application instance. As the paper emphasizes, SOS runs inside each
// mobile application rather than as a system daemon — no jailbreak, App
// Store compliant — so Middleware is constructed with the application's
// own credentials and medium attachment, and its lifetime is the
// application's lifetime.
package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
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
	"sos/internal/wire"
)

// Errors reported by the middleware facade.
var (
	ErrNoCert = errors.New("core: message author certificate unavailable")
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
	// Routing tunes scheme construction.
	Routing routing.Options
	// Store selects the storage engine. Nil builds an in-memory engine
	// whose eviction policy honours Routing.RelayTTL; daemons pass a
	// disk engine (store.OpenDisk) so the local database survives
	// restarts. The engine's owner must match the credentials, and the
	// middleware takes ownership: Close closes it.
	Store store.Engine

	// OnReceive fires once per newly stored message.
	OnReceive func(m *msg.Message, from id.UserID)
	// OnPeerUp / OnPeerDown observe authenticated encounters.
	OnPeerUp   func(user id.UserID)
	OnPeerDown func(user id.UserID)
	// Observer, when set, receives every lifecycle event (telemetry).
	// Combine several with CombineObservers.
	Observer Observer

	// HandshakeTimeout bounds a mid-handshake connection before it is
	// failed and retried (adhoc.Config.HandshakeTimeout). 0 selects the
	// adhoc default; the lab shortens it to its fast radio timescale.
	HandshakeTimeout time.Duration

	// ResyncInterval is the in-session resync heartbeat period
	// (message.Config.ResyncInterval). 0 selects the message-layer
	// default, negative disables; the lab shortens it to its fast radio
	// timescale.
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
	// NoSync skips fsync on replay-log appends (tests, lab fleets).
	NoSync bool
	// RotationPeriod / OverlapWindow override the session epoch-rotation
	// defaults (secure.DefaultRotationPeriod et al.); the lab shortens
	// the period to its fast radio timescale.
	RotationPeriod time.Duration
	OverlapWindow  time.Duration
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
	clk      clock.Clock
	store    store.Engine
	verifier *pki.Verifier
	routing  *routing.Manager
	msgMgr   *message.Manager
	adhocMgr *adhoc.Manager

	secRec  *secure.StatsRecorder
	replay  *secure.ReplayStore
	prekeys *secure.PrekeyStore

	// bundles caches the latest verified prekey bundle per peer, so
	// Direct can seal forward-secret even when the recipient is offline.
	// A bundle's one-time component is stripped after its single use.
	bundleMu sync.Mutex
	bundles  map[id.UserID]*secure.PrekeyBundle
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
	if cfg.Routing.Clock == nil {
		cfg.Routing.Clock = cfg.Clock
	}

	st := cfg.Store
	if st == nil {
		// Default engine: in-memory, unbounded, with Routing.RelayTTL
		// mapped onto the TTL eviction policy (real buffer management
		// instead of the old serve-time filter).
		policy, err := store.PolicyByName("", cfg.Routing.RelayTTL)
		if err != nil {
			return nil, fmt.Errorf("core: building store policy: %w", err)
		}
		st = store.NewMemory(cfg.Creds.Ident.User, store.Options{
			Clock:  cfg.Clock,
			Policy: policy,
		})
	} else if st.Owner() != cfg.Creds.Ident.User {
		return nil, fmt.Errorf("core: store owner %s does not match credentials user %s",
			st.Owner(), cfg.Creds.Ident.User)
	}
	verifier, err := pki.NewVerifier(cfg.Creds.RootDER, cfg.Clock.Now)
	if err != nil {
		return nil, fmt.Errorf("core: building verifier: %w", err)
	}
	routingMgr, err := routing.NewManager(st, cfg.Routing)
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
	// Interpose the observer on the message-manager callbacks: a receipt
	// is one dissemination, and a receipt by a subscriber of the author
	// is one delivery — the exact events the evaluation counts.
	onReceive := cfg.OnReceive
	onPeerUp := cfg.OnPeerUp
	onPeerDown := cfg.OnPeerDown
	if obs != nil {
		onReceive = func(m *msg.Message, from id.UserID) {
			obs.MessageReceived(m, from, st.IsSubscribed(m.Author))
			if cfg.OnReceive != nil {
				cfg.OnReceive(m, from)
			}
		}
		onPeerUp = func(user id.UserID) {
			obs.ContactUp(user)
			if cfg.OnPeerUp != nil {
				cfg.OnPeerUp(user)
			}
		}
		onPeerDown = func(user id.UserID) {
			obs.ContactDown(user)
			if cfg.OnPeerDown != nil {
				cfg.OnPeerDown(user)
			}
		}
	}
	// The node's secure-layer state: a scoped stats recorder (parallel
	// fleets in one process stop cross-contaminating counters), the
	// replay store, and the prekey store.
	secRec := &secure.StatsRecorder{}
	replay, err := secure.OpenReplayStore(cfg.Security.Dir, secure.ReplayOptions{
		NoSync: cfg.Security.NoSync,
		Stats:  secRec,
	})
	if err != nil {
		return nil, fmt.Errorf("core: opening replay store: %w", err)
	}
	prekeys, err := secure.NewPrekeyStore(cfg.Creds.Ident, cfg.Creds.Ident.User, secure.PrekeyConfig{
		Clock: cfg.Clock,
		Rand:  cfg.Rand,
		Stats: secRec,
	})
	if err != nil {
		replay.Close()
		return nil, fmt.Errorf("core: building prekey store: %w", err)
	}

	mw := &Middleware{
		cfg:      cfg,
		clk:      cfg.Clock,
		store:    st,
		verifier: verifier,
		routing:  routingMgr,
		secRec:   secRec,
		replay:   replay,
		prekeys:  prekeys,
		bundles:  make(map[id.UserID]*secure.PrekeyBundle),
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
		ResyncInterval: cfg.ResyncInterval,
		Tracer:         cfg.Tracer,
		PrekeySource:   mw.prekeyBundle,
		OnPrekeyBundle: mw.cachePrekeyBundle,
	})
	if err != nil {
		replay.Close()
		return nil, fmt.Errorf("core: building message manager: %w", err)
	}
	adhocMgr, err := adhoc.New(adhoc.Config{
		Medium:           cfg.Medium,
		PeerName:         cfg.PeerName,
		Ident:            cfg.Creds.Ident,
		CertDER:          cfg.Creds.Cert.DER,
		Verifier:         verifier,
		Handler:          msgMgr,
		Clock:            cfg.Clock,
		Rand:             cfg.Rand,
		Tracer:           cfg.Tracer,
		HandshakeTimeout: cfg.HandshakeTimeout,
		SessionConfig: secure.SessionConfig{
			Clock:          cfg.Clock,
			RotationPeriod: cfg.Security.RotationPeriod,
			OverlapWindow:  cfg.Security.OverlapWindow,
			Stats:          secRec,
			Tracer:         cfg.Tracer,
		},
	})
	if err != nil {
		msgMgr.Close()
		replay.Close()
		return nil, fmt.Errorf("core: building ad hoc manager: %w", err)
	}
	mw.msgMgr = msgMgr
	mw.adhocMgr = adhocMgr
	if err := mw.msgMgr.Advertise(); err != nil {
		adhocMgr.Close()
		return nil, fmt.Errorf("core: initial advertisement: %w", err)
	}
	return mw, nil
}

// prekeyBundle is the message-layer hook publishing this node's bundle.
func (mw *Middleware) prekeyBundle() (*wire.PrekeyBundle, error) {
	b, err := mw.prekeys.Bundle()
	if err != nil {
		return nil, err
	}
	return &wire.PrekeyBundle{
		User:       b.User,
		SignedID:   b.SignedID,
		SignedPub:  b.SignedPub,
		SignedSig:  b.SignedSig,
		OneTimeID:  b.OneTimeID,
		OneTimePub: b.OneTimePub,
	}, nil
}

// cachePrekeyBundle stores a peer's verified bundle for later Direct
// sends.
func (mw *Middleware) cachePrekeyBundle(peer id.UserID, b *secure.PrekeyBundle) {
	mw.bundleMu.Lock()
	mw.bundles[peer] = b
	mw.bundleMu.Unlock()
}

// takePrekeyBundle returns the cached bundle for a recipient, stripping
// its one-time component so it is never sealed against twice (the
// recipient deletes the one-time private key on first open).
func (mw *Middleware) takePrekeyBundle(user id.UserID) *secure.PrekeyBundle {
	mw.bundleMu.Lock()
	defer mw.bundleMu.Unlock()
	b := mw.bundles[user]
	if b == nil {
		return nil
	}
	use := *b
	if b.OneTimeID != 0 {
		stripped := *b
		stripped.OneTimeID, stripped.OneTimePub = 0, nil
		mw.bundles[user] = &stripped
	}
	return &use
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
// with cert recipCert can open it. When a prekey bundle for the recipient
// has been cached (published during any earlier encounter), the envelope
// is sealed to the bundle instead of the long-term key: the recipient
// burns the one-time prekey on open, so capture of its device later
// cannot reopen the envelope (forward secrecy). Only without a bundle — a
// recipient never met, the paper's §III-D path — does Direct seal to the
// long-term key. Bundles are verified when they arrive, so a cached one
// that fails to seal is a fault to report, not a reason to give up
// forward secrecy quietly.
func (mw *Middleware) Direct(recipCert *pki.UserCert, payload []byte) (*msg.Message, error) {
	if bundle := mw.takePrekeyBundle(recipCert.User); bundle != nil {
		env, err := secure.SealPrekeyEnvelope(mw.cfg.Rand, recipCert.Key, bundle, mw.cfg.Creds.Ident, payload)
		if err != nil {
			return nil, fmt.Errorf("core: sealing direct message to %s's prekey bundle: %w", recipCert.User, err)
		}
		return mw.publish(msg.KindDirect, recipCert.User, env.Marshal())
	}
	env, err := secure.SealEnvelope(mw.cfg.Rand, recipCert.Key, mw.cfg.Creds.Ident, payload)
	if err != nil {
		return nil, fmt.Errorf("core: sealing direct message: %w", err)
	}
	return mw.publish(msg.KindDirect, recipCert.User, env.Marshal())
}

// OpenDirect opens a received direct message addressed to this user: the
// author's certificate is verified, then the envelope is opened with the
// local private key and the author's certified public key.
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
	var plain, nonce []byte
	if secure.IsPrekeyEnvelope(m.Payload) {
		env, err := secure.ParsePrekeyEnvelope(m.Payload)
		if err != nil {
			return nil, fmt.Errorf("core: parsing envelope: %w", err)
		}
		if plain, err = secure.OpenPrekeyEnvelope(mw.prekeys, cert.Key, env); err != nil {
			return nil, fmt.Errorf("core: opening envelope: %w", err)
		}
		nonce = env.Nonce
	} else {
		env, err := secure.ParseEnvelope(m.Payload)
		if err != nil {
			return nil, fmt.Errorf("core: parsing envelope: %w", err)
		}
		if plain, err = secure.OpenEnvelope(mw.cfg.Creds.Ident.Key, cert.Key, env); err != nil {
			return nil, fmt.Errorf("core: opening envelope: %w", err)
		}
		nonce = env.Nonce
	}
	// At-most-once opening: the envelope nonce is marked in the replay
	// store (persisted when Security.Dir is set, as sosd does beside a
	// disk store), so the same envelope re-disseminated later — even
	// across a restart — is rejected.
	if !mw.replay.MarkNonce(nonce) {
		return nil, fmt.Errorf("core: envelope %s replayed", m.Ref())
	}
	return plain, nil
}

// SecureStats snapshots this node's secure-layer counters: its sessions,
// replay store and prekey store, and nothing else in the process.
func (mw *Middleware) SecureStats() secure.Stats { return mw.secRec.Read() }

// PrekeysRemaining reports the unissued one-time prekey pool depth.
func (mw *Middleware) PrekeysRemaining() int { return mw.prekeys.Remaining() }

// ReplayState reports how many seen envelope nonces the node holds;
// right after New, what a persistent replay store resumed.
func (mw *Middleware) ReplayState() int { return mw.replay.Len() }

// publish signs, stores, and advertises a new action message.
func (mw *Middleware) publish(kind msg.Kind, subject id.UserID, payload []byte) (*msg.Message, error) {
	m := &msg.Message{
		Author:  mw.User(),
		Seq:     mw.store.NextSeq(),
		Kind:    kind,
		Created: mw.clk.Now(),
		Subject: subject,
		Payload: payload,
		CertDER: mw.cfg.Creds.Cert.DER,
	}
	if err := m.Sign(mw.cfg.Creds.Ident); err != nil {
		return nil, fmt.Errorf("core: signing action: %w", err)
	}
	if _, err := mw.store.Put(m); err != nil {
		return nil, fmt.Errorf("core: storing action: %w", err)
	}
	if mw.cfg.Observer != nil {
		mw.cfg.Observer.MessageCreated(m.Clone())
	}
	if err := mw.msgMgr.Advertise(); err != nil {
		return nil, fmt.Errorf("core: advertising action: %w", err)
	}
	return m.Clone(), nil
}

// SetScheme switches the active routing protocol at runtime (the paper's
// demo lets users toggle schemes inside the application) and refreshes
// the advertisement so peers see the new scheme's gossip.
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

// SyncState reports the size of the contact-sync plane: peers with
// cached sync state, currently active links, and total inbound summary
// entries held.
func (mw *Middleware) SyncState() (peers, links, summaryEntries int) {
	return mw.msgMgr.SyncState()
}

// Advertise refreshes the discovery beacon (summary + scheme gossip).
func (mw *Middleware) Advertise() error { return mw.msgMgr.Advertise() }

// Close shuts the middleware down, detaches from the medium, and flushes
// and closes the storage engine (crash-safe persistence for daemons).
func (mw *Middleware) Close() error {
	mw.msgMgr.Close()
	mediumErr := mw.adhocMgr.Close()
	storeErr := mw.store.Close()
	replayErr := mw.replay.Close()
	if mediumErr != nil {
		return mediumErr
	}
	if storeErr != nil {
		return storeErr
	}
	return replayErr
}
