// Package alleyoop implements the AlleyOop Social research platform: the
// delay-tolerant social-networking application that runs on top of the
// SOS middleware (paper §III-A, §V). It is named after the basketball
// play — a message that cannot reach its destination is "caught" by
// intermediate devices and passed along until it scores.
//
// The app layer owns everything the middleware deliberately does not:
// user-facing feed assembly, follower bookkeeping, direct-message
// decryption into an inbox, the address book mapping user identifiers
// back to handles, and cloud synchronization of actions. The paper's
// Fig. 4b map of message creation and receipt comes from the simulator
// (internal/sim's geo observer feeding internal/geo), not from the app.
package alleyoop

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sos"
)

// Config assembles an AlleyOop Social instance for one user.
type Config struct {
	// Cloud is the backend used for the one-time signup (and later,
	// optional syncs).
	Cloud *sos.Cloud
	// Medium is the device-to-device substrate.
	Medium sos.Medium
	// Handle is the user's account name.
	Handle string
	// Scheme selects the initial routing protocol (users can toggle it in
	// the app, per the paper's demo). Empty selects interest-based — the
	// protocol the real-world evaluation ran.
	Scheme string
	// PeerName overrides the device discovery name.
	PeerName sos.PeerID
	// Clock drives timestamps; nil selects wall time.
	Clock sos.Clock
}

// FeedItem is one post visible in the user's feed.
type FeedItem struct {
	Ref          sos.Ref
	Author       sos.UserID
	AuthorHandle string
	Text         string
	Created      time.Time
	ReceivedAt   time.Time
	Hops         uint16
}

// InboxItem is one decrypted direct message.
type InboxItem struct {
	Ref        sos.Ref
	From       sos.UserID
	FromHandle string
	Text       string
	Created    time.Time
	ReceivedAt time.Time
}

// App is a running AlleyOop Social instance.
type App struct {
	node  *sos.Node
	cloud *sos.Cloud
	cfg   Config
	clk   sos.Clock

	mu        sync.Mutex
	names     map[sos.UserID]string
	feed      []FeedItem
	inbox     []InboxItem
	followers map[sos.UserID]bool
}

// Join performs the one-time infrastructure bootstrap and starts the app.
func Join(cfg Config) (*App, error) {
	if cfg.Cloud == nil || cfg.Medium == nil || cfg.Handle == "" {
		return nil, errors.New("alleyoop: config requires Cloud, Medium, and Handle")
	}
	if cfg.Scheme == "" {
		cfg.Scheme = sos.SchemeInterest
	}
	if cfg.Clock == nil {
		cfg.Clock = sos.SystemClock()
	}
	creds, err := sos.Bootstrap(cfg.Cloud, cfg.Handle)
	if err != nil {
		return nil, fmt.Errorf("alleyoop: bootstrap: %w", err)
	}

	app := &App{
		cloud:     cfg.Cloud,
		cfg:       cfg,
		clk:       cfg.Clock,
		names:     map[sos.UserID]string{creds.Ident.User: cfg.Handle},
		followers: make(map[sos.UserID]bool),
	}
	node, err := sos.NewNode(sos.NodeConfig{
		Creds:     creds,
		Medium:    cfg.Medium,
		PeerName:  cfg.PeerName,
		Scheme:    cfg.Scheme,
		Clock:     cfg.Clock,
		OnReceive: app.onReceive,
	})
	if err != nil {
		return nil, fmt.Errorf("alleyoop: starting middleware: %w", err)
	}
	app.node = node
	return app, nil
}

// Node exposes the underlying middleware instance.
func (a *App) Node() *sos.Node { return a.node }

// Handle returns the local account handle.
func (a *App) Handle() string { return a.cfg.Handle }

// User returns the local user identifier.
func (a *App) User() sos.UserID { return a.node.User() }

// Post publishes a text post to followers and adds it to the feed.
func (a *App) Post(text string) (*sos.Message, error) {
	m, err := a.node.Post([]byte(text))
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.feed = append(a.feed, FeedItem{
		Ref:          m.Ref(),
		Author:       m.Author,
		AuthorHandle: a.cfg.Handle,
		Text:         text,
		Created:      m.Created,
		ReceivedAt:   m.Created,
	})
	a.mu.Unlock()
	return m, nil
}

// Follow subscribes to another user by handle. Handles map to user
// identifiers deterministically (the cloud derives identifiers from
// handles), so following by handle works offline.
func (a *App) Follow(handle string) error {
	user := sos.NewUserID(handle)
	a.mu.Lock()
	a.names[user] = handle
	a.mu.Unlock()
	_, err := a.node.Follow(user)
	return err
}

// Unfollow removes a subscription by handle.
func (a *App) Unfollow(handle string) error {
	_, err := a.node.Unfollow(sos.NewUserID(handle))
	return err
}

// Following lists the handles (or identifier strings) this user follows.
func (a *App) Following() []string {
	subs := a.node.Store().Subscriptions()
	out := make([]string, 0, len(subs))
	for _, u := range subs {
		out = append(out, a.HandleOf(u))
	}
	sort.Strings(out)
	return out
}

// Followers lists users known (from disseminated follow actions) to
// follow this user.
func (a *App) Followers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.followers))
	for u, on := range a.followers {
		if on {
			out = append(out, a.handleOfLocked(u))
		}
	}
	sort.Strings(out)
	return out
}

// DirectTo seals a private text for another user. The recipient's
// certificate must be known — in AlleyOop it arrives with any message
// they authored, or from the cloud while online.
func (a *App) DirectTo(cert *sos.UserCert, text string) (*sos.Message, error) {
	return a.node.Direct(cert, []byte(text))
}

// CertOf retrieves a user's verified certificate from any stored message
// they authored (offline), or returns false.
func (a *App) CertOf(user sos.UserID) (*sos.UserCert, bool) {
	for _, m := range a.node.Store().MessagesFrom(user, 0) {
		cert, err := a.node.Verifier().VerifyFor(m.CertDER, user)
		if err == nil {
			return cert, true
		}
	}
	return nil, false
}

// Feed returns the posts from followed users (plus the user's own),
// newest first.
func (a *App) Feed() []FeedItem {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FeedItem, len(a.feed))
	copy(out, a.feed)
	sort.Slice(out, func(i, j int) bool { return out[i].Created.After(out[j].Created) })
	return out
}

// Inbox returns decrypted direct messages, newest first.
func (a *App) Inbox() []InboxItem {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]InboxItem, len(a.inbox))
	copy(out, a.inbox)
	sort.Slice(out, func(i, j int) bool { return out[i].Created.After(out[j].Created) })
	return out
}

// HandleOf resolves a user identifier to a handle if known, else the
// identifier display form.
func (a *App) HandleOf(user sos.UserID) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.handleOfLocked(user)
}

// Sync pushes locally authored actions to the cloud and refreshes the
// revocation list (online only).
func (a *App) Sync() error {
	return a.node.SyncWithCloud(a.cloud)
}

// SetScheme toggles the routing protocol, as the paper's demo allows.
func (a *App) SetScheme(name string) error {
	return a.node.SetScheme(name)
}

// Close shuts the app and its middleware down.
func (a *App) Close() error {
	return a.node.Close()
}

// onReceive routes middleware deliveries into app state.
func (a *App) onReceive(m *sos.Message, _ sos.UserID) {
	a.mu.Lock()
	now := a.clk.Now()

	switch m.Kind {
	case sos.KindPost:
		// The feed shows only authors the user follows.
		if a.node.Store().IsSubscribed(m.Author) {
			a.feed = append(a.feed, FeedItem{
				Ref:          m.Ref(),
				Author:       m.Author,
				AuthorHandle: a.handleOfLocked(m.Author),
				Text:         string(m.Payload),
				Created:      m.Created,
				ReceivedAt:   now,
				Hops:         m.Hops,
			})
		}
	case sos.KindFollow:
		if m.Subject == a.node.User() {
			a.followers[m.Author] = true
		}
	case sos.KindUnfollow:
		if m.Subject == a.node.User() {
			delete(a.followers, m.Author)
		}
	case sos.KindDirect:
		if m.Subject == a.node.User() {
			a.mu.Unlock()
			plain, err := a.node.OpenDirect(m)
			a.mu.Lock()
			if err == nil {
				a.inbox = append(a.inbox, InboxItem{
					Ref:        m.Ref(),
					From:       m.Author,
					FromHandle: a.handleOfLocked(m.Author),
					Text:       string(plain),
					Created:    m.Created,
					ReceivedAt: now,
				})
			}
		}
	}
	a.mu.Unlock()
}

// handleOfLocked resolves a handle under a.mu.
func (a *App) handleOfLocked(user sos.UserID) string {
	if h, ok := a.names[user]; ok {
		return h
	}
	return user.String()
}
