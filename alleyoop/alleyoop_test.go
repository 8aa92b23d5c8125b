package alleyoop

import (
	"testing"
	"time"

	"sos"
)

var epoch = time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC)

// fixture is a sim-medium universe of AlleyOop apps.
type fixture struct {
	t      *testing.T
	clk    *sos.VirtualClock
	medium *sos.SimMedium
	cloud  *sos.Cloud
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := sos.NewVirtualClock(epoch)
	ca, err := sos.NewCA("AlleyOop Root CA", clk)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return &fixture{
		t:      t,
		clk:    clk,
		medium: sos.NewSimMedium(clk),
		cloud:  sos.NewCloud(ca, clk),
	}
}

func (f *fixture) app(handle string) *App {
	f.t.Helper()
	app, err := Join(Config{
		Cloud:    f.cloud,
		Medium:   f.medium,
		Handle:   handle,
		PeerName: sos.PeerID(handle + "-phone"),
		Clock:    f.clk,
	})
	if err != nil {
		f.t.Fatalf("Join(%s): %v", handle, err)
	}
	return app
}

func (f *fixture) meet(a, b *App, d time.Duration) {
	f.medium.SetLink(a.Node().Peer(), b.Node().Peer(), sos.Bluetooth)
	f.pump(d)
	f.medium.CutLink(a.Node().Peer(), b.Node().Peer())
	f.pump(time.Second)
}

func (f *fixture) pump(d time.Duration) {
	upto := f.clk.Now().Add(d)
	f.medium.RunUntil(upto)
	f.clk.Set(upto)
}

func TestFeedDelivery(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	bob := f.app("bob")

	if err := bob.Follow("alice"); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if _, err := alice.Post("first post!"); err != nil {
		t.Fatalf("Post: %v", err)
	}

	f.meet(alice, bob, 15*time.Second)

	feed := bob.Feed()
	if len(feed) != 1 {
		t.Fatalf("bob feed = %d items, want 1", len(feed))
	}
	item := feed[0]
	if item.Text != "first post!" || item.AuthorHandle != "alice" || item.Hops != 1 {
		t.Errorf("feed item = %+v", item)
	}
}

func TestFeedShowsOnlyFollowedAuthors(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	bob := f.app("bob")

	// Epidemic routing so bob carries alice's post even unsubscribed.
	if err := bob.SetScheme(sos.SchemeEpidemic); err != nil {
		t.Fatalf("SetScheme: %v", err)
	}
	if err := alice.SetScheme(sos.SchemeEpidemic); err != nil {
		t.Fatalf("SetScheme: %v", err)
	}
	if _, err := alice.Post("carried but not shown"); err != nil {
		t.Fatalf("Post: %v", err)
	}
	f.meet(alice, bob, 15*time.Second)

	if bob.Node().Store().Len() == 0 {
		t.Fatal("bob should carry the post as a forwarder")
	}
	if len(bob.Feed()) != 0 {
		t.Error("feed shows a post from an unfollowed author")
	}
}

func TestOwnPostsAppearInFeed(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	if _, err := alice.Post("note to self"); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if len(alice.Feed()) != 1 {
		t.Errorf("own feed = %d items, want 1", len(alice.Feed()))
	}
}

func TestFollowerNotification(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	bob := f.app("bob")

	// Alice must subscribe to bob to pull his follow action under IB
	// routing (actions are messages authored by bob).
	if err := alice.Follow("bob"); err != nil {
		t.Fatalf("alice Follow(bob): %v", err)
	}
	if err := bob.Follow("alice"); err != nil {
		t.Fatalf("bob Follow(alice): %v", err)
	}
	f.meet(alice, bob, 15*time.Second)

	followers := alice.Followers()
	if len(followers) != 1 || followers[0] != bob.User().String() {
		// Alice knows bob only by identifier unless she has him in her
		// address book — she followed him by handle, so she does.
		if len(followers) != 1 || followers[0] != "bob" {
			t.Errorf("alice followers = %v, want [bob]", followers)
		}
	}
}

func TestFollowingList(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	if err := alice.Follow("bob"); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if err := alice.Follow("carol"); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	got := alice.Following()
	if len(got) != 2 || got[0] != "bob" || got[1] != "carol" {
		t.Errorf("Following = %v, want [bob carol]", got)
	}
	if err := alice.Unfollow("bob"); err != nil {
		t.Fatalf("Unfollow: %v", err)
	}
	if got := alice.Following(); len(got) != 1 || got[0] != "carol" {
		t.Errorf("Following after unfollow = %v, want [carol]", got)
	}
}

func TestDirectMessageInbox(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	bob := f.app("bob")

	// Bob follows alice and receives a post, which carries her
	// certificate — enough to send her an encrypted direct message.
	if err := bob.Follow("alice"); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if err := alice.Follow("bob"); err != nil {
		t.Fatalf("alice Follow(bob): %v", err)
	}
	if _, err := alice.Post("hello"); err != nil {
		t.Fatalf("Post: %v", err)
	}
	f.meet(alice, bob, 15*time.Second)

	aliceCert, ok := bob.CertOf(alice.User())
	if !ok {
		t.Fatal("bob has no certificate for alice despite holding her post")
	}
	if _, err := bob.DirectTo(aliceCert, "psst, alice"); err != nil {
		t.Fatalf("DirectTo: %v", err)
	}
	f.meet(alice, bob, 15*time.Second)

	inbox := alice.Inbox()
	if len(inbox) != 1 {
		t.Fatalf("alice inbox = %d, want 1", len(inbox))
	}
	if inbox[0].Text != "psst, alice" || inbox[0].FromHandle != "bob" {
		t.Errorf("inbox item = %+v", inbox[0])
	}
	// Bob never sees his own direct in alice's clear text anywhere; and
	// his own inbox stays empty.
	if len(bob.Inbox()) != 0 {
		t.Error("sender's inbox should be empty")
	}
}

func TestHandleResolution(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	if got := alice.HandleOf(alice.User()); got != "alice" {
		t.Errorf("HandleOf(self) = %q", got)
	}
	stranger := sos.NewUserID("stranger")
	if got := alice.HandleOf(stranger); got != stranger.String() {
		t.Errorf("HandleOf(stranger) = %q, want identifier form", got)
	}
}

func TestSyncPushesActions(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	if _, err := alice.Post("p1"); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if err := alice.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	actions, err := f.cloud.SyncedActions(alice.User())
	if err != nil {
		t.Fatalf("SyncedActions: %v", err)
	}
	if len(actions) != 1 {
		t.Errorf("synced = %d actions, want 1", len(actions))
	}
}

func TestJoinValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := Join(Config{Medium: f.medium, Handle: "x"}); err == nil {
		t.Error("missing cloud accepted")
	}
	if _, err := Join(Config{Cloud: f.cloud, Handle: "x"}); err == nil {
		t.Error("missing medium accepted")
	}
	if _, err := Join(Config{Cloud: f.cloud, Medium: f.medium}); err == nil {
		t.Error("missing handle accepted")
	}
}

func TestDefaultSchemeIsInterest(t *testing.T) {
	f := newFixture(t)
	alice := f.app("alice")
	if got := alice.Node().Scheme(); got != sos.SchemeInterest {
		t.Errorf("default scheme = %s, want interest (the paper's field study ran IB)", got)
	}
}
