package sos_test

import (
	"testing"
	"time"

	"sos"
)

// TestPublicAPIQuickstart runs the package-documentation scenario end to
// end over the live medium: bootstrap two users, post, deliver.
func TestPublicAPIQuickstart(t *testing.T) {
	ca, err := sos.NewCA("Example Root CA", nil)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	cld := sos.NewCloud(ca, nil)
	medium := sos.NewMemMedium()

	aliceCreds, err := sos.Bootstrap(cld, "alice")
	if err != nil {
		t.Fatalf("Bootstrap(alice): %v", err)
	}
	bobCreds, err := sos.Bootstrap(cld, "bob")
	if err != nil {
		t.Fatalf("Bootstrap(bob): %v", err)
	}

	received := make(chan *sos.Message, 4)
	alice, err := sos.NewNode(sos.NodeConfig{Creds: aliceCreds, Medium: medium})
	if err != nil {
		t.Fatalf("NewNode(alice): %v", err)
	}
	defer alice.Close()
	bob, err := sos.NewNode(sos.NodeConfig{
		Creds:  bobCreds,
		Medium: medium,
		OnReceive: func(m *sos.Message, _ sos.UserID) {
			received <- m
		},
	})
	if err != nil {
		t.Fatalf("NewNode(bob): %v", err)
	}
	defer bob.Close()

	post, err := alice.Post([]byte("hello, opportunistic world"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}

	select {
	case m := <-received:
		if m.Ref() != post.Ref() {
			t.Errorf("received %v, want %v", m.Ref(), post.Ref())
		}
		if string(m.Payload) != "hello, opportunistic world" {
			t.Errorf("payload = %q", m.Payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("delivery timeout on live medium")
	}
}

// TestPublicAPISimMedium exercises the virtual-time path through the
// public API only.
func TestPublicAPISimMedium(t *testing.T) {
	clk := sos.NewVirtualClock(time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC))
	ca, err := sos.NewCA("Example Root CA", clk)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	cld := sos.NewCloud(ca, clk)
	medium := sos.NewSimMedium(clk)

	mk := func(handle, scheme string, sink *[]*sos.Message) *sos.Node {
		creds, err := sos.Bootstrap(cld, handle)
		if err != nil {
			t.Fatalf("Bootstrap(%s): %v", handle, err)
		}
		n, err := sos.NewNode(sos.NodeConfig{
			Creds:    creds,
			Medium:   medium,
			PeerName: sos.PeerID(handle + "-phone"),
			Scheme:   scheme,
			Clock:    clk,
			OnReceive: func(m *sos.Message, _ sos.UserID) {
				*sink = append(*sink, m)
			},
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", handle, err)
		}
		// A node left open keeps its wall-clock resync heartbeat, which
		// would go on sending into this single-threaded medium from timer
		// goroutines for the rest of the test binary's life.
		t.Cleanup(func() { n.Close() })
		return n
	}

	var bobGot []*sos.Message
	alice := mk("alice", sos.SchemeInterest, new([]*sos.Message))
	bob := mk("bob", sos.SchemeInterest, &bobGot)

	bob.Subscribe(alice.User())
	if _, err := alice.Post([]byte("sim post")); err != nil {
		t.Fatalf("Post: %v", err)
	}

	medium.SetLink(alice.Peer(), bob.Peer(), sos.Bluetooth)
	medium.RunUntil(clk.Now().Add(30 * time.Second))

	if len(bobGot) != 1 {
		t.Fatalf("bob received %d messages, want 1", len(bobGot))
	}
	if bobGot[0].Hops != 1 {
		t.Errorf("hops = %d, want 1", bobGot[0].Hops)
	}
}

func TestUserIDHelpers(t *testing.T) {
	u := sos.NewUserID("alice")
	parsed, err := sos.ParseUserID(u.String())
	if err != nil {
		t.Fatalf("ParseUserID: %v", err)
	}
	if parsed != u {
		t.Error("round trip mismatch")
	}
}
