package sos_test

import (
	"testing"
	"time"

	"sos"
)

// netTestConfig returns a loopback NetMedium configuration with test-speed
// beaconing.
func netTestConfig() sos.NetConfig {
	return sos.NetConfig{
		BeaconListen:   "127.0.0.1:0",
		ListenIP:       "127.0.0.1",
		BeaconInterval: 30 * time.Millisecond,
		LossTimeout:    300 * time.Millisecond,
	}
}

// TestNetMediumEndToEnd is the in vivo acceptance test: two complete SOS
// nodes — the daemon shape, one NetMedium instance each — run over real
// loopback sockets and disseminate a signed post with certificate-verified
// hops, under both epidemic and interest-based routing. Discovery happens
// via real UDP beacons; all session frames cross real TCP connections.
func TestNetMediumEndToEnd(t *testing.T) {
	for _, scheme := range []string{sos.SchemeEpidemic, sos.SchemeInterest} {
		t.Run(scheme, func(t *testing.T) {
			ca, err := sos.NewCA("In Vivo Root CA", nil)
			if err != nil {
				t.Fatalf("NewCA: %v", err)
			}
			cld := sos.NewCloud(ca, nil)

			aliceCreds, err := sos.Bootstrap(cld, "alice")
			if err != nil {
				t.Fatalf("Bootstrap(alice): %v", err)
			}
			bobCreds, err := sos.Bootstrap(cld, "bob")
			if err != nil {
				t.Fatalf("Bootstrap(bob): %v", err)
			}

			// Each node gets its own medium instance — the same shape as
			// two sosd processes — wired together by an explicit unicast
			// beacon target on loopback: alice beacons to bob, and bob
			// dials her for what her beacon advertises.
			mediumB, err := sos.NewNetMedium(netTestConfig())
			if err != nil {
				t.Fatalf("NewNetMedium(bob): %v", err)
			}
			received := make(chan *sos.Message, 16)
			bob, err := sos.NewNode(sos.NodeConfig{
				Creds:  bobCreds,
				Medium: mediumB,
				Scheme: scheme,
				OnReceive: func(m *sos.Message, _ sos.UserID) {
					received <- m
				},
			})
			if err != nil {
				t.Fatalf("NewNode(bob): %v", err)
			}
			defer bob.Close()

			cfgA := netTestConfig()
			cfgA.BeaconTargets = mediumB.BeaconAddrs()
			mediumA, err := sos.NewNetMedium(cfgA)
			if err != nil {
				t.Fatalf("NewNetMedium(alice): %v", err)
			}
			alice, err := sos.NewNode(sos.NodeConfig{
				Creds:  aliceCreds,
				Medium: mediumA,
				Scheme: scheme,
			})
			if err != nil {
				t.Fatalf("NewNode(alice): %v", err)
			}
			defer alice.Close()

			// Interest-based routing only pulls messages from authors the
			// node subscribes to; epidemic pulls everything it lacks.
			if scheme == sos.SchemeInterest {
				bob.Subscribe(alice.User())
				if err := bob.Advertise(); err != nil {
					t.Fatalf("Advertise: %v", err)
				}
			}

			post, err := alice.Post([]byte("hello over real sockets"))
			if err != nil {
				t.Fatalf("Post: %v", err)
			}

			deadline := time.After(15 * time.Second)
			for {
				select {
				case m := <-received:
					if m.Ref() != post.Ref() {
						continue // e.g. a follow action arriving first
					}
					if string(m.Payload) != "hello over real sockets" {
						t.Fatalf("payload = %q", m.Payload)
					}
					if m.Author != alice.User() {
						t.Fatalf("author = %s, want %s", m.Author, alice.User())
					}
					// The hop must have been certificate-verified: both
					// sides completed the mutual handshake, rejecting
					// nothing.
					as, bs := alice.Stats(), bob.Stats()
					if as.Adhoc.HandshakesOK == 0 || bs.Adhoc.HandshakesOK == 0 {
						t.Fatalf("delivery without a completed handshake: alice=%+v bob=%+v", as.Adhoc, bs.Adhoc)
					}
					if as.Adhoc.CertRejections != 0 || bs.Adhoc.CertRejections != 0 {
						t.Fatalf("unexpected certificate rejections: alice=%+v bob=%+v", as.Adhoc, bs.Adhoc)
					}
					return
				case <-deadline:
					t.Fatalf("post not delivered over %s routing via real sockets", scheme)
				}
			}
		})
	}
}
