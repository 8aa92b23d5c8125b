package core

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/pki"
)

// lateJoin returns from Join a moment after the medium admitted the
// newcomer, so beacons already on the air reach the newcomer's handler
// while New is still inside Join — the schedule that is rare on a bare
// MemMedium and that a socket medium can produce at will.
type lateJoin struct{ mpc.Medium }

func (l lateJoin) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	ep, err := l.Medium.Join(peer, ev)
	time.Sleep(time.Millisecond)
	return ep, err
}

// TestNewcomerDialsBeaconSeenDuringJoin is the regression test for the
// start-up race: the holder's beacon is the only one the newcomer will
// ever see (the holder's store does not change again, and the newcomer
// offers the holder nothing), so a newcomer that drops it never dials.
func TestNewcomerDialsBeaconSeenDuringJoin(t *testing.T) {
	ca, err := pki.NewCA("startup-root")
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.New(ca)
	medium := mpc.NewMemMedium()

	holderCreds, err := cloud.Bootstrap(svc, "holder", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	holder, err := New(Config{Creds: holderCreds, Medium: medium})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Post([]byte("the one thing worth dialling for")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 200; i++ {
		creds, err := cloud.Bootstrap(svc, fmt.Sprintf("newcomer-%d", i), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan struct{}, 1)
		newcomer, err := New(Config{
			Creds:  creds,
			Medium: lateJoin{medium},
			OnReceive: func(*msg.Message, id.UserID) {
				select {
				case got <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("newcomer %d never received the holder's post: %+v", i, newcomer.Stats().Message)
		}
		newcomer.Close()
	}
}
