package adhoc

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"fmt"
	"testing"

	"sos/internal/mpc"
	"sos/internal/secure"
)

// copyConn is a medium connection that keeps a copy of the last frame
// sent, the one allocation a medium's Send makes.
type copyConn struct{ last []byte }

func (*copyConn) Peer() mpc.PeerID          { return "peer" }
func (*copyConn) Initiator() bool           { return true }
func (c *copyConn) Send(frame []byte) error { c.last = bytes.Clone(frame); return nil }
func (*copyConn) Close() error              { return nil }

// TestSealFreshLinkAllocBudget: a link holds no encode or seal buffer, so
// sealing a 64 KB frame on a link that has sent nothing yet allocates only
// the medium's copy once the node's buffer pool is warm. A link that grew
// its own seal buffer would pay a second 64 KB allocation per contact.
func TestSealFreshLinkAllocBudget(t *testing.T) {
	// Many runs: the race detector makes sync.Pool drop a quarter of its
	// Puts at random, and each drop costs a run about three allocations.
	const runs = 1000
	local, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	remote, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	mgr := &Manager{}
	conn := &copyConn{}
	links := make([]*Link, runs+1) // AllocsPerRun makes one warm-up run, which warms the pool
	for i := range links {
		sess, err := secure.NewSession(local, &remote.PublicKey, fmt.Appendf(nil, "link %d", i))
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		links[i] = &Link{mgr: mgr, conn: conn, peer: conn.Peer(), sess: sess}
	}
	enc := make([]byte, 64<<10)
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		l := links[next]
		next++
		if err := l.SendEncoded(enc); err != nil {
			t.Fatalf("SendEncoded: %v", err)
		}
	})
	if got > 1 {
		t.Errorf("first seal on a fresh link = %.1f allocs/op, budget 1 (the medium's copy)", got)
	}
	if want := secure.EpochHeaderLen + len(enc) + 16; len(conn.last) != want { // 16: the GCM tag
		t.Fatalf("sent %d bytes, want %d", len(conn.last), want)
	}
}
