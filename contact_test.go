package sos_test

import (
	"fmt"
	"testing"
	"time"

	"sos"
)

// contactPair is one live contact between two nodes on a MemMedium
// whose stores hold the same authors-author history. Identical stores
// offer each other nothing, so the summary dictionaries carry every
// author while the first exchange has no payload to move: what follows
// it is the steady-state delta path, which must stay flat as the
// dictionary grows.
type contactPair struct {
	alice, bob *sos.Node
	delivered  chan sos.Ref // bob's receipts
}

// newContactPair starts the two nodes, each recording into its tracer
// when one is given, and primes the contact: no link exists until a
// post changes alice's beacon, so she posts once, bob stores it, and
// the pair waits until both in-session views cover the peer's whole
// dictionary. A full summary leaves inline, ahead of any Batch on its
// link, so bob's view is whole at that first delivery; at large stores
// bob's own stream to alice may still be arriving. The pair closes when
// the test ends, or earlier through close.
func newContactPair(tb testing.TB, authors int, aliceTracer, bobTracer *sos.Tracer) *contactPair {
	tb.Helper()
	ca, err := sos.NewCA("contact-root", nil)
	if err != nil {
		tb.Fatal(err)
	}
	cld := sos.NewCloud(ca, nil)
	medium := sos.NewMemMedium()
	node := func(handle string, tracer *sos.Tracer, onReceive func(*sos.Message, sos.UserID)) *sos.Node {
		creds, err := sos.Bootstrap(cld, handle)
		if err != nil {
			tb.Fatal(err)
		}
		st := sos.NewMemStore(creds.Ident.User, sos.StoreOptions{})
		created := time.Unix(1491472800, 0).UTC()
		for i := 0; i < authors; i++ {
			if _, err := st.Put(&sos.Message{
				Author:  sos.NewUserID(fmt.Sprintf("history-%07d", i)),
				Seq:     1,
				Kind:    sos.KindPost,
				Created: created,
			}); err != nil {
				tb.Fatal(err)
			}
		}
		n, err := sos.NewNode(sos.NodeConfig{
			Creds: creds, Medium: medium, Store: st, Tracer: tracer, OnReceive: onReceive,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return n
	}
	c := &contactPair{delivered: make(chan sos.Ref, 16)}
	tb.Cleanup(c.close)
	c.alice = node("alice", aliceTracer, nil)
	c.bob = node("bob", bobTracer, func(m *sos.Message, _ sos.UserID) { c.delivered <- m.Ref() })

	c.post(tb, make([]byte, 200), 60*time.Second)
	settleBy := time.Now().Add(120 * time.Second)
	for {
		_, _, aliceView := c.alice.SyncState()
		_, _, bobView := c.bob.SyncState()
		if aliceView >= authors && bobView >= authors {
			return c
		}
		if time.Now().After(settleBy) {
			tb.Fatalf("initial summary exchange did not settle (views %d/%d of %d)", aliceView, bobView, authors)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// post publishes payload on alice and waits up to within for bob to
// store it.
func (c *contactPair) post(tb testing.TB, payload []byte, within time.Duration) {
	tb.Helper()
	if _, err := c.alice.Post(payload); err != nil {
		tb.Fatal(err)
	}
	select {
	case <-c.delivered:
	case <-time.After(within):
		tb.Fatalf("post not delivered within %v", within)
	}
}

// close closes whichever nodes are still open.
func (c *contactPair) close() {
	for _, n := range []*sos.Node{c.bob, c.alice} {
		if n != nil {
			n.Close()
		}
	}
	c.alice, c.bob = nil, nil
}
