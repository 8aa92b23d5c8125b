// Contact-throughput measurement: how fast two nodes synchronize fresh
// messages during a contact, as a function of how many authors their
// stores have ever seen. This is the quantity the paper's §VI delivery
// and delay curves are bounded by — short, battery-constrained contacts
// must move the interesting messages before the link closes — and the
// dimension the delta-sync plane is built to hold flat: with full-summary
// exchange, per-contact airtime grows with the summary dictionary; with
// deltas it grows with what changed.
//
// The harness runs two unmodified middleware stacks over an in-process
// live medium, preloads both stores with the same N-author history (so
// the initial exchange settles with nothing to transfer), then posts
// fresh messages on one side and measures the full sync round trip —
// advertise → request → verify → store → delta — to the other. One priming
// post establishes the contact, and the harness waits for the
// first-contact summary exchange (a chunked stream at large stores) to
// settle on both sides before the measured loop starts: what is measured
// is the steady-state delta path, which is what must stay flat as the
// dictionary grows — first-contact streaming cost has its own e2e test
// in internal/message. Allocations and bytes are read from
// runtime.MemStats across both nodes, which makes them
// machine-independent enough to gate in CI; wall-clock throughput is
// reported for humans and trend lines.

package lab

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"time"

	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/obs"
	"sos/internal/pki"
	"sos/internal/store"
)

// ContactConfig parameterizes one contact-throughput measurement.
type ContactConfig struct {
	// Authors is the number of distinct authors preloaded into both
	// stores — the summary-dictionary size the contact has to cope with.
	Authors int
	// Posts is the number of fresh messages synced across the contact;
	// more posts amortize the handshake and improve the alloc averages.
	Posts int
}

// ContactResult is one measured configuration. AllocsPerMsg and
// BytesPerMsg count both nodes' heap activity per synced message and are
// stable enough across machines to gate in CI; Seconds and MsgsPerSec
// depend on the hardware and are informational.
type ContactResult struct {
	Authors      int     `json:"authors"`
	Posts        int     `json:"posts"`
	Seconds      float64 `json:"seconds"`
	MsgsPerSec   float64 `json:"msgsPerSec"`
	AllocsPerMsg float64 `json:"allocsPerMsg"`
	BytesPerMsg  float64 `json:"bytesPerMsg"`
	// SummaryBytesPerMsg and PayloadBytesPerMsg split the wire bytes both
	// nodes sent in-session per synced message into the sync plane
	// (advertisements, summary pulls) and the data plane (requests,
	// batches). Flat summary bytes across author tiers is the direct
	// evidence the delta/chunk machinery works; payload bytes track the
	// messages themselves and stay constant by construction.
	SummaryBytesPerMsg float64 `json:"summaryBytesPerMsg"`
	PayloadBytesPerMsg float64 `json:"payloadBytesPerMsg"`
}

// RunContact measures one contact configuration.
func RunContact(cfg ContactConfig) (ContactResult, error) {
	if cfg.Authors <= 0 {
		cfg.Authors = 1000
	}
	if cfg.Posts <= 0 {
		cfg.Posts = 200
	}
	res := ContactResult{Authors: cfg.Authors, Posts: cfg.Posts}

	ca, err := pki.NewCA("contact-bench-root")
	if err != nil {
		return res, err
	}
	svc := cloud.New(ca)
	medium := mpc.NewMemMedium()

	aliceCreds, err := cloud.Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		return res, err
	}
	bobCreds, err := cloud.Bootstrap(svc, "bob", rand.Reader)
	if err != nil {
		return res, err
	}

	// Identical N-author histories on both sides: the summary dictionaries
	// carry cfg.Authors entries, but the initial exchange has nothing to
	// transfer, so the measured loop is the steady-state sync path.
	aliceStore := store.New(aliceCreds.Ident.User)
	bobStore := store.New(bobCreds.Ident.User)
	created := time.Unix(1491472800, 0).UTC()
	for i := 0; i < cfg.Authors; i++ {
		m := &msg.Message{
			Author:  id.NewUserID(fmt.Sprintf("history-%07d", i)),
			Seq:     1,
			Kind:    msg.KindPost,
			Created: created,
		}
		if _, err := aliceStore.Put(m); err != nil {
			return res, err
		}
		if _, err := bobStore.Put(m); err != nil {
			return res, err
		}
	}

	delivered := make(chan msg.Ref, cfg.Posts+1)
	// Tracers are enabled on both nodes so the bench gate measures the
	// sync path with the flight recorder recording, proving the
	// instrumentation stays inside the allocation budget.
	alice, err := core.New(core.Config{
		Creds:  aliceCreds,
		Medium: medium,
		Store:  aliceStore,
		Tracer: obs.NewTracer(0),
	})
	if err != nil {
		return res, err
	}
	defer alice.Close()
	bob, err := core.New(core.Config{
		Creds:  bobCreds,
		Medium: medium,
		Store:  bobStore,
		Tracer: obs.NewTracer(0),
		OnReceive: func(m *msg.Message, _ id.UserID) {
			delivered <- m.Ref()
		},
	})
	if err != nil {
		return res, err
	}
	defer bob.Close()

	payload := make([]byte, 200)

	// Prime the contact: identical stores offer each other nothing, so no
	// link exists until the first post changes the beacon. Post once, wait
	// for delivery, then wait until both inbound views cover the peer's
	// whole dictionary — at large stores that is a chunked full-summary
	// stream still arriving after the first delivery.
	if _, err := alice.Post(payload); err != nil {
		return res, err
	}
	select {
	case <-delivered:
	case <-time.After(60 * time.Second):
		return res, fmt.Errorf("lab: priming post never delivered")
	}
	settleBy := time.Now().Add(120 * time.Second)
	for {
		_, _, aliceView := alice.SyncState()
		_, _, bobView := bob.SyncState()
		if aliceView >= cfg.Authors && bobView >= cfg.Authors {
			break
		}
		if time.Now().After(settleBy) {
			return res, fmt.Errorf("lab: initial summary exchange did not settle (views %d/%d of %d)",
				aliceView, bobView, cfg.Authors)
		}
		time.Sleep(2 * time.Millisecond)
	}

	wireBytes := func() (summary, data uint64) {
		am, bm := alice.Stats().Message, bob.Stats().Message
		return am.SummaryBytesSent + bm.SummaryBytesSent,
			am.PayloadBytesSent + bm.PayloadBytesSent
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sumBefore, payBefore := wireBytes()
	start := time.Now()

	for i := 0; i < cfg.Posts; i++ {
		if _, err := alice.Post(payload); err != nil {
			return res, err
		}
		select {
		case <-delivered:
		case <-time.After(30 * time.Second):
			return res, fmt.Errorf("lab: contact sync stalled after %d/%d posts", i, cfg.Posts)
		}
	}

	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	res.Seconds = elapsed.Seconds()
	res.MsgsPerSec = float64(cfg.Posts) / elapsed.Seconds()
	res.AllocsPerMsg = float64(after.Mallocs-before.Mallocs) / float64(cfg.Posts)
	res.BytesPerMsg = float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Posts)
	sumAfter, payAfter := wireBytes()
	res.SummaryBytesPerMsg = float64(sumAfter-sumBefore) / float64(cfg.Posts)
	res.PayloadBytesPerMsg = float64(payAfter-payBefore) / float64(cfg.Posts)
	return res, nil
}
