package main

import (
	"fmt"
	"runtime"
	"time"

	"sos"
	"sos/internal/msg"
)

// coldWorkload is contact-cold-drain. A sender holds a large history and
// a backlog of signed messages; each cycle a node that has never been
// seen — fresh identity, fresh store with the same history — joins,
// drains the backlog over a first-ever contact, and closes. The sync
// plane runs the other way round from the steady workloads: handshake,
// chunked full summary, request planning and large batches dominate, the
// beacon does little.
type coldWorkload struct {
	in      *inputs
	authors int // history size on both sides
	writers int // backlog authors
	each    int // backlog messages per author
	cycles  int // measured cycles per round

	history []*msg.Message
	last    shapes
}

func newCold(cfg runConfig, in *inputs) *coldWorkload {
	w := &coldWorkload{
		in:      in,
		authors: cfg.pick(10_000, 200),
		writers: cfg.pick(16, 2), each: cfg.pick(16, 4),
		cycles: cfg.pick(20, 2),
	}
	w.history = historyMessages(in, w.authors)
	return w
}

func (w *coldWorkload) shapes() shapes { return w.last }

func (w *coldWorkload) round(idx int, tr *tracer, t *tally) (roundResult, error) {
	roundStart := time.Now()
	var r roundResult
	f, err := newFleet(mediumMem, w.in, tr)
	if err != nil {
		return r, err
	}
	defer f.close()

	ca, err := sos.NewCA("benchmark-root", nil)
	if err != nil {
		return r, err
	}
	cloud := sos.NewCloud(ca, nil)
	bootstrap := func(handle string) (*sos.Credentials, error) {
		return sos.BootstrapWithRand(cloud, handle, w.in.entropy(handle))
	}
	tag := fmt.Sprintf("r%d", idx)
	senderCreds, err := bootstrap("sender-" + tag)
	if err != nil {
		return r, err
	}
	senderStore, err := preloadedStore(senderCreds.Ident.User, w.history)
	if err != nil {
		return r, err
	}

	// The backlog: signed posts by writers the fresh nodes have never
	// heard of, sitting in the sender's store as relayed cargo.
	check := newChecker()
	backlog := 0
	for a := 0; a < w.writers; a++ {
		writer, err := bootstrap(fmt.Sprintf("writer-%s-%d", tag, a))
		if err != nil {
			return r, err
		}
		for seq := 1; seq <= w.each; seq++ {
			payload := w.in.payload(a*w.each+seq, postBytes)
			m := &msg.Message{
				Author: writer.Ident.User, Seq: uint64(seq), Kind: msg.KindPost,
				Created: historyEpoch, Payload: payload, CertDER: writer.Cert.DER,
			}
			if err := m.Sign(writer.Ident); err != nil {
				return r, fmt.Errorf("signing backlog: %w", err)
			}
			if _, err := senderStore.Put(m); err != nil {
				return r, fmt.Errorf("storing backlog: %w", err)
			}
			check.expect(m.Ref(), expectation{payload: payload, author: writer})
			backlog++
		}
	}
	// One warm-up cycle, then the measured ones; identities are made
	// here so a cycle starts with NewNode.
	fresh := make([]*sos.Credentials, 1+w.cycles)
	for i := range fresh {
		if fresh[i], err = bootstrap(fmt.Sprintf("fresh-%s-%d", tag, i)); err != nil {
			return r, err
		}
	}
	sender, err := f.newNode(senderCreds, senderStore, nil)
	if err != nil {
		return r, err
	}

	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	var drainMsgsPerS []float64
	var last counts
	for i, creds := range fresh {
		measured := i > 0
		st, err := preloadedStore(creds.Ident.User, w.history)
		if err != nil {
			return r, err
		}
		if i == 1 {
			runtime.GC()
			r.setup = time.Since(roundStart)
		}
		// Sized to everything one cycle can deliver, so the callback never
		// blocks.
		arrivals := make(chan arrival, backlog)
		var sec section
		if measured {
			t.attempt(1)
			sec = f.begin(sender)
		}
		// The node starts out of range and the encounter begins once it is
		// up. MemMedium would otherwise hand the newcomer the sender's
		// beacon from inside Join, and core.New joins the medium before it
		// binds the message manager to the link layer: about one cycle in
		// 1500 lost that race, dropped the only beacon it would ever get
		// (the sender re-advertises only when its store changes) and sat
		// out the deadline.
		f.mem.SetReachable(sender.Peer(), peerName(creds), false)
		born := time.Now()
		node, err := f.newNode(creds, st, func(m *sos.Message, _ sos.UserID) {
			arrivals <- arrival{m: m, at: time.Now()}
		})
		if err != nil {
			return r, err
		}
		f.mem.SetReachable(sender.Peer(), node.Peer(), true)
		nodes := map[string]*sos.Node{"sender": sender, "fresh": node}
		cycleCheck := check.forReceiver()

		// Drain: every message the sender holds beyond the shared history.
		var firstAt, lastAt time.Time
		got, ok := 0, true
		timer.Reset(opDeadline)
		for got < backlog && ok {
			select {
			case a := <-arrivals:
				cycleCheck.record(a)
				if got == 0 {
					firstAt = a.at
				}
				lastAt = a.at
				got++
			case <-timer.C:
				ok = false
			}
		}
		if err := f.closeNode(node); err != nil {
			return r, fmt.Errorf("closing fresh node: %w", err)
		}
		if !measured {
			if !ok {
				return r, fmt.Errorf("%w: warm-up cycle did not drain (%d of %d)", errHarness, got, backlog)
			}
			continue
		}
		delta := sec.end(&r, got, 0, sender, node)
		last = delta
		if !ok {
			t.fail(failure{
				Op: fmt.Sprintf("cold cycle %d", i), Phase: "drain",
				Reason: fmt.Sprintf("%d of %d messages within the deadline", got, backlog), Nodes: snapshotNodes(nodes),
			})
			continue
		}
		checkHealth(delta, fmt.Sprintf("cold cycle %d", i), "drain", nodes, t)
		cycleCheck.verify("drain", nodes, t)
		r.firstMs = append(r.firstMs, ms(firstAt.Sub(born)))
		drainMsgsPerS = append(drainMsgsPerS, float64(backlog)/lastAt.Sub(born).Seconds())
		if r.layers != nil {
			r.layers.handshakeMs = append(r.layers.handshakeMs, f.handshakeMs(node)...)
		}
	}
	r.goodput = median(drainMsgsPerS)
	if r.layers != nil {
		// One handshake per measured cycle, all inside the sections.
		r.layers.contacts = w.cycles
	}
	w.last = trafficShapes(f.medium.c.read(), last, senderStore.SummarySize())
	return r, nil
}
