package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"sos"
	"sos/internal/chaos"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/netmedium"
	"sos/internal/store"
)

// historyEpoch stamps the preloaded history, as the lab harness does.
var historyEpoch = time.Unix(1491472800, 0).UTC()

// arrival is one OnReceive, stamped on the receiver's callback thread.
// The callback does nothing else: checks run on the generator goroutine
// after the measured section, so they cost the program nothing.
type arrival struct {
	m  *sos.Message
	at time.Time
}

// fleet is one round's world: the medium behind the always-on counting
// shim, and what the traced shims share.
type fleet struct {
	medium *mediumShim
	tr     *tracer
	mem    *sos.MemMedium    // MemMedium workloads only
	chaos  *chaos.Medium     // radio workload only
	net    *netmedium.Medium // loopback workload only

	observers map[*sos.Node]*observerShim
	nodes     []*sos.Node
}

// mediumKind selects the substrate of a steady workload.
type mediumKind int

const (
	mediumMem mediumKind = iota
	mediumRadio
	mediumLoopback
)

func newFleet(kind mediumKind, in *inputs, tr *tracer) (*fleet, error) {
	f := &fleet{tr: tr, observers: make(map[*sos.Node]*observerShim)}
	var inner mpc.Medium
	switch kind {
	case mediumMem:
		f.mem = sos.NewMemMedium()
		inner = f.mem
	case mediumRadio:
		prof, err := chaos.Preset(chaos.PresetDelayJitter, 0, in.sub("chaos"))
		if err != nil {
			return nil, err
		}
		f.chaos, err = chaos.Wrap(sos.NewMemMedium(), prof)
		if err != nil {
			return nil, err
		}
		inner = f.chaos
	case mediumLoopback:
		var err error
		f.net, err = sos.NewNetMedium(sos.NetConfig{
			BeaconListen:   "127.0.0.1:0",
			ListenIP:       "127.0.0.1",
			BeaconInterval: 30 * time.Millisecond,
			LossTimeout:    2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		inner = f.net
	}
	f.medium = newMediumShim(inner, tr)
	return f, nil
}

// peerName is the device name a node of creds joins the medium under.
func peerName(creds *sos.Credentials) mpc.PeerID { return mpc.PeerID(creds.Handle + "-device") }

// newNode starts a node on the fleet's medium. A traced fleet puts the
// timing shims on the node's store, scheme and observer.
func (f *fleet) newNode(creds *sos.Credentials, st store.Engine, onReceive func(*sos.Message, sos.UserID)) (*sos.Node, error) {
	peer := peerName(creds)
	cfg := sos.NodeConfig{Creds: creds, Medium: f.medium, PeerName: peer, Store: st, OnReceive: onReceive}
	var ctx *nodeCtx
	var obs *observerShim
	if f.tr != nil {
		ctx = f.medium.nodeCtx(peer)
		cfg.Store = &storeShim{Engine: st, n: ctx}
		obs = &observerShim{n: ctx, medium: f.medium, peer: peer}
		cfg.Observer = obs
	}
	node, err := sos.NewNode(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", creds.Handle, err)
	}
	f.nodes = append(f.nodes, node)
	if f.tr != nil {
		f.observers[node] = obs
		if err := installSchemeShim(node, ctx); err != nil {
			return nil, fmt.Errorf("installing scheme shim on %s: %w", creds.Handle, err)
		}
	}
	return node, nil
}

// handshakeMs is the traced node's join → ContactUp time, if it had one.
func (f *fleet) handshakeMs(node *sos.Node) []float64 {
	obs := f.observers[node]
	if obs == nil {
		return nil
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	var out []float64
	for _, d := range obs.handshakes {
		out = append(out, ms(d))
	}
	return out
}

// closeNode shuts one node down mid-round.
func (f *fleet) closeNode(node *sos.Node) error {
	for i, n := range f.nodes {
		if n == node {
			f.nodes = append(f.nodes[:i], f.nodes[i+1:]...)
			break
		}
	}
	return node.Close()
}

// close shuts every node down and releases the medium.
func (f *fleet) close() {
	for _, n := range f.nodes {
		_ = n.Close() // teardown after the measurement; nothing to report to
	}
	f.nodes = nil
	if f.chaos != nil {
		f.chaos.Close()
	}
}

// section brackets one measured section: process cost, medium bytes and
// the nodes' counters before and after.
type section struct {
	f      *fleet
	start  time.Time
	meter  meter
	medium mediumCount
	counts counts
	net    netmedium.Stats
	chaos  chaos.Stats
	spanAt int // absolute index of the section's first span
}

func (f *fleet) begin(nodes ...*sos.Node) section {
	s := section{f: f, medium: f.medium.c.read(), counts: readCounts(nodes...)}
	if f.net != nil {
		s.net = f.net.Stats()
	}
	if f.chaos != nil {
		s.chaos = f.chaos.Stats()
	}
	if f.tr != nil {
		s.spanAt, _ = f.tr.mark()
	}
	s.meter = readMeter()
	s.start = time.Now()
	return s
}

// end closes the section into r, adding to what r already holds so a
// round may have several sections (the cold cycles). For a traced fleet
// it also fills r.layers.
func (s section) end(r *roundResult, delivered, signed int, nodes ...*sos.Node) counts {
	took := time.Since(s.start)
	cost := readMeter().sub(s.meter)
	medium := s.f.medium.c.read().sub(s.medium)
	delta := readCounts(nodes...).sub(s.counts)
	r.delivered += delivered
	r.cost = r.cost.add(cost)
	r.wireBytes += medium.wireBytes()
	if s.f.tr == nil {
		return delta
	}
	lt := &layerTotals{
		delivered: delivered, signed: signed, seconds: took.Seconds(),
		cost: cost, medium: medium, counts: delta,
	}
	if s.f.net != nil {
		now := s.f.net.Stats()
		lt.net.BeaconsSent = now.BeaconsSent - s.net.BeaconsSent
		lt.net.FrameBytesSent = now.FrameBytesSent - s.net.FrameBytesSent
		lt.net.DialRetries = now.DialRetries - s.net.DialRetries
	}
	if s.f.chaos != nil {
		now := s.f.chaos.Stats()
		lt.chaos.FramesDelayed = now.FramesDelayed - s.chaos.FramesDelayed
		lt.chaos.FramesDropped = now.FramesDropped - s.chaos.FramesDropped
	}
	lt.busy, lt.calls = busyByName(s.f.tr.since(s.spanAt), s.spanAt)
	if r.layers == nil {
		r.layers = &layerTotals{}
	}
	r.layers.merge(lt)
	return delta
}

// post publishes one payload from node, inside a core.post span when
// traced.
func (f *fleet) post(node *sos.Node, payload []byte) (*sos.Message, error) {
	sp := f.medium.nodeCtx(node.Peer()).beginPost()
	m, err := node.Post(payload)
	if m != nil {
		sp.endRef(m.Ref())
	} else {
		sp.end()
	}
	return m, err
}

// expectation is one posted message awaiting delivery.
type expectation struct {
	payload []byte
	author  *sos.Credentials
}

// checker verifies, off the measured path, that every expected message
// arrived exactly once, byte-equal, and with a valid author signature.
type checker struct {
	expected map[msg.Ref]expectation
	seen     map[msg.Ref]int
	arrived  []arrival
}

func newChecker() *checker {
	return &checker{expected: make(map[msg.Ref]expectation), seen: make(map[msg.Ref]int)}
}

func (c *checker) expect(ref msg.Ref, e expectation) { c.expected[ref] = e }

// forReceiver returns a checker for one more receiver of the same posts:
// it shares the expectations and counts that receiver's arrivals alone.
func (c *checker) forReceiver() *checker {
	return &checker{expected: c.expected, seen: make(map[msg.Ref]int)}
}

func (c *checker) record(a arrival) {
	c.seen[a.m.Ref()]++
	c.arrived = append(c.arrived, a)
}

// verify fails one operation per bad arrival.
func (c *checker) verify(phase string, nodes map[string]*sos.Node, t *tally) {
	for _, a := range c.arrived {
		ref := a.m.Ref()
		e, ok := c.expected[ref]
		reason := ""
		switch {
		case !ok:
			reason = "delivered a message nobody posted"
		case c.seen[ref] > 1:
			reason = fmt.Sprintf("delivered %d times", c.seen[ref])
			c.seen[ref] = 1 // report a duplicate once
		case string(a.m.Payload) != string(e.payload):
			reason = "payload differs from what was posted"
		case a.m.VerifyWithKey(e.author.Ident.Public()) != nil:
			reason = "author signature does not verify"
		}
		if reason != "" {
			t.fail(failure{Op: "deliver " + ref.String(), Phase: phase, Reason: reason, Nodes: snapshotNodes(nodes)})
		}
	}
	c.arrived = nil
}

// steadyWorkload is contact-steady and its two variants: two nodes with
// identical preloaded stores, a settled link, then a serial phase (one
// post outstanding) and a pipelined phase (a window outstanding).
type steadyWorkload struct {
	kind    mediumKind
	in      *inputs
	authors int
	warmup  int
	serial  int
	piped   int
	window  int

	history  []*msg.Message
	payloads [][]byte
	last     shapes
}

const postBytes = 200

func newSteady(cfg runConfig, in *inputs) *steadyWorkload {
	w := &steadyWorkload{in: in, window: 32}
	switch cfg.workload {
	case wlSteady:
		w.kind = mediumMem
		w.authors, w.warmup, w.serial, w.piped = cfg.pick(1000, 50), cfg.pick(200, 5), cfg.pick(1000, 20), cfg.pick(1000, 64)
	case wlLoopback:
		w.kind = mediumLoopback
		w.authors, w.warmup, w.serial, w.piped = cfg.pick(1000, 50), cfg.pick(200, 5), cfg.pick(1000, 20), cfg.pick(1000, 64)
	case wlRadioRTT:
		w.kind = mediumRadio
		w.authors, w.warmup, w.serial, w.piped = cfg.pick(1000, 50), cfg.pick(6, 1), cfg.pick(40, 2), cfg.pick(480, 32)
	}
	w.history = historyMessages(in, w.authors)
	w.payloads = make([][]byte, w.warmup+w.serial+w.piped)
	for i := range w.payloads {
		w.payloads[i] = in.payload(i, postBytes)
	}
	return w
}

// historyMessages builds the n-author history both stores are preloaded
// with: one message per author, so the summary dictionaries carry n
// entries and the initial exchange has nothing to transfer.
func historyMessages(in *inputs, n int) []*msg.Message {
	out := make([]*msg.Message, n)
	for i := range out {
		out[i] = &msg.Message{
			Author: sos.NewUserID(in.handle("history", i)), Seq: 1, Kind: msg.KindPost, Created: historyEpoch,
		}
	}
	return out
}

func preloadedStore(owner sos.UserID, history []*msg.Message) (*sos.MemStore, error) {
	st := sos.NewMemStore(owner, sos.StoreOptions{})
	for _, m := range history {
		if _, err := st.Put(m); err != nil {
			return nil, fmt.Errorf("preloading store: %w", err)
		}
	}
	return st, nil
}

func (w *steadyWorkload) shapes() shapes { return w.last }

// errHarness marks conditions under which a round cannot be measured at
// all (as opposed to an operation failing inside it).
var errHarness = errors.New("harness")

func (w *steadyWorkload) round(idx int, tr *tracer, t *tally) (roundResult, error) {
	roundStart := time.Now()
	var r roundResult
	f, err := newFleet(w.kind, w.in, tr)
	if err != nil {
		return r, err
	}
	defer f.close()

	ca, err := sos.NewCA("benchmark-root", nil)
	if err != nil {
		return r, err
	}
	cloud := sos.NewCloud(ca, nil)
	tag := fmt.Sprintf("r%d", idx)
	aliceCreds, err := sos.BootstrapWithRand(cloud, "alice-"+tag, w.in.entropy("alice-"+tag))
	if err != nil {
		return r, err
	}
	bobCreds, err := sos.BootstrapWithRand(cloud, "bob-"+tag, w.in.entropy("bob-"+tag))
	if err != nil {
		return r, err
	}
	aliceStore, err := preloadedStore(aliceCreds.Ident.User, w.history)
	if err != nil {
		return r, err
	}

	alice, err := f.newNode(aliceCreds, aliceStore, nil)
	if err != nil {
		return r, err
	}
	check := newChecker()
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	next := 0 // index of the next payload

	// postOne posts the next payload and registers the expectation.
	postOne := func() (msg.Ref, time.Time, error) {
		payload := w.payloads[next]
		next++
		at := time.Now()
		m, err := f.post(alice, payload)
		if err != nil {
			return msg.Ref{}, at, err
		}
		check.expect(m.Ref(), expectation{payload: payload, author: aliceCreds})
		return m.Ref(), at, nil
	}

	bobStore, err := preloadedStore(bobCreds.Ident.User, w.history)
	if err != nil {
		return r, err
	}
	// Sized to every message the round posts, so the receiver's callback
	// never blocks on the generator.
	arrivals := make(chan arrival, len(w.payloads))
	bob, err := f.newNode(bobCreds, bobStore, func(m *sos.Message, _ sos.UserID) {
		arrivals <- arrival{m: m, at: time.Now()}
	})
	if err != nil {
		return r, err
	}
	nodes := map[string]*sos.Node{"sender": alice, "receiver": bob}
	// await blocks until ref arrives or the deadline passes.
	await := func(ref msg.Ref) (time.Time, bool) {
		timer.Reset(opDeadline)
		for {
			select {
			case a := <-arrivals:
				check.record(a)
				if a.m.Ref() == ref {
					return a.at, true
				}
			case <-timer.C:
				return time.Time{}, false
			}
		}
	}

	// Identical stores offer each other nothing and no link forms, so the
	// first warm-up post goes out before the link settles.
	first, _, err := postOne()
	if err != nil {
		return r, err
	}
	if _, ok := await(first); !ok {
		return r, fmt.Errorf("%w: the first post never reached the receiver", errHarness)
	}
	// Settle: wait until both inbound views cover the peer's dictionary.
	settleBy := time.Now().Add(opDeadline)
	for {
		_, _, av := alice.SyncState()
		_, _, bv := bob.SyncState()
		if av >= w.authors && bv >= w.authors {
			break
		}
		if time.Now().After(settleBy) {
			return r, fmt.Errorf("%w: summary exchange did not settle (views %d/%d of %d)", errHarness, av, bv, w.authors)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < w.warmup; i++ {
		ref, _, err := postOne()
		if err != nil {
			return r, err
		}
		if _, ok := await(ref); !ok {
			return r, fmt.Errorf("%w: warm-up post %d never delivered", errHarness, i)
		}
	}
	check.verify("warm-up", nodes, t)
	runtime.GC()
	r.setup = time.Since(roundStart)

	sec := f.begin(alice, bob)
	delivered := 0

	// Serial phase: closed loop, one post outstanding.
	t.attempt(w.serial)
	for i := 0; i < w.serial; i++ {
		ref, postedAt, err := postOne()
		if err != nil {
			return r, err
		}
		at, ok := await(ref)
		if !ok {
			t.fail(failure{Op: "post " + ref.String(), Phase: "serial", Reason: "not delivered within the deadline", Nodes: snapshotNodes(nodes)})
			continue
		}
		delivered++
		r.latencyMs = append(r.latencyMs, ms(at.Sub(postedAt)))
	}

	// Pipelined phase: closed loop, window outstanding.
	t.attempt(w.piped)
	outstanding := make(map[msg.Ref]bool, w.window)
	pipedStart := time.Now()
	pipedEnd := pipedStart
	pipedDelivered := 0
	for posted := 0; posted < w.piped || len(outstanding) > 0; {
		for posted < w.piped && len(outstanding) < w.window {
			ref, _, err := postOne()
			if err != nil {
				return r, err
			}
			outstanding[ref] = true
			posted++
		}
		timer.Reset(opDeadline)
		select {
		case a := <-arrivals:
			check.record(a)
			if outstanding[a.m.Ref()] {
				delete(outstanding, a.m.Ref())
				pipedDelivered++
				pipedEnd = a.at
			}
		case <-timer.C:
			// Nothing moved for a whole deadline: give the window up.
			for ref := range outstanding {
				t.fail(failure{Op: "post " + ref.String(), Phase: "pipelined", Reason: "not delivered within the deadline", Nodes: snapshotNodes(nodes)})
			}
			clear(outstanding)
		}
	}
	delivered += pipedDelivered
	if span := pipedEnd.Sub(pipedStart); span > 0 {
		r.goodput = float64(pipedDelivered) / span.Seconds()
	}

	end := readCounts(alice, bob)
	delta := sec.end(&r, delivered, w.serial+w.piped, alice, bob)
	checkHealth(delta, "contact", "measured section", nodes, t)
	check.verify("measured section", nodes, t)

	if r.layers != nil {
		// The links came up during set-up: report the round's contacts
		// and their handshakes from the whole round, not the section.
		whole := f.medium.c.read()
		r.layers.contacts = 1
		r.layers.medium.handshakeBytes = whole.handshakeBytes
		r.layers.counts[cHandshakes] = end[cHandshakes]
		r.layers.counts[cHandshakeFailures] = end[cHandshakeFailures]
		r.layers.handshakeMs = f.handshakeMs(bob)
	}
	w.last = trafficShapes(f.medium.c.read(), delta, aliceStore.SummarySize())
	return r, nil
}

// trafficShapes derives the calibration shapes from what a round moved.
func trafficShapes(medium mediumCount, delta counts, summarySize int) shapes {
	sh := shapes{payloadBytes: postBytes, beaconEntries: min(summarySize, message.MaxBeaconSummary), msgsPerBatch: 1, frameBytes: 256}
	if medium.frames > 0 {
		sh.frameBytes = int(medium.frameBytes / medium.frames)
	}
	if delta[cBatches] > 0 {
		sh.msgsPerBatch = int((delta[cServed] + delta[cBatches] - 1) / delta[cBatches])
	}
	return sh
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
