package sos_test

import (
	"math/rand"
	"sync"
	"time"

	"sos"
	"sos/internal/adhoc"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/pki"
	"sos/internal/wire"
)

// The attacks a byzantine peer cycles through, one volley per tick. The
// peer is an insider: it holds a valid CA-issued certificate and completes
// real authenticated sessions, then abuses the sync protocol inside them.
const (
	// attackGarbage seals random bytes into the session: they decrypt
	// and authenticate, then fail frame decoding at the victim.
	attackGarbage = iota
	// attackStaleDeltas sends delta summaries against generations the
	// victim never saw. Victims merge deltas of any base, so this probes
	// harmlessness, not scoring: it must cost the victim one SummaryPull
	// per heartbeat interval and nothing else.
	attackStaleDeltas
	// attackOversizedWants requests absurd want-lists: tens of thousands
	// of sequence numbers per frame.
	attackOversizedWants
	// attackSummaryFlood sprays bursts of full in-session summaries far
	// past any plausible refresh rate.
	attackSummaryFlood
	attackModes
)

// byzantineInterval paces attack volleys per link.
const byzantineInterval = 20 * time.Millisecond

// byzantineStats counts what the attacker managed to emit.
type byzantineStats struct {
	Links          uint64
	GarbageFrames  uint64
	StaleDeltas    uint64
	OversizedWants uint64
	FloodAds       uint64
}

// byzantine is the attack harness: a real adhoc.Manager whose handler
// connects to everyone it discovers and runs attack volleys over each
// established link until the victim drops it.
type byzantine struct {
	mgr *adhoc.Manager

	mu     sync.Mutex
	rng    *rand.Rand
	links  map[*adhoc.Link]bool
	gen    uint64
	stats  byzantineStats
	closed bool
	wg     sync.WaitGroup
}

// newByzantine boots the attacker with real credentials on medium: it
// beacons a fat fake summary (so epidemic peers want what it pretends to
// have) and attacks every session it completes. seed makes the garbage
// and fake-summary streams reproducible.
func newByzantine(medium sos.Medium, peer mpc.PeerID, creds *sos.Credentials, seed int64) (*byzantine, error) {
	b := &byzantine{
		rng:   rand.New(rand.NewSource(seed ^ 0x6279_7a61_6e74)),
		links: make(map[*adhoc.Link]bool),
		gen:   1,
	}
	verifier, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		return nil, err
	}
	mgr, err := adhoc.New(adhoc.Config{
		Medium:   medium,
		PeerName: peer,
		Ident:    creds.Ident,
		CertDER:  creds.Cert.DER,
		Verifier: verifier,
		Handler:  (*byzantineHandler)(b),
	})
	if err != nil {
		return nil, err
	}
	gen, sum := b.fakeSummary()
	if err := mgr.Advertise(&wire.Advertisement{Peer: string(peer), Gen: gen, Summary: sum}); err != nil {
		mgr.Close()
		return nil, err
	}
	return b, nil
}

// Stats snapshots the attack counters.
func (b *byzantine) Stats() byzantineStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close stops every attack loop and leaves the medium.
func (b *byzantine) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	err := b.mgr.Close()
	b.wg.Wait()
	return err
}

// fakeSummary builds a summary full of authors the attacker invented, at
// sequence numbers nobody holds, under a fresh generation: honest
// epidemic peers will want all of it and connect.
func (b *byzantine) fakeSummary() (uint64, map[id.UserID]uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum := make(map[id.UserID]uint64, 8)
	for i := 0; i < 8; i++ {
		sum[b.fakeUserLocked()] = uint64(b.rng.Intn(1000) + 100)
	}
	b.gen++
	return b.gen, sum
}

// entriesOf is dict as a Summary carries it.
func entriesOf(dict map[id.UserID]uint64) []wire.Entry {
	entries := wire.AppendEntries(nil, dict)
	wire.SortEntries(entries)
	return entries
}

// fakeUserLocked invents a user ID that exists nowhere.
func (b *byzantine) fakeUserLocked() id.UserID {
	var u id.UserID
	b.rng.Read(u[:])
	return u
}

// byzantineHandler is the adhoc.Handler face of the attacker.
type byzantineHandler byzantine

func (h *byzantineHandler) Bind(mgr *adhoc.Manager) {
	b := (*byzantine)(h)
	b.mu.Lock()
	b.mgr = mgr
	b.mu.Unlock()
}

func (h *byzantineHandler) PeerDiscovered(peer mpc.PeerID, _ *wire.Advertisement) {
	b := (*byzantine)(h)
	b.mu.Lock()
	mgr := b.mgr
	b.mu.Unlock()
	// Attack everyone in range: connect on every discovery. A refused
	// dial is retried on the next discovery.
	_ = mgr.Connect(peer)
}

func (h *byzantineHandler) PeerGone(mpc.PeerID) {}

func (h *byzantineHandler) LinkUp(link *adhoc.Link) {
	b := (*byzantine)(h)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.links[link] = true
	b.stats.Links++
	b.wg.Add(1)
	b.mu.Unlock()
	go b.attack(link)
}

func (h *byzantineHandler) FrameIn(*adhoc.Link, wire.Frame) {
	// Ignore the victim's traffic entirely: never serve a request.
}

func (h *byzantineHandler) LinkDown(link *adhoc.Link, _ error) {
	b := (*byzantine)(h)
	b.mu.Lock()
	delete(b.links, link)
	b.mu.Unlock()
}

// attack runs volleys over one link, cycling the attacks, until the
// victim drops the session or the attacker shuts down.
func (b *byzantine) attack(link *adhoc.Link) {
	defer b.wg.Done()
	tick := time.NewTicker(byzantineInterval)
	defer tick.Stop()
	for i := 0; ; i++ {
		b.mu.Lock()
		live := b.links[link] && !b.closed
		b.mu.Unlock()
		if !live {
			return
		}
		if err := b.volley(link, i%attackModes); err != nil {
			return // link died mid-volley: the victim dropped us
		}
		<-tick.C
	}
}

// volley emits one attack of the given kind over the link.
func (b *byzantine) volley(link *adhoc.Link, attack int) error {
	switch attack {
	case attackGarbage:
		// Random bytes, sealed with the real session key: the victim
		// decrypts them fine and then cannot decode a frame — proof of
		// authenticated misbehavior, not radio damage.
		b.mu.Lock()
		junk := make([]byte, 32+b.rng.Intn(96))
		b.rng.Read(junk)
		b.stats.GarbageFrames++
		b.mu.Unlock()
		return link.SendEncoded(junk)
	case attackStaleDeltas:
		b.mu.Lock()
		gen := b.gen + uint64(1000+b.rng.Intn(1000))
		sum := map[id.UserID]uint64{b.fakeUserLocked(): uint64(b.rng.Intn(500) + 1)}
		b.stats.StaleDeltas++
		b.mu.Unlock()
		return sendFrame(link, &wire.Summary{Gen: gen, BaseGen: gen - 1, Entries: entriesOf(sum)})
	case attackOversizedWants:
		b.mu.Lock()
		wants := make([]wire.Want, 8)
		for i := range wants {
			seqs := make([]uint64, 4096)
			for j := range seqs {
				seqs[j] = uint64(j + 1)
			}
			wants[i] = wire.Want{Author: b.fakeUserLocked(), Seqs: seqs}
		}
		b.stats.OversizedWants++
		b.mu.Unlock()
		return sendFrame(link, &wire.Request{Wants: wants})
	case attackSummaryFlood:
		for i := 0; i < 24; i++ {
			gen, sum := b.fakeSummary()
			b.mu.Lock()
			b.stats.FloodAds++
			b.mu.Unlock()
			if err := sendFrame(link, &wire.Summary{Gen: gen, Entries: entriesOf(sum)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendFrame encodes f and sends it over link, as a peer's message manager
// would.
func sendFrame(link *adhoc.Link, f wire.Frame) error {
	_, err := link.Send(f)
	return err
}
