package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sos/internal/adhoc"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/pki"
	"sos/internal/wire"
)

// Byzantine attack modes. A byzantine peer is an insider: it holds a
// valid CA-issued certificate and completes real authenticated sessions
// — then abuses the sync protocol inside them. Zero means all modes.
type AttackMode uint

const (
	// AttackGarbage seals random bytes into the session: they decrypt
	// and authenticate, then fail frame decoding at the victim.
	AttackGarbage AttackMode = 1 << iota
	// AttackStaleDeltas sends delta summaries against generations the
	// victim never saw. Victims merge deltas of any base, so this probes
	// harmlessness, not scoring: it must cost the victim one SummaryPull
	// per heartbeat interval and nothing else.
	AttackStaleDeltas
	// AttackOversizedWants requests absurd want-lists: tens of
	// thousands of sequence numbers per frame.
	AttackOversizedWants
	// AttackSummaryFlood sprays bursts of full in-session summaries far
	// past any plausible refresh rate.
	AttackSummaryFlood

	attackAll = AttackGarbage | AttackStaleDeltas | AttackOversizedWants | AttackSummaryFlood
)

// ByzantineConfig assembles an attacker node.
type ByzantineConfig struct {
	Medium   mpc.Medium
	PeerName mpc.PeerID
	// Creds are real, CA-issued credentials: the attacker is an insider,
	// not an impostor — exactly the adversary certificates cannot stop.
	Creds *cloud.Credentials
	// Modes selects attacks; zero enables all of them.
	Modes AttackMode
	// Interval paces attack volleys per link (default 20ms).
	Interval time.Duration
	// Seed makes the garbage and fake-summary streams reproducible.
	Seed int64
	Logf func(format string, args ...any)
}

// ByzantineStats counts what the attacker managed to emit.
type ByzantineStats struct {
	Links          uint64
	GarbageFrames  uint64
	StaleDeltas    uint64
	OversizedWants uint64
	FloodAds       uint64
}

// Byzantine is the attack harness: a real adhoc.Manager whose handler
// connects to everyone it discovers and runs attack volleys over each
// established link until the victim drops it.
type Byzantine struct {
	cfg ByzantineConfig
	mgr *adhoc.Manager

	mu     sync.Mutex
	rng    *rand.Rand
	links  map[*adhoc.Link]bool
	gen    uint64
	stats  ByzantineStats
	closed bool
	wg     sync.WaitGroup
}

// NewByzantine boots the attacker: it joins the medium, beacons a fat
// fake summary (so epidemic peers want what it pretends to have), and
// attacks every session it completes.
func NewByzantine(cfg ByzantineConfig) (*Byzantine, error) {
	if cfg.Creds == nil {
		return nil, fmt.Errorf("chaos: byzantine needs credentials")
	}
	if cfg.Modes == 0 {
		cfg.Modes = attackAll
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	b := &Byzantine{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x6279_7a61_6e74)),
		links: make(map[*adhoc.Link]bool),
		gen:   1,
	}
	verifier, err := pki.NewVerifier(cfg.Creds.RootDER, time.Now)
	if err != nil {
		return nil, err
	}
	mgr, err := adhoc.New(adhoc.Config{
		Medium:   cfg.Medium,
		PeerName: cfg.PeerName,
		Ident:    cfg.Creds.Ident,
		CertDER:  cfg.Creds.Cert.DER,
		Verifier: verifier,
		Handler:  (*byzantineHandler)(b),
	})
	if err != nil {
		return nil, err
	}
	gen, sum := b.fakeSummary()
	if err := mgr.Advertise(&wire.Advertisement{Peer: string(cfg.PeerName), Gen: gen, Summary: sum}); err != nil {
		mgr.Close()
		return nil, err
	}
	return b, nil
}

// Stats snapshots the attack counters.
func (b *Byzantine) Stats() ByzantineStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close stops every attack loop and leaves the medium.
func (b *Byzantine) Close() error {
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
func (b *Byzantine) fakeSummary() (uint64, map[id.UserID]uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum := make(map[id.UserID]uint64, 8)
	for i := 0; i < 8; i++ {
		sum[b.fakeUserLocked()] = uint64(b.rng.Intn(1000) + 100)
	}
	b.gen++
	return b.gen, sum
}

// fakeUserLocked invents a user ID that exists nowhere.
func (b *Byzantine) fakeUserLocked() id.UserID {
	var u id.UserID
	b.rng.Read(u[:])
	return u
}

// byzantineHandler is the adhoc.Handler face of the attacker.
type byzantineHandler Byzantine

func (h *byzantineHandler) Bind(mgr *adhoc.Manager) {
	b := (*Byzantine)(h)
	b.mu.Lock()
	b.mgr = mgr
	b.mu.Unlock()
}

func (h *byzantineHandler) PeerDiscovered(peer mpc.PeerID, _ *wire.Advertisement) {
	b := (*Byzantine)(h)
	b.mu.Lock()
	mgr := b.mgr
	b.mu.Unlock()
	// Attack everyone in range: connect on every discovery.
	if err := mgr.Connect(peer); err != nil {
		b.cfg.Logf("byzantine: connect %s: %v", peer, err)
	}
}

func (h *byzantineHandler) PeerGone(mpc.PeerID) {}

func (h *byzantineHandler) LinkUp(link *adhoc.Link) {
	b := (*Byzantine)(h)
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
	b := (*Byzantine)(h)
	b.mu.Lock()
	delete(b.links, link)
	b.mu.Unlock()
}

// attack runs volleys over one link, cycling the enabled modes, until
// the victim drops the session or the attacker shuts down.
func (b *Byzantine) attack(link *adhoc.Link) {
	defer b.wg.Done()
	modes := b.enabledModes()
	tick := time.NewTicker(b.cfg.Interval)
	defer tick.Stop()
	for i := 0; ; i++ {
		b.mu.Lock()
		live := b.links[link] && !b.closed
		b.mu.Unlock()
		if !live {
			return
		}
		if err := b.volley(link, modes[i%len(modes)]); err != nil {
			return // link died mid-volley: the victim dropped us
		}
		<-tick.C
	}
}

// enabledModes expands the mode mask in a fixed cycling order.
func (b *Byzantine) enabledModes() []AttackMode {
	var out []AttackMode
	for _, m := range []AttackMode{AttackGarbage, AttackStaleDeltas, AttackOversizedWants, AttackSummaryFlood} {
		if b.cfg.Modes&m != 0 {
			out = append(out, m)
		}
	}
	return out
}

// volley emits one attack of the given mode over the link.
func (b *Byzantine) volley(link *adhoc.Link, mode AttackMode) error {
	switch mode {
	case AttackGarbage:
		// Random bytes, sealed with the real session key: the victim
		// decrypts them fine and then cannot decode a frame — proof of
		// authenticated misbehavior, not radio damage.
		b.mu.Lock()
		junk := make([]byte, 32+b.rng.Intn(96))
		b.rng.Read(junk)
		b.stats.GarbageFrames++
		b.mu.Unlock()
		return link.SendEncoded(junk)
	case AttackStaleDeltas:
		b.mu.Lock()
		gen := b.gen + uint64(1000+b.rng.Intn(1000))
		sum := map[id.UserID]uint64{b.fakeUserLocked(): uint64(b.rng.Intn(500) + 1)}
		b.stats.StaleDeltas++
		b.mu.Unlock()
		return link.SendFrame(&wire.Summary{Gen: gen, BaseGen: gen - 1, Entries: sum})
	case AttackOversizedWants:
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
		return link.SendFrame(&wire.Request{Wants: wants})
	case AttackSummaryFlood:
		for i := 0; i < 24; i++ {
			gen, sum := b.fakeSummary()
			b.mu.Lock()
			b.stats.FloodAds++
			b.mu.Unlock()
			if err := link.SendFrame(&wire.Summary{Gen: gen, Entries: sum}); err != nil {
				return err
			}
		}
	}
	return nil
}
