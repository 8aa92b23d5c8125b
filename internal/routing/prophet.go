package routing

import (
	"math"
	"time"

	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/wire"
)

// PRoPHET parameters, from Lindgren et al. (2003).
const (
	prophetEncounter = 0.75
	prophetBeta      = 0.25
	prophetGamma     = 0.98
	prophetThreshold = 0.10
	// prophetAgingUnit is the time quantum for predictability aging.
	prophetAgingUnit = 30 * time.Second
)

// Prophet implements the PRoPHET routing protocol (probabilistic routing
// using a history of encounters and transitivity), adapted to SOS's
// receiver-driven, publish/subscribe workload: the destinations of a
// message are the subscribers of its author, learned through subscription
// gossip. A node pulls a message it does not follow only when its own
// delivery predictability toward some subscriber of the author exceeds
// the threshold — i.e. when it is a genuinely promising custodian.
type Prophet struct {
	noHooks
	view StoreView
	clk  clock.Clock

	preds    map[id.UserID]float64
	lastAged time.Time
	subsOf   map[id.UserID]map[id.UserID]bool // author → known subscribers
}

var _ Scheme = (*Prophet)(nil)

// NewProphet builds the scheme over a store view.
func NewProphet(view StoreView, opts Options) *Prophet {
	p := &Prophet{
		view:   view,
		clk:    opts.Clock,
		preds:  make(map[id.UserID]float64),
		subsOf: make(map[id.UserID]map[id.UserID]bool),
	}
	if p.clk == nil {
		p.clk = clock.System()
	}
	p.lastAged = p.clk.Now()
	return p
}

// Name implements Scheme.
func (p *Prophet) Name() string { return SchemeProphet }

// Wants implements Scheme: pull messages we subscribe to, plus messages
// for which we are a promising custodian. The requester self-selected by
// its own predictability, so Prophet serves whatever is asked.
func (p *Prophet) Wants(summary map[id.UserID]uint64) []wire.Want {
	p.age()
	return wantsOf(p.view, summary, func(author id.UserID) bool {
		return p.view.IsSubscribed(author) || p.deliverability(author) >= prophetThreshold
	})
}

// OnReceived implements Scheme: follow/unfollow actions reveal subscriber
// sets even before gossip does.
func (p *Prophet) OnReceived(m *msg.Message, _ id.UserID) {
	switch m.Kind {
	case msg.KindFollow:
		p.subscriber(m.Subject, m.Author, true)
	case msg.KindUnfollow:
		p.subscriber(m.Subject, m.Author, false)
	}
}

// OnPeerConnected implements Scheme: a direct encounter boosts the
// predictability of meeting this user again.
func (p *Prophet) OnPeerConnected(peer id.UserID) {
	p.age()
	p.preds[peer] += (1 - p.preds[peer]) * prophetEncounter
}

// SchemeData implements Scheme: gossip our subscriptions and our
// predictability table so peers can apply the transitive update.
func (p *Prophet) SchemeData() []byte {
	p.age()
	subs := p.view.Subscriptions()
	if len(subs) > maxGossipSubs {
		subs = subs[:maxGossipSubs]
	}
	preds := make(map[id.UserID]float64, len(p.preds))
	n := 0
	for u, pv := range p.preds {
		if n >= maxGossipPreds {
			break
		}
		if pv > 0.001 { // don't ship noise
			preds[u] = pv
			n++
		}
	}
	blob, err := encodeGossip(gossip{Subs: subs, Preds: preds})
	if err != nil {
		return nil
	}
	return blob
}

// OnPeerData implements Scheme: learn the peer's subscriptions and apply
// PRoPHET's transitive predictability update.
func (p *Prophet) OnPeerData(peer id.UserID, data []byte) {
	g, err := decodeGossip(data)
	if err != nil {
		return
	}
	for _, author := range g.Subs {
		p.subscriber(author, peer, true)
	}
	p.age()
	pPeer := p.preds[peer]
	for c, pbc := range g.Preds {
		if c == p.view.Owner() {
			continue
		}
		transitive := pPeer * pbc * prophetBeta
		if transitive > p.preds[c] {
			p.preds[c] = transitive
		}
	}
}

// deliverability is the best predictability toward any known subscriber
// of author.
func (p *Prophet) deliverability(author id.UserID) float64 {
	best := 0.0
	for sub := range p.subsOf[author] {
		if sub == p.view.Owner() {
			continue
		}
		if pv := p.preds[sub]; pv > best {
			best = pv
		}
	}
	return best
}

// subscriber records (or clears) that user follows author.
func (p *Prophet) subscriber(author, user id.UserID, on bool) {
	set := p.subsOf[author]
	if set == nil {
		if !on {
			return
		}
		set = make(map[id.UserID]bool)
		p.subsOf[author] = set
	}
	if on {
		set[user] = true
	} else {
		delete(set, user)
	}
}

// age decays every predictability by gamma per elapsed aging unit.
func (p *Prophet) age() {
	now := p.clk.Now()
	elapsed := now.Sub(p.lastAged)
	if elapsed < prophetAgingUnit {
		return
	}
	units := float64(elapsed) / float64(prophetAgingUnit)
	factor := math.Pow(prophetGamma, units)
	for u, pv := range p.preds {
		aged := pv * factor
		if aged < 1e-6 {
			delete(p.preds, u)
			continue
		}
		p.preds[u] = aged
	}
	p.lastAged = now
}
