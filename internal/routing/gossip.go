package routing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"sos/internal/id"
)

// gossip is the side information spray-and-wait and PRoPHET piggyback on
// advertisements: the sender's subscription list (so peers can recognize
// destinations) and, for PRoPHET, its delivery-predictability table.
type gossip struct {
	Subs  []id.UserID
	Preds map[id.UserID]float64
}

// Gossip codec limits.
const (
	maxGossipSubs  = 512
	maxGossipPreds = 512
	gossipMagic    = 0xD7
)

var errBadGossip = errors.New("routing: malformed gossip blob")

// encodeGossip serializes g deterministically (sorted entries).
func encodeGossip(g gossip) ([]byte, error) {
	if len(g.Subs) > maxGossipSubs {
		return nil, fmt.Errorf("routing: %d subscriptions exceed gossip limit", len(g.Subs))
	}
	if len(g.Preds) > maxGossipPreds {
		return nil, fmt.Errorf("routing: %d predictabilities exceed gossip limit", len(g.Preds))
	}
	subs := make([]id.UserID, len(g.Subs))
	copy(subs, g.Subs)
	slices.SortFunc(subs, func(a, b id.UserID) int { return bytes.Compare(a[:], b[:]) })

	users := make([]id.UserID, 0, len(g.Preds))
	for u := range g.Preds {
		users = append(users, u)
	}
	slices.SortFunc(users, func(a, b id.UserID) int { return bytes.Compare(a[:], b[:]) })

	out := make([]byte, 0, 1+4+len(subs)*id.UserIDLen+len(users)*(id.UserIDLen+8))
	out = append(out, gossipMagic)
	out = binary.BigEndian.AppendUint16(out, uint16(len(subs)))
	for _, u := range subs {
		out = append(out, u[:]...)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(users)))
	for _, u := range users {
		out = append(out, u[:]...)
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(g.Preds[u]))
	}
	return out, nil
}

// decodeGossip parses a blob produced by encodeGossip.
func decodeGossip(buf []byte) (gossip, error) {
	var g gossip
	if len(buf) < 3 || buf[0] != gossipMagic {
		return g, errBadGossip
	}
	buf = buf[1:]
	nSubs := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if nSubs > maxGossipSubs || len(buf) < nSubs*id.UserIDLen {
		return g, errBadGossip
	}
	g.Subs = make([]id.UserID, nSubs)
	for i := 0; i < nSubs; i++ {
		copy(g.Subs[i][:], buf[:id.UserIDLen])
		buf = buf[id.UserIDLen:]
	}
	if len(buf) < 2 {
		return g, errBadGossip
	}
	nPreds := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if nPreds > maxGossipPreds || len(buf) != nPreds*(id.UserIDLen+8) {
		return g, errBadGossip
	}
	g.Preds = make(map[id.UserID]float64, nPreds)
	for i := 0; i < nPreds; i++ {
		var u id.UserID
		copy(u[:], buf[:id.UserIDLen])
		buf = buf[id.UserIDLen:]
		p := math.Float64frombits(binary.BigEndian.Uint64(buf))
		buf = buf[8:]
		if math.IsNaN(p) || p < 0 || p > 1 {
			return gossip{}, errBadGossip
		}
		g.Preds[u] = p
	}
	return g, nil
}
