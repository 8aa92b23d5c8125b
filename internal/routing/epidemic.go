package routing

import (
	"sos/internal/id"
	"sos/internal/wire"
)

// Epidemic implements epidemic routing (Vahdat & Becker, 2000): gratuitous
// replication of every message to every encountered node. It achieves the
// highest delivery ratio and the highest transfer overhead; the paper
// ships it as the baseline scheme and notes it fits in under 100 lines —
// as does this implementation. Buffer bounds (quota, relay TTL) live in
// the storage engine, so the scheme itself is pure policy-free flooding.
type Epidemic struct {
	noHooks
	view StoreView
}

var _ Scheme = (*Epidemic)(nil)

// NewEpidemic builds the scheme over a store view.
func NewEpidemic(view StoreView, _ Options) *Epidemic {
	return &Epidemic{view: view}
}

// Name implements Scheme.
func (e *Epidemic) Name() string { return SchemeEpidemic }

// Wants implements Scheme: request every advertised message we lack,
// regardless of author.
func (e *Epidemic) Wants(summary map[id.UserID]uint64) []wire.Want {
	return wantsOf(e.view, summary, nil)
}
