// Eviction policies. DTN buffer management is where delivery ratio is won
// or lost under realistic human behavior, so which message a full buffer
// drops is a first-class, pluggable decision: the store ranks victims with
// a Policy exactly the way the routing manager selects schemes. Policies
// see only Entry metadata, never payloads.

package store

import (
	"fmt"
	"time"

	"sos/internal/msg"
)

// Entry is the per-message metadata a policy ranks. Owner-authored
// messages are filtered out before policies ever see a candidate.
type Entry struct {
	Ref msg.Ref
	// Created is the author's creation timestamp.
	Created time.Time
	// StoredAt is when this node inserted the message.
	StoredAt time.Time
	// Size is the message's byte accounting.
	Size int
	// Subscribed reports whether the store's owner follows the author —
	// i.e. whether this is feed content rather than pure relay cargo.
	Subscribed bool
}

// Policy decides which message a full buffer drops, and optionally bounds
// message lifetime. Implementations must be deterministic and stateless;
// the store breaks ties by insertion order.
type Policy interface {
	// Name returns the registry name (see PolicyByName).
	Name() string
	// Less reports whether a is a better eviction victim than b.
	Less(a, b Entry) bool
	// Expired reports whether e's lifetime has ended at now. Policies
	// without expiry always return false.
	Expired(e Entry, now time.Time) bool
	// Expires reports whether Expired can ever return true, letting the
	// store skip sweeps entirely for non-expiring policies.
	Expires() bool
}

// Policy registry names.
const (
	PolicyDropOldest           = "drop-oldest"
	PolicyTTL                  = "ttl"
	PolicySizeQuota            = "size-quota"
	PolicySubscriptionPriority = "subscription-priority"
)

// PolicyByName builds a policy from its registry name. A positive ttl is
// always honoured: it parameterizes the "ttl" policy, and it adds expiry
// on top of any other named policy (so a relay TTL composes with, say,
// subscription-priority victim ranking instead of being silently
// dropped). An empty name selects "ttl" when ttl > 0 and "drop-oldest"
// otherwise, which is how a relay TTL (sosd -relay-ttl, a lab spec's
// relayTTL, the simulator's RelayTTL) maps onto the storage layer.
func PolicyByName(name string, ttl time.Duration) (Policy, error) {
	switch name {
	case "":
		if ttl > 0 {
			return TTL(ttl), nil
		}
		return DropOldest(), nil
	case PolicyDropOldest:
		return withTTL(DropOldest(), ttl), nil
	case PolicyTTL:
		if ttl <= 0 {
			return nil, fmt.Errorf("store: policy %q requires a positive ttl", name)
		}
		return TTL(ttl), nil
	case PolicySizeQuota:
		return withTTL(sizeQuota{}, ttl), nil
	case PolicySubscriptionPriority:
		return withTTL(subPriority{}, ttl), nil
	default:
		return nil, fmt.Errorf("store: unknown eviction policy %q", name)
	}
}

// withTTL layers lifetime expiry over another policy's victim ranking;
// a non-positive ttl returns the base policy unchanged.
func withTTL(base Policy, ttl time.Duration) Policy {
	if ttl <= 0 {
		return base
	}
	return expiringPolicy{Policy: base, lifetime: ttl}
}

type expiringPolicy struct {
	Policy
	lifetime time.Duration
}

func (p expiringPolicy) Expired(e Entry, now time.Time) bool {
	return now.Sub(e.Created) > p.lifetime
}
func (expiringPolicy) Expires() bool { return true }

// DropOldest evicts the message that has been buffered longest — plain
// FIFO, the classic DTN baseline.
func DropOldest() Policy { return dropOldest{} }

type dropOldest struct{}

func (dropOldest) Name() string                  { return PolicyDropOldest }
func (dropOldest) Less(a, b Entry) bool          { return a.StoredAt.Before(b.StoredAt) }
func (dropOldest) Expired(Entry, time.Time) bool { return false }
func (dropOldest) Expires() bool                 { return false }

// TTL bounds how long a node buffers *other users'* messages: a foreign
// message older (by creation time) than the lifetime is evicted at the
// next sweep, and under quota pressure the oldest-created message goes
// first. This is the real-eviction successor of the old serve-time
// RelayTTL filter; authors always keep their own messages, so old content
// remains deliverable directly from its source.
func TTL(lifetime time.Duration) Policy { return ttlPolicy{lifetime: lifetime} }

type ttlPolicy struct{ lifetime time.Duration }

func (ttlPolicy) Name() string         { return PolicyTTL }
func (ttlPolicy) Less(a, b Entry) bool { return a.Created.Before(b.Created) }
func (p ttlPolicy) Expired(e Entry, now time.Time) bool {
	return now.Sub(e.Created) > p.lifetime
}
func (ttlPolicy) Expires() bool { return true }

// sizeQuota evicts the largest message first, freeing the most buffer per
// drop — it biases the buffer toward many small social actions over few
// bulky payloads.
type sizeQuota struct{}

func (sizeQuota) Name() string { return PolicySizeQuota }
func (sizeQuota) Less(a, b Entry) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return a.StoredAt.Before(b.StoredAt)
}
func (sizeQuota) Expired(Entry, time.Time) bool { return false }
func (sizeQuota) Expires() bool                 { return false }

// subPriority evicts pure relay cargo — messages from authors the owner
// does not follow — before feed content, oldest first within each class.
// Under pressure a device degrades to interest-only carrying instead of
// dropping its own user's feed.
type subPriority struct{}

func (subPriority) Name() string { return PolicySubscriptionPriority }
func (subPriority) Less(a, b Entry) bool {
	if a.Subscribed != b.Subscribed {
		return !a.Subscribed
	}
	return a.StoredAt.Before(b.StoredAt)
}
func (subPriority) Expired(Entry, time.Time) bool { return false }
func (subPriority) Expires() bool                 { return false }
