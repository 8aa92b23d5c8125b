package message

import (
	"sos/internal/id"
	"sos/internal/wire"
)

// mergeAd is the apply rule for every in-session summary (a full
// summary's chunk 0 first empties the view and sets recvGen to its Gen):
// it folds the frame into view and returns the peer generation the view
// now reflects, plus whether the frame exposed a gap only a full summary
// can close. No lock, no I/O.
//
// Entries are monotone high-water marks (store.Engine.MaxSeq never
// lowers), so summaries form a join-semilattice and every frame merges
// raise-only: duplicates, reorderings and stragglers from a cancelled
// stream commute, and no frame can lower an entry.
//
// A frame builds on its BaseGen — a continuation chunk on its stream's
// Gen. A base at or below recvGen is an overlap: harmless, and the view
// now reaches max(recvGen, Gen). A base above recvGen is a gap: the
// entries are still merged (they are true), but recvGen stays put so the
// gap stays visible and the caller should ask for a full summary.
func mergeAd(view map[id.UserID]uint64, recvGen uint64, sum *wire.Summary) (newGen uint64, gap bool) {
	for _, e := range sum.Entries {
		if e.Seq > view[e.Author] {
			view[e.Author] = e.Seq
		}
	}
	base := sum.BaseGen
	if base == 0 {
		base = sum.Gen
	}
	if base > recvGen {
		return recvGen, true
	}
	return max(recvGen, sum.Gen), false
}
