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
// raise-only: duplicates, reorderings and stragglers from an older
// stream commute, and no frame can lower an entry.
//
// A frame builds on its BaseGen — a continuation chunk on its stream's
// Gen. A base at or below recvGen is an overlap: harmless, and the view
// now reaches max(recvGen, Gen). A base above recvGen is a gap: the
// entries are still merged (they are true), but recvGen stays put so the
// gap stays visible and the caller should ask for a full summary.
func mergeAd(view map[id.UserID]uint64, recvGen uint64, sum *wire.Summary) (newGen uint64, gap bool) {
	foldEntries(view, sum.Entries)
	return mergeGen(recvGen, sum)
}

// foldEntries raises view's entries to entries'.
func foldEntries(view map[id.UserID]uint64, entries []wire.Entry) {
	for _, e := range entries {
		if e.Seq > view[e.Author] {
			view[e.Author] = e.Seq
		}
	}
}

// raisesOf returns a copy of the entries that would raise view, nil when
// none would: a lookup each, and no insert.
func raisesOf(view map[id.UserID]uint64, entries []wire.Entry) []wire.Entry {
	var out []wire.Entry
	for i, e := range entries {
		if e.Seq > view[e.Author] {
			if out == nil {
				out = make([]wire.Entry, 0, len(entries)-i)
			}
			out = append(out, e)
		}
	}
	return out
}

// mergeGen is mergeAd's generation half, for a frame whose entries are
// folded later.
func mergeGen(recvGen uint64, sum *wire.Summary) (newGen uint64, gap bool) {
	base := sum.BaseGen
	if base == 0 {
		base = sum.Gen
	}
	if base > recvGen {
		return recvGen, true
	}
	return max(recvGen, sum.Gen), false
}
