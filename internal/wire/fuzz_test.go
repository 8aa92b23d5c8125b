package wire

import (
	"bytes"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/msg"
)

// FuzzDecodeFrame checks two codec invariants on arbitrary input: Decode
// never panics, and any frame Decode accepts survives an Encode/Decode
// round trip bit-identically (Encode ∘ Decode is the identity on the
// codec's canonical form).
func FuzzDecodeFrame(f *testing.F) {
	alice := id.NewUserID("alice")
	bob := id.NewUserID("bob")
	var nonce [NonceLen]byte
	copy(nonce[:], "0123456789abcdef")

	seedMsg := &msg.Message{
		Author:  alice,
		Seq:     7,
		Kind:    msg.KindPost,
		Created: time.Unix(1500000000, 0).UTC(),
		Payload: []byte("hello, opportunistic world"),
		CertDER: []byte{0x30, 0x03, 0x02, 0x01, 0x01},
		Sig:     []byte{0x30, 0x06, 0x02, 0x01, 0x02, 0x02, 0x01, 0x03},
	}

	seeds := []Frame{
		&Advertisement{Peer: "alice-device", Gen: 42, Summary: map[id.UserID]uint64{alice: 3, bob: 9}},
		&Hello{CertDER: []byte{0x30, 0x03, 0x02, 0x01, 0x01}, Nonce: nonce},
		&HelloAck{CertDER: []byte{0x30, 0x03, 0x02, 0x01, 0x02}, Nonce: nonce, Sig: []byte{1, 2, 3}},
		&HelloFin{Sig: []byte{4, 5, 6}},
		&Request{Wants: []Want{{Author: alice, Seqs: []uint64{1, 2, 3}}, {Author: bob, Seqs: []uint64{4}}}},
		&Batch{Msgs: []*msg.Message{seedMsg}},
		&Bye{},
		&SummaryPull{},
		&PrekeyBundle{User: bob, SignedID: 3, SignedPub: []byte("signed-point"), SignedSig: []byte{7, 8, 9}, OneTimeID: 4, OneTimePub: []byte("one-time-point")},
		// Exhausted pool: signed prekey alone.
		&PrekeyBundle{User: bob, SignedID: 3, SignedPub: []byte("signed-point"), SignedSig: []byte{7, 8, 9}},
	}
	for _, fr := range seeds {
		enc, err := Encode(fr)
		if err != nil {
			f.Fatalf("encoding %s seed: %v", fr.Type(), err)
		}
		f.Add(enc)
	}
	// The retired type byte with the body it used to carry (one ref).
	f.Add(retiredFrame(alice, 7))
	f.Add([]byte{})
	f.Add([]byte{byte(TypeAdvertisement)})
	f.Add([]byte{byte(TypeSummary)})
	f.Add([]byte{0xFF, 0x00, 0x01})
	// A hint one entry over its bound, which no encoder produces.
	f.Add(oversizeHint())

	// Chaos-shaped seeds: the frame damage a lossy, duplicating,
	// reordering radio actually manufactures (the regimes the chaos
	// medium injects in the lab).
	chaosSeeds := []Frame{
		// The in-session summary in each of its shapes: full, delta,
		// empty delta (pure scheme-gossip refresh, BaseGen == Gen), and
		// a chunked stream's first, middle and final chunk.
		&Summary{Gen: 42, Entries: entriesOf(map[id.UserID]uint64{alice: 3, bob: 9}), SchemeData: []byte("prophet")},
		&Summary{Gen: 42, BaseGen: 40, Entries: []Entry{{bob, 9}}},
		&Summary{Gen: 42, BaseGen: 42, SchemeData: []byte("prophet")},
		&Summary{Gen: 42, More: true, Entries: []Entry{{alice, 3}}, SchemeData: []byte("prophet")},
		&Summary{Gen: 42, Chunk: 2, More: true, Entries: []Entry{{bob, 9}}},
		&Summary{Gen: 42, Chunk: 3},
		// Delta claiming a base from the far past (receiver long ago
		// trimmed its change log).
		&Summary{Gen: 42, BaseGen: 1, Entries: []Entry{{alice, 3}}},
		// Continuation chunk that contradicts itself: Chunk set but More
		// promised and no entries — a truncated stream's last gasp.
		&Summary{Gen: 42, Chunk: 9, More: true},
	}
	for _, fr := range chaosSeeds {
		enc, err := Encode(fr)
		if err != nil {
			f.Fatalf("encoding %s chaos seed: %v", fr.Type(), err)
		}
		f.Add(enc)
		// Truncation at every length: a frame cut mid-air must be
		// rejected cleanly at any byte boundary.
		for cut := 1; cut < len(enc); cut += 3 {
			f.Add(enc[:cut])
		}
		// Duplication: the same frame glued to itself — trailing bytes
		// after a complete body must not panic the decoder.
		f.Add(append(append([]byte{}, enc...), enc...))
	}
	// Stale-generation deltas (BaseGen >= Gen — the shape a reordered or
	// byzantine delta arrives in) cannot be built through Encode, which
	// enforces the invariant; seed them as single-byte corruptions of a
	// valid delta so the generation fields get flipped among the rest.
	if delta, err := Encode(&Summary{Gen: 42, BaseGen: 40, Entries: []Entry{{bob, 9}}}); err == nil {
		for i := range delta {
			bad := append([]byte{}, delta...)
			bad[i] ^= 0xFF
			f.Add(bad)
		}
	}
	// A chunked continuation truncated exactly at the summary-entry
	// boundary, then with a half-written entry.
	if cont, err := Encode(&Summary{Gen: 42, Chunk: 2, More: true, Entries: entriesOf(map[id.UserID]uint64{alice: 3, bob: 9})}); err == nil {
		f.Add(cont[:len(cont)-1])
		if len(cont) > 10 {
			f.Add(cont[:len(cont)-10])
		}
	}
	// Non-canonical entry lists, which no encoder produces: two authors
	// out of order, and one author named twice.
	lo, hi := alice, bob
	if byAuthor(Entry{Author: lo}, Entry{Author: hi}) > 0 {
		lo, hi = hi, lo
	}
	f.Add(rawSummary([]Entry{{hi, 3}, {lo, 9}}))
	f.Add(rawSummary([]Entry{{lo, 3}, {lo, 9}}))
	// Prekey bundle truncated at every field boundary: after the user,
	// the signed ID, each length-prefixed byte field, and the one-time
	// ID — a bundle cut mid-air at any seam must be rejected cleanly —
	// plus single-byte corruptions so the ID and length fields skew.
	if pb, err := Encode(&PrekeyBundle{User: bob, SignedID: 3, SignedPub: []byte("signed-point"), SignedSig: []byte{7, 8, 9}, OneTimeID: 4, OneTimePub: []byte("one-time-point")}); err == nil {
		for cut := 0; cut < len(pb); cut++ {
			f.Add(pb[:cut])
		}
		for i := range pb {
			bad := append([]byte{}, pb...)
			bad[i] ^= 0xFF
			f.Add(bad)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		enc, err := Encode(fr)
		if err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", fr.Type(), err)
		}
		fr2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", fr.Type(), err)
		}
		enc2, err := Encode(fr2)
		if err != nil {
			t.Fatalf("round-tripped %s does not re-encode: %v", fr.Type(), err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s round trip not identity:\n first %x\nsecond %x", fr.Type(), enc, enc2)
		}
	})
}
