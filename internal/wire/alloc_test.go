package wire

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/msg"
)

// Allocation budgets for the codec hot path. AppendEncode into a
// pre-grown buffer must not allocate at all for any frame type: a
// summary's entries are already in wire order, and the hint sorts its at
// most MaxHintEntries entries on the stack. Decode budgets are regression
// guards: they admit exactly the allocations the decoded representation
// needs (frame struct, the hint's map, one entry slice per summary, field
// copies, shared-alias batch messages) and nothing more. "advertisement" is the discovery hint; the in-session
// Summary rows are "summary" (full, with gossip) and, named like the
// Ads*Sent counters that count them, "advertisement-delta" and
// "advertisement-chunked".
func allocFrames() map[string]Frame {
	author := id.NewUserID("alloc-author")
	other := id.NewUserID("alloc-other")
	var nonce [NonceLen]byte
	copy(nonce[:], "0123456789abcdef")
	batch := &Batch{}
	for seq := uint64(1); seq <= 16; seq++ {
		batch.Msgs = append(batch.Msgs, &msg.Message{
			Author: author, Seq: seq, Kind: msg.KindPost,
			Created: time.Unix(1491472800, 0).UTC(), Payload: make([]byte, 200),
			Sig: make([]byte, 70), CertDER: make([]byte, 500),
		})
	}
	return map[string]Frame{
		"advertisement": &Advertisement{
			Peer: "alice-device", Gen: 12,
			Summary: map[id.UserID]uint64{author: 3, other: 9},
		},
		"summary": &Summary{
			Gen:        12,
			Entries:    entriesOf(map[id.UserID]uint64{author: 3, other: 9}),
			SchemeData: []byte("gossip"),
		},
		"advertisement-delta": &Summary{
			Gen: 12, BaseGen: 10,
			Entries: []Entry{{other, 9}},
		},
		"advertisement-chunked": &Summary{
			Gen: 12, Chunk: 1, More: true,
			Entries: entriesOf(map[id.UserID]uint64{author: 3, other: 9}),
		},
		"hello":        &Hello{CertDER: make([]byte, 500), Nonce: nonce},
		"hello-ack":    &HelloAck{CertDER: make([]byte, 500), Nonce: nonce, Sig: make([]byte, 70)},
		"hello-fin":    &HelloFin{Sig: make([]byte, 70)},
		"request":      &Request{Wants: []Want{{Author: author, Seqs: []uint64{1, 2, 3}}, {Author: other, Seqs: []uint64{9}}}},
		"batch":        batch,
		"bye":          &Bye{},
		"summary-pull": &SummaryPull{},
	}
}

func TestAppendEncodeAllocBudget(t *testing.T) {
	for name, frame := range allocFrames() {
		t.Run(name, func(t *testing.T) {
			buf := GetBuffer()
			defer buf.Free()
			// Warm the buffer so capacity growth is not billed to the loop.
			enc, err := AppendEncode(buf.B[:0], frame)
			if err != nil {
				t.Fatalf("AppendEncode: %v", err)
			}
			buf.B = enc
			got := testing.AllocsPerRun(200, func() {
				var err error
				buf.B, err = AppendEncode(buf.B[:0], frame)
				if err != nil {
					t.Fatalf("AppendEncode: %v", err)
				}
			})
			if got > 0 {
				t.Errorf("AppendEncode(%s) = %.1f allocs/op, budget 0", name, got)
			}
		})
	}
}

func TestDecodeAllocBudget(t *testing.T) {
	// What each decoded representation irreducibly needs:
	//   advertisement: frame + peer-name string + summary map (2)
	//   summary:       frame + entry slice (+ scheme-data copy)
	//   request:       frame + wants slice + per-want seq slices
	//   batch:         frame + msgs slice + one struct per message
	//                  (fields alias the input — the zero-copy win)
	budgets := map[string]float64{
		"advertisement":         4,
		"summary":               3,
		"advertisement-delta":   2,
		"advertisement-chunked": 2,
		"hello":                 2,
		"hello-ack":             3,
		"hello-fin":             2,
		"request":               5,
		"batch":                 18,
		"bye":                   1,
		"summary-pull":          1,
	}
	for name, frame := range allocFrames() {
		t.Run(name, func(t *testing.T) {
			enc, err := Encode(frame)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got := testing.AllocsPerRun(200, func() {
				if _, err := Decode(enc); err != nil {
					t.Fatalf("Decode: %v", err)
				}
			})
			if budget := budgets[name]; got > budget {
				t.Errorf("Decode(%s) = %.1f allocs/op, budget %.1f", name, got, budget)
			}
		})
	}
}

// ascendingEntries returns n summary entries in author order.
func ascendingEntries(n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		binary.BigEndian.PutUint32(entries[i].Author[id.UserIDLen-4:], uint32(i))
		entries[i].Seq = uint64(i + 1)
	}
	return entries
}

// TestReleasedSummaryAllocBudget: a summary chunk decoded after the last
// one was released refills its entry slice, so decoding costs only the
// frame struct.
func TestReleasedSummaryAllocBudget(t *testing.T) {
	enc, err := Encode(&Summary{Gen: 9, More: true, Entries: ascendingEntries(4096)})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got := testing.AllocsPerRun(200, func() {
		f, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		Release(f)
	})
	if got > 1 {
		t.Errorf("Decode+Release(4096-entry summary) = %.1f allocs/op, budget 1", got)
	}
}

// TestReleaseKeepsNoHostileSlice: Release pools no entry slice past
// maxPooledEntries, and a summary without entries decodes them as nil
// whatever the pool holds.
func TestReleaseKeepsNoHostileSlice(t *testing.T) {
	for _, n := range []int{MaxSummaryEntries, 8} {
		enc, err := Encode(&Summary{Gen: 9, Entries: ascendingEntries(n)})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		f, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		Release(f)
	}
	for _, n := range []int{8, 0} {
		enc, err := Encode(&Summary{Gen: 9, Entries: ascendingEntries(n)})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		f, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		got := f.(*Summary).Entries
		if cap(got) > maxPooledEntries {
			t.Fatalf("decoded %d entries into a pooled slice of cap %d, bound %d", n, cap(got), maxPooledEntries)
		}
		if !slices.Equal(got, ascendingEntries(n)) || (n == 0) != (got == nil) {
			t.Fatalf("decoded %d entries as %d (nil %t)", n, len(got), got == nil)
		}
		Release(f)
	}
}

func TestWriteFrameAllocBudget(t *testing.T) {
	frame := make([]byte, 4096)
	// Warm the pool.
	if err := WriteFrame(discard{}, frame); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(discard{}, frame); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	})
	if got > 0 {
		t.Errorf("WriteFrame = %.1f allocs/op, budget 0", got)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
