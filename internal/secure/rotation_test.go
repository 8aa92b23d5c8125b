package secure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"sos/internal/clock"
)

var sessionEpoch0 = time.Unix(1700000000, 0)

// newPairCfg is newPair with per-side configuration — the deterministic
// harness every rotation test runs on.
func newPairCfg(t *testing.T, cfgA, cfgB SessionConfig) (*Session, *Session) {
	t.Helper()
	a, b := newKey(t), newKey(t)
	ctx := []byte("handshake-transcript")
	sa, err := NewSessionWithConfig(a, &b.PublicKey, ctx, cfgA)
	if err != nil {
		t.Fatalf("NewSessionWithConfig(a): %v", err)
	}
	sb, err := NewSessionWithConfig(b, &a.PublicKey, ctx, cfgB)
	if err != nil {
		t.Fatalf("NewSessionWithConfig(b): %v", err)
	}
	return sa, sb
}

func frameEpoch(t *testing.T, frame []byte) uint32 {
	t.Helper()
	if len(frame) < EpochHeaderLen {
		t.Fatalf("frame of %d bytes has no header", len(frame))
	}
	return binary.BigEndian.Uint32(frame)
}

func TestSessionRotationAtEpochBoundary(t *testing.T) {
	ca, cb := clock.NewVirtual(sessionEpoch0), clock.NewVirtual(sessionEpoch0)
	recA, recB := &StatsRecorder{}, &StatsRecorder{}
	period := DefaultRotationPeriod
	sa, sb := newPairCfg(t,
		SessionConfig{Clock: ca, Stats: recA},
		SessionConfig{Clock: cb, Stats: recB},
	)

	f0, err := sa.Seal([]byte("epoch zero"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if e := frameEpoch(t, f0); e != 0 {
		t.Fatalf("first frame epoch = %d, want 0", e)
	}
	if _, err := sb.Open(f0, nil); err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Just short of the boundary: no rotation.
	ca.Advance(period - time.Second)
	if rotated, err := sa.maybeRotate(); err != nil || rotated {
		t.Fatalf("maybeRotate before boundary = %v, %v; want false, nil", rotated, err)
	}
	// Across the boundary: exactly one rotation, idempotent after.
	ca.Advance(2 * time.Second)
	if rotated, err := sa.maybeRotate(); err != nil || !rotated {
		t.Fatalf("maybeRotate at boundary = %v, %v; want true, nil", rotated, err)
	}
	if rotated, _ := sa.maybeRotate(); rotated {
		t.Fatal("second maybeRotate rotated again inside one epoch")
	}
	if send := sa.sendEpoch; send != 1 {
		t.Fatalf("send epoch after rotation = %d, want 1", send)
	}
	if got := recA.Read().Rotations; got != 1 {
		t.Fatalf("sender rotations stat = %d, want 1", got)
	}

	f1, err := sa.Seal([]byte("epoch one"), nil)
	if err != nil {
		t.Fatalf("Seal after rotation: %v", err)
	}
	if e := frameEpoch(t, f1); e != 1 {
		t.Fatalf("post-rotation frame epoch = %d, want 1", e)
	}
	cb.Advance(period + time.Second)
	plain, err := sb.Open(f1, nil)
	if err != nil {
		t.Fatalf("Open post-rotation frame: %v", err)
	}
	if string(plain) != "epoch one" {
		t.Fatalf("Open = %q, want %q", plain, "epoch one")
	}
	if recv := sb.recvMax; recv != 1 {
		t.Fatalf("receiver epoch after adoption = %d, want 1", recv)
	}
	if got := recB.Read().Rotations; got != 1 {
		t.Fatalf("receiver rotations stat = %d, want 1", got)
	}
}

// TestSessionRotationOnSealCadence checks the amortized clock read: with
// no explicit maybeRotate call, a sender crossing an epoch boundary
// rotates within rotateCheckEvery seals.
func TestSessionRotationOnSealCadence(t *testing.T) {
	ca, cb := clock.NewVirtual(sessionEpoch0), clock.NewVirtual(sessionEpoch0)
	period := DefaultRotationPeriod
	sa, sb := newPairCfg(t, SessionConfig{Clock: ca}, SessionConfig{Clock: cb})
	ca.Advance(period + time.Second)
	cb.Advance(period + time.Second)

	rotatedAt := -1
	for i := 0; i < rotateCheckEvery+1; i++ {
		frame, err := sa.Seal([]byte("tick"), nil)
		if err != nil {
			t.Fatalf("Seal(%d): %v", i, err)
		}
		if _, err := sb.Open(frame, nil); err != nil {
			t.Fatalf("Open(%d): %v", i, err)
		}
		if frameEpoch(t, frame) == 1 && rotatedAt < 0 {
			rotatedAt = i
		}
	}
	if rotatedAt < 0 {
		t.Fatalf("no rotation within %d seals of the epoch boundary", rotateCheckEvery+1)
	}
}

func TestSessionEpochSkewRejected(t *testing.T) {
	ca, cb := clock.NewVirtual(sessionEpoch0), clock.NewVirtual(sessionEpoch0)
	period := DefaultRotationPeriod
	sa, sb := newPairCfg(t, SessionConfig{Clock: ca}, SessionConfig{Clock: cb})

	// Sender's clock runs two epochs ahead; the receiver tolerates only
	// one epoch past its own clock.
	ca.Advance(2*period + time.Second)
	if rotated, err := sa.maybeRotate(); err != nil || !rotated {
		t.Fatalf("maybeRotate = %v, %v", rotated, err)
	}
	frame, err := sa.Seal([]byte("from the future"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if e := frameEpoch(t, frame); e != 2 {
		t.Fatalf("frame epoch = %d, want 2", e)
	}
	if _, err := sb.Open(frame, nil); !errors.Is(err, ErrEpochSkew) {
		t.Fatalf("Open two epochs ahead: err = %v, want ErrEpochSkew", err)
	}
	// One epoch of receiver clock later the same frame is within the skew
	// bound and opens (the ratchet walks epochs 1 and 2 in one step).
	cb.Advance(period + time.Second)
	if plain, err := sb.Open(frame, nil); err != nil || string(plain) != "from the future" {
		t.Fatalf("Open within skew bound = %q, %v", plain, err)
	}
}

// TestSessionOverlapWindow drives the receive side's overlap policy
// white-box: a frame from the superseded epoch opens inside the window
// and is refused (key wiped) after it.
func TestSessionOverlapWindow(t *testing.T) {
	ca, cb := clock.NewVirtual(sessionEpoch0), clock.NewVirtual(sessionEpoch0)
	period, overlap := DefaultRotationPeriod, DefaultOverlapWindow
	sa, sb := newPairCfg(t, SessionConfig{Clock: ca}, SessionConfig{Clock: cb})

	fA0, err := sa.Seal([]byte("old zero"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	fA1, err := sa.Seal([]byte("old one"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	ca.Advance(period + time.Second)
	cb.Advance(period + time.Second)
	if _, err := sa.maybeRotate(); err != nil {
		t.Fatalf("maybeRotate: %v", err)
	}
	fB, err := sa.Seal([]byte("new"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}

	// The epoch-1 frame arrives first and is adopted.
	if _, err := sb.Open(fB, nil); err != nil {
		t.Fatalf("Open adopting frame: %v", err)
	}
	// Rewind the receive watermark so the epoch-0 stragglers reach the
	// epoch check instead of the replay check (a single honest sender's
	// sequence is monotonic across epochs, so only the epoch policy —
	// not normal delivery — distinguishes these frames).
	sb.recvSeq = 0
	if plain, err := sb.Open(fA0, nil); err != nil || string(plain) != "old zero" {
		t.Fatalf("Open inside overlap = %q, %v", plain, err)
	}

	// Past the window the superseded epoch is retired and wiped.
	cb.Advance(overlap + time.Second)
	if _, err := sb.Open(fA1, nil); !errors.Is(err, ErrEpochExpired) {
		t.Fatalf("Open after overlap: err = %v, want ErrEpochExpired", err)
	}
	// The key is gone for good: retrying cannot resurrect it.
	if _, err := sb.Open(fA1, nil); !errors.Is(err, ErrEpochExpired) {
		t.Fatalf("Open retired epoch again: err = %v, want ErrEpochExpired", err)
	}
	for i := range sb.recvLive {
		if sb.recvLive[i].epoch == 0 {
			t.Fatal("epoch-0 key still live after overlap expiry")
		}
	}
}

// TestSessionSequencingEdgeCases is the table-driven AEAD sequencing
// suite: forward-jump boundaries at DefaultMaxForwardJump, replay after a
// gap, and the first-frame exemption. The jump cases place frames by
// setting the sender's next sequence, as TestSessionSeqWraparound does.
func TestSessionSequencingEdgeCases(t *testing.T) {
	const jump = DefaultMaxForwardJump
	seal := func(t *testing.T, s *Session, n int) [][]byte {
		t.Helper()
		frames := make([][]byte, n)
		for i := range frames {
			f, err := s.Seal([]byte(fmt.Sprintf("frame %d", i)), nil)
			if err != nil {
				t.Fatalf("Seal(%d): %v", i, err)
			}
			frames[i] = f
		}
		return frames
	}
	sealAt := func(t *testing.T, s *Session, seq uint64) []byte {
		t.Helper()
		s.sendSeq = seq
		return seal(t, s, 1)[0]
	}

	tests := []struct {
		name string
		run  func(t *testing.T, sa, sb *Session)
	}{
		{"jump at exact bound accepted", func(t *testing.T, sa, sb *Session) {
			f0 := sealAt(t, sa, 0)
			// recvSeq is 1 once f0 opens; this frame is exactly recvSeq+jump.
			atBound := sealAt(t, sa, 1+jump)
			if _, err := sb.Open(f0, nil); err != nil {
				t.Fatalf("Open(0): %v", err)
			}
			if _, err := sb.Open(atBound, nil); err != nil {
				t.Fatalf("Open at jump bound: %v", err)
			}
		}},
		{"jump past bound rejected", func(t *testing.T, sa, sb *Session) {
			f0 := sealAt(t, sa, 0)
			inside := sealAt(t, sa, jump-1)
			past := sealAt(t, sa, jump+2)
			if _, err := sb.Open(f0, nil); err != nil {
				t.Fatalf("Open(0): %v", err)
			}
			if _, err := sb.Open(past, nil); !errors.Is(err, ErrSeqJump) {
				t.Fatalf("Open past jump bound: err = %v, want ErrSeqJump", err)
			}
			// The channel survives the rejected frame.
			if _, err := sb.Open(inside, nil); err != nil {
				t.Fatalf("Open after rejected jump: %v", err)
			}
		}},
		{"first frame exempt from jump bound", func(t *testing.T, sa, sb *Session) {
			first := sealAt(t, sa, 2*jump)
			if _, err := sb.Open(first, nil); err != nil {
				t.Fatalf("Open far-ahead first frame: %v", err)
			}
			if _, err := sb.Open(first, nil); !errors.Is(err, ErrReplay) {
				t.Fatal("replay of the arming frame accepted")
			}
		}},
		{"replay after gap", func(t *testing.T, sa, sb *Session) {
			frames := seal(t, sa, 5)
			if _, err := sb.Open(frames[1], nil); err != nil {
				t.Fatalf("Open(1): %v", err)
			}
			if _, err := sb.Open(frames[4], nil); err != nil {
				t.Fatalf("Open(4) across gap: %v", err)
			}
			for _, i := range []int{0, 2, 3, 4} {
				if _, err := sb.Open(frames[i], nil); !errors.Is(err, ErrReplay) {
					t.Fatalf("Open(%d) after gap: err = %v, want ErrReplay", i, err)
				}
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewVirtual(sessionEpoch0)
			sa, sb := newPairCfg(t, SessionConfig{Clock: clk}, SessionConfig{Clock: clk})
			tc.run(t, sa, sb)
		})
	}
}

// TestSessionSeqWraparound pins behavior at the top of the sequence
// space: the last sequence seals and opens, the next seal reports
// exhaustion rather than wrapping the nonce.
func TestSessionSeqWraparound(t *testing.T) {
	clk := clock.NewVirtual(sessionEpoch0)
	sa, sb := newPairCfg(t,
		SessionConfig{Clock: clk},
		SessionConfig{Clock: clk},
	)
	sa.sendSeq = math.MaxUint64 - 1
	last, err := sa.Seal([]byte("the last frame"), nil)
	if err != nil {
		t.Fatalf("Seal at MaxUint64-1: %v", err)
	}
	if _, err := sa.Seal([]byte("one too many"), nil); !errors.Is(err, ErrSeqExhausted) {
		t.Fatalf("Seal at MaxUint64: err = %v, want ErrSeqExhausted", err)
	}
	if plain, err := sb.Open(last, nil); err != nil || string(plain) != "the last frame" {
		t.Fatalf("Open last sequence = %q, %v", plain, err)
	}
	if _, err := sb.Open(last, nil); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay at top of sequence space: err = %v, want ErrReplay", err)
	}
}

func TestSessionMaybeRotateClosed(t *testing.T) {
	clk := clock.NewVirtual(sessionEpoch0)
	sa, _ := newPairCfg(t, SessionConfig{Clock: clk}, SessionConfig{Clock: clk})
	sa.Close()
	sa.Close() // idempotent
	if _, err := sa.maybeRotate(); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("maybeRotate after Close: err = %v, want ErrSessionDone", err)
	}
}

// TestEpochAtBounds: a clock before the session start is epoch 0, and
// the longest elapsed time a Duration holds stays inside the uint32
// epoch space.
func TestEpochAtBounds(t *testing.T) {
	if e := epochAt(sessionEpoch0.Add(-time.Second), sessionEpoch0); e != 0 {
		t.Errorf("epochAt before start = %d, want 0", e)
	}
	want := uint32(time.Duration(math.MaxInt64) / DefaultRotationPeriod)
	if e := epochAt(sessionEpoch0.Add(math.MaxInt64), sessionEpoch0); e != want || e == math.MaxUint32 {
		t.Errorf("epochAt at the largest Duration = %d, want %d (below MaxUint32)", e, want)
	}
}

func TestZeroize(t *testing.T) {
	b := []byte{1, 2, 3, 4}
	Zeroize(b)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %d after Zeroize", i, v)
		}
	}
}

// TestChainDeterministic checks both ends of a direction derive the same
// epoch keys from the same root, including across a multi-epoch skip.
func TestChainDeterministic(t *testing.T) {
	root := []byte("0123456789abcdef0123456789abcdef")
	c1, c2 := newChain(root), newChain(root)
	k1 := c1.keyAt(3)
	// Walking 0→3 in steps lands on the same key as one jump.
	c2.keyAt(1)
	c2.keyAt(2)
	k2 := c2.keyAt(3)
	if k1 != k2 {
		t.Fatal("stepped and jumped chains diverged")
	}
	k4 := c1.keyAt(4)
	if k4 == k1 {
		t.Fatal("consecutive epochs derived the same key")
	}
}

// TestSessionStatsScopedTwoFleets runs two independently configured
// "fleets" in parallel and checks each scoped recorder counts exactly
// its own traffic.
func TestSessionStatsScopedTwoFleets(t *testing.T) {
	recs := [2]*StatsRecorder{{}, {}}
	const frames = 100

	var wg sync.WaitGroup
	for fleet := 0; fleet < 2; fleet++ {
		wg.Add(1)
		go func(rec *StatsRecorder) {
			defer wg.Done()
			clk := clock.NewVirtual(sessionEpoch0)
			sa, sb := newPairCfg(t,
				SessionConfig{Clock: clk, Stats: rec},
				SessionConfig{Clock: clk, Stats: rec},
			)
			for i := 0; i < frames; i++ {
				frame, err := sa.Seal([]byte("traffic"), nil)
				if err != nil {
					t.Errorf("Seal: %v", err)
					return
				}
				if _, err := sb.Open(frame, nil); err != nil {
					t.Errorf("Open: %v", err)
					return
				}
				// One replay rejection per fleet per frame.
				if _, err := sb.Open(frame, nil); !errors.Is(err, ErrReplay) {
					t.Errorf("replay accepted")
					return
				}
			}
		}(recs[fleet])
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, rec := range recs {
		st := rec.Read()
		if st.Seals != frames || st.Opens != frames {
			t.Errorf("fleet %d: seals/opens = %d/%d, want %d/%d", i, st.Seals, st.Opens, frames, frames)
		}
		if st.OpenFailures != frames || st.ReplayRejected != frames {
			t.Errorf("fleet %d: open failures/replays = %d/%d, want %d/%d",
				i, st.OpenFailures, st.ReplayRejected, frames, frames)
		}
	}
}

// TestSessionInterleavedBidirectional runs both directions of one
// session pair concurrently (the documented concurrency contract) with
// stragglers interleaved; meant for -race.
func TestSessionInterleavedBidirectional(t *testing.T) {
	clk := clock.NewVirtual(sessionEpoch0)
	sa, sb := newPairCfg(t, SessionConfig{Clock: clk}, SessionConfig{Clock: clk})

	pump := func(src, dst *Session, dir string) func() {
		return func() {
			for i := 0; i < 200; i++ {
				want := fmt.Sprintf("%s %d", dir, i)
				frame, err := src.Seal([]byte(want), nil)
				if err != nil {
					t.Errorf("%s Seal(%d): %v", dir, i, err)
					return
				}
				got, err := dst.Open(frame, nil)
				if err != nil {
					t.Errorf("%s Open(%d): %v", dir, i, err)
					return
				}
				if string(got) != want {
					t.Errorf("%s Open(%d) = %q, want %q", dir, i, got, want)
					return
				}
				if _, err := dst.Open(frame, nil); !errors.Is(err, ErrReplay) {
					t.Errorf("%s replay(%d) accepted", dir, i)
					return
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); pump(sa, sb, "a->b")() }()
	go func() { defer wg.Done(); pump(sb, sa, "b->a")() }()
	wg.Wait()
}

func FuzzEpochHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(EpochHeader{}.AppendEncode(nil))
	f.Add(EpochHeader{Epoch: 1, Seq: 42}.AppendEncode(nil))
	f.Add(EpochHeader{Epoch: math.MaxUint32, Seq: math.MaxUint64}.AppendEncode(nil))
	for i := 0; i < EpochHeaderLen; i++ {
		f.Add(EpochHeader{Epoch: 7, Seq: 9}.AppendEncode(nil)[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, rest, err := ParseEpochHeader(data)
		if err != nil {
			if len(data) >= EpochHeaderLen {
				t.Fatalf("ParseEpochHeader rejected %d bytes: %v", len(data), err)
			}
			return
		}
		if len(rest) != len(data)-EpochHeaderLen {
			t.Fatalf("rest = %d bytes, want %d", len(rest), len(data)-EpochHeaderLen)
		}
		re := hdr.AppendEncode(nil)
		if !bytes.Equal(re, data[:EpochHeaderLen]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:EpochHeaderLen])
		}
		hdr2, _, err := ParseEpochHeader(re)
		if err != nil || hdr2 != hdr {
			t.Fatalf("re-decode = %+v, %v; want %+v", hdr2, err, hdr)
		}
	})
}
