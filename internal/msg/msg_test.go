package msg

import (
	"bytes"
	"crypto/rand"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"sos/internal/id"
)

func newIdentity(t *testing.T, handle string) *id.Identity {
	t.Helper()
	ident, err := id.NewIdentity(id.NewUserID(handle), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	return ident
}

func newPost(t *testing.T, ident *id.Identity, seq uint64, text string) *Message {
	t.Helper()
	m := &Message{
		Author:  ident.User,
		Seq:     seq,
		Kind:    KindPost,
		Created: time.Date(2017, 4, 6, 10, 0, 0, 0, time.UTC),
		Payload: []byte(text),
	}
	if err := m.Sign(ident); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return m
}

func TestKindString(t *testing.T) {
	tests := []struct {
		give Kind
		want string
	}{
		{KindPost, "post"},
		{KindFollow, "follow"},
		{KindUnfollow, "unfollow"},
		{KindDirect, "direct"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestRefString(t *testing.T) {
	alice := id.NewUserID("alice")
	r := Ref{Author: alice, Seq: 7}
	want := alice.String() + "#7"
	if got := r.String(); got != want {
		t.Errorf("Ref.String() = %q, want %q", got, want)
	}
}

func TestSignAndVerify(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 1, "hello world")

	if err := m.VerifyWithKey(alice.Public()); err != nil {
		t.Errorf("VerifyWithKey: %v", err)
	}

	mallory := newIdentity(t, "mallory")
	if err := m.VerifyWithKey(mallory.Public()); !errors.Is(err, ErrBadSig) {
		t.Errorf("verify under wrong key: err = %v, want ErrBadSig", err)
	}
}

func TestVerifyTamperedPayload(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 1, "original")
	m.Payload = []byte("tampered")
	if err := m.VerifyWithKey(alice.Public()); !errors.Is(err, ErrBadSig) {
		t.Errorf("tampered payload: err = %v, want ErrBadSig", err)
	}
}

func TestVerifyUnsigned(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := &Message{Author: alice.User, Seq: 1, Kind: KindPost, Created: time.Now()}
	if err := m.VerifyWithKey(alice.Public()); !errors.Is(err, ErrUnsigned) {
		t.Errorf("unsigned: err = %v, want ErrUnsigned", err)
	}
}

func TestSignRejectsWrongIdentity(t *testing.T) {
	alice := newIdentity(t, "alice")
	bob := newIdentity(t, "bob")
	m := &Message{Author: alice.User, Seq: 1, Kind: KindPost, Created: time.Now()}
	if err := m.Sign(bob); err == nil {
		t.Error("signing with mismatched identity accepted")
	}
}

func TestHopsExcludedFromSignature(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 1, "travels far")
	m.Hops = 5
	m.Budget = 8
	if err := m.VerifyWithKey(alice.Public()); err != nil {
		t.Errorf("routing metadata mutation broke the signature: %v", err)
	}
}

func TestValidate(t *testing.T) {
	alice := id.NewUserID("alice")
	bob := id.NewUserID("bob")
	now := time.Now()
	tests := []struct {
		name    string
		give    *Message
		wantErr error
	}{
		{
			name:    "valid post",
			give:    &Message{Author: alice, Seq: 1, Kind: KindPost, Created: now},
			wantErr: nil,
		},
		{
			name:    "zero author",
			give:    &Message{Seq: 1, Kind: KindPost, Created: now},
			wantErr: ErrZeroAuthor,
		},
		{
			name:    "zero seq",
			give:    &Message{Author: alice, Kind: KindPost, Created: now},
			wantErr: ErrZeroSeq,
		},
		{
			name:    "bad kind",
			give:    &Message{Author: alice, Seq: 1, Kind: 0, Created: now},
			wantErr: ErrBadKind,
		},
		{
			name:    "follow without subject",
			give:    &Message{Author: alice, Seq: 1, Kind: KindFollow, Created: now},
			wantErr: ErrSubjectZero,
		},
		{
			name:    "follow with subject",
			give:    &Message{Author: alice, Seq: 1, Kind: KindFollow, Created: now, Subject: bob},
			wantErr: nil,
		},
		{
			name:    "nil message",
			give:    nil,
			wantErr: ErrNilMessage,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if tt.wantErr == nil && err != nil {
				t.Errorf("Validate: %v, want nil", err)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate: %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 42, "round trip me")
	m.CertDER = []byte("pretend-cert")
	m.Hops = 3

	buf, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n give %+v\n got  %+v", m, got)
	}
	// The signature must still verify after the round trip.
	if err := got.VerifyWithKey(alice.Public()); err != nil {
		t.Errorf("decoded message signature: %v", err)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	alice := id.NewUserID("alice")
	bob := id.NewUserID("bob")
	f := func(seq uint64, payload []byte, hops uint16, sig []byte) bool {
		if seq == 0 {
			seq = 1
		}
		if len(sig) > maxSig {
			sig = sig[:maxSig]
		}
		// Zero-length fields decode to nil (canonical form), so normalize
		// the inputs the same way before comparing.
		if len(payload) == 0 {
			payload = nil
		}
		if len(sig) == 0 {
			sig = nil
		}
		m := &Message{
			Author:  alice,
			Seq:     seq,
			Kind:    KindDirect,
			Created: time.Unix(0, 1491472800000000000).UTC(),
			Subject: bob,
			Payload: payload,
			Sig:     sig,
			Hops:    hops,
			Budget:  hops ^ 0x5aa5,
		}
		buf, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 1, "will be cut")
	buf, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, cut := range []int{0, 1, 9, len(buf) / 2, len(buf) - 1} {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 1, "x")
	buf, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(append(buf, 0xde, 0xad)); err == nil {
		t.Error("Decode with trailing bytes succeeded")
	}
}

func TestDecodeOversizePayloadLength(t *testing.T) {
	// Hand-craft a header claiming a payload larger than MaxPayload.
	alice := id.NewUserID("alice")
	buf := make([]byte, 0, 64)
	buf = append(buf, alice[:]...)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 1) // seq
	buf = append(buf, byte(KindPost))
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)        // created
	buf = append(buf, make([]byte, id.UserIDLen)...) // subject
	buf = append(buf, 0xff, 0xff, 0xff, 0xff)        // absurd payload length
	if _, err := Decode(buf); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize decode: err = %v, want ErrOversize", err)
	}
}

func TestEncodeRejectsOversizePayload(t *testing.T) {
	alice := id.NewUserID("alice")
	m := &Message{
		Author:  alice,
		Seq:     1,
		Kind:    KindPost,
		Created: time.Now(),
		Payload: make([]byte, MaxPayload+1),
	}
	if _, err := m.Encode(); !errors.Is(err, ErrOversize) {
		t.Errorf("Encode oversize: err = %v, want ErrOversize", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 1, "clone me")
	cp := m.Clone()
	cp.Payload[0] = 'X'
	cp.Hops = 9
	if bytes.Equal(m.Payload, cp.Payload) {
		t.Error("clone shares payload storage")
	}
	if m.Hops == cp.Hops {
		t.Error("clone shares hops")
	}
	if (*Message)(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

// retained keeps Retain's result on the heap, as a receiver's store does.
var retained *Message

// TestRetainOutlivesTheFrame pins the one copy a receiver keeps of a
// DecodeShared message: payload and signature survive the frame buffer's
// reuse in one allocation beside the struct, and the certificate is the
// caller's bytes, not a copy.
func TestRetainOutlivesTheFrame(t *testing.T) {
	alice := newIdentity(t, "alice")
	m := newPost(t, alice, 1, "kept past the frame")
	m.CertDER = []byte("certificate bytes")
	m.Hops, m.Budget = 2, 4
	frame, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	shared, err := DecodeShared(frame)
	if err != nil {
		t.Fatalf("DecodeShared: %v", err)
	}
	cert := bytes.Clone(m.CertDER)
	kept := shared.Retain(cert)
	clear(frame) // the link reuses its decode scratch
	if !bytes.Equal(kept.Payload, m.Payload) || !bytes.Equal(kept.Sig, m.Sig) {
		t.Errorf("kept payload %q / sig %x, want %q / %x", kept.Payload, kept.Sig, m.Payload, m.Sig)
	}
	if kept.Ref() != m.Ref() || kept.Hops != 2 || kept.Budget != 4 || !kept.Created.Equal(m.Created) {
		t.Errorf("kept header %+v, want %+v", kept, m)
	}
	if &kept.CertDER[0] != &cert[0] {
		t.Error("Retain copied the certificate instead of taking the caller's bytes")
	}
	kept.Payload = append(kept.Payload, '!')
	if !bytes.Equal(kept.Sig, m.Sig) {
		t.Error("appending to the payload overwrote the signature")
	}
	if n := testing.AllocsPerRun(100, func() { retained = shared.Retain(cert) }); n != 2 {
		t.Errorf("Retain allocates %.0f times, want 2 (struct, payload+signature)", n)
	}
	follow := &Message{Author: alice.User, Seq: 2, Kind: KindFollow, Subject: id.NewUserID("bob"), Sig: m.Sig}
	if kept := follow.Retain(nil); kept.Payload != nil {
		t.Errorf("empty payload retained as %v, want nil (the canonical form)", kept.Payload)
	}
}
