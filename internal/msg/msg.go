// Package msg defines the SOS message model. Every user action in
// AlleyOop Social — publishing a post, following or unfollowing another
// user, or sending a direct message — becomes a Message: an immutable,
// author-signed record identified by (author, sequence number). The
// per-author sequence number is the "MessageNumber" the paper's discovery
// advertisements carry (§V-A), so a browsing peer can tell at a glance
// whether an advertising peer holds anything new.
package msg

import (
	"crypto/ecdsa"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sos/internal/id"
)

// Kind enumerates the user actions a message can carry.
type Kind uint8

// Message kinds. Posts are public to subscribers; follows/unfollows are
// social-graph actions that also disseminate; directs carry an end-to-end
// sealed envelope only the subject can open.
const (
	KindPost Kind = iota + 1
	KindFollow
	KindUnfollow
	KindDirect
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindPost:
		return "post"
	case KindFollow:
		return "follow"
	case KindUnfollow:
		return "unfollow"
	case KindDirect:
		return "direct"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// valid reports whether k is a known kind.
func (k Kind) valid() bool { return k >= KindPost && k <= KindDirect }

// Ref uniquely identifies a message network-wide.
type Ref struct {
	Author id.UserID
	Seq    uint64
}

// String renders a Ref for logs.
func (r Ref) String() string {
	return fmt.Sprintf("%s#%d", r.Author, r.Seq)
}

// Codec limits. Payloads are capped to keep a single D2D transfer bounded;
// the cap is far above anything a social post needs.
const (
	MaxPayload = 1 << 20 // 1 MiB
	maxSig     = 1 << 12
	maxCert    = 1 << 16
)

// Errors reported by the codec and verification.
var (
	ErrTruncated   = errors.New("msg: truncated encoding")
	ErrOversize    = errors.New("msg: field exceeds size limit")
	ErrBadKind     = errors.New("msg: unknown message kind")
	ErrUnsigned    = errors.New("msg: message is not signed")
	ErrBadSig      = errors.New("msg: signature verification failed")
	ErrZeroAuthor  = errors.New("msg: zero author identifier")
	ErrZeroSeq     = errors.New("msg: sequence numbers start at 1")
	ErrNilMessage  = errors.New("msg: nil message")
	ErrSubjectZero = errors.New("msg: kind requires a subject user")
)

// Message is one immutable user action.
//
// All fields except Hops and CertDER are covered by the author's
// signature. Hops counts device-to-device transfers and is incremented by
// each receiving node, so it must stay outside the signed region; CertDER
// is the author's certificate, which forwarders attach so any receiver can
// verify provenance without infrastructure (paper Fig. 3b). An author
// serving its own message leaves it off: the link's handshake carried it.
//
// A node keeps one copy of each message: the store owns it, and every
// reader (store reads, OnReceive, observers, the serve path) shares it
// read-only, byte fields included. Code that needs other Hops or Budget
// values sets them on a copy of the struct.
type Message struct {
	Author  id.UserID
	Seq     uint64
	Kind    Kind
	Created time.Time
	Subject id.UserID // target of follow/unfollow/direct; zero for posts
	Payload []byte
	Sig     []byte
	CertDER []byte
	Hops    uint16

	// Budget is scheme-defined mutable routing metadata: spray-and-wait
	// stores its remaining copy allowance here. Like Hops it rides outside
	// the signed region; schemes that do not use it leave it zero.
	Budget uint16
}

// Ref returns the message's network-wide identifier.
func (m *Message) Ref() Ref {
	return Ref{Author: m.Author, Seq: m.Seq}
}

// Validate checks structural invariants independent of signatures.
func (m *Message) Validate() error {
	if m == nil {
		return ErrNilMessage
	}
	if m.Author.IsZero() {
		return ErrZeroAuthor
	}
	if m.Seq == 0 {
		return ErrZeroSeq
	}
	if !m.Kind.valid() {
		return fmt.Errorf("%w: %d", ErrBadKind, m.Kind)
	}
	if len(m.Payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrOversize, len(m.Payload))
	}
	if (m.Kind == KindFollow || m.Kind == KindUnfollow || m.Kind == KindDirect) && m.Subject.IsZero() {
		return fmt.Errorf("%w: %s", ErrSubjectZero, m.Kind)
	}
	return nil
}

// appendSigningBytes appends to buf the canonical byte string the author
// signs: every immutable field, length-prefixed, under a
// domain-separation tag. Callers pass a stack buffer, which a post fits.
func (m *Message) appendSigningBytes(buf []byte) []byte {
	buf = append(buf, "sos/msg/v1"...)
	buf = append(buf, m.Author[:]...)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = append(buf, byte(m.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Created.UnixNano()))
	buf = append(buf, m.Subject[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf
}

// Sign fills in the message signature using the author's identity, which
// must match m.Author.
func (m *Message) Sign(ident *id.Identity) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if ident.User != m.Author {
		return fmt.Errorf("msg: signing identity %s does not match author %s", ident.User, m.Author)
	}
	var stack [512]byte
	sig, err := ident.Sign(m.appendSigningBytes(stack[:0]))
	if err != nil {
		return fmt.Errorf("msg: signing: %w", err)
	}
	m.Sig = sig
	return nil
}

// VerifyWithKey checks the author signature using pub, which the caller
// obtained from a verified certificate naming m.Author (paper Fig. 3b:
// the forwarded originator certificate authenticates forwarded messages).
func (m *Message) VerifyWithKey(pub *ecdsa.PublicKey) error {
	if len(m.Sig) == 0 {
		return ErrUnsigned
	}
	var stack [512]byte
	if !id.Verify(pub, m.appendSigningBytes(stack[:0]), m.Sig) {
		return fmt.Errorf("%w: message %s", ErrBadSig, m.Ref())
	}
	return nil
}

// Clone returns a deep copy.
func (m *Message) Clone() *Message {
	if m == nil {
		return nil
	}
	cp := *m
	cp.Payload = append([]byte(nil), m.Payload...)
	cp.Sig = append([]byte(nil), m.Sig...)
	cp.CertDER = append([]byte(nil), m.CertDER...)
	return &cp
}

// Retain returns the copy a receiver keeps of a DecodeShared message: the
// payload and signature in one allocation, and cert — the caller's
// immutable copy of m.CertDER's bytes — as its certificate.
func (m *Message) Retain(cert []byte) *Message {
	cp := *m
	n := len(m.Payload)
	own := append(append(make([]byte, 0, n+len(m.Sig)), m.Payload...), m.Sig...)
	cp.Payload, cp.Sig, cp.CertDER = own[:n:n], own[n:], cert
	if n == 0 {
		cp.Payload = nil // the canonical form, as Decode gives it
	}
	return &cp
}

// encodedSize returns the exact byte length Encode produces for m, for
// pre-sizing encode buffers.
func (m *Message) encodedSize() int {
	return id.UserIDLen + 8 + 1 + 8 + id.UserIDLen + 4 + len(m.Payload) + 2 + len(m.Sig) + 4 + len(m.CertDER) + 4
}

// Encode serializes the message to its binary wire/storage form.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, m.encodedSize()))
}

// AppendEncode appends the message's binary form to buf and returns the
// extended slice, allocating only when buf lacks capacity. The wire-layer
// batch encoder uses it to serialize whole batches into one buffer.
func (m *Message) AppendEncode(buf []byte) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return buf, err
	}
	if len(m.Sig) > maxSig {
		return buf, fmt.Errorf("%w: signature %d bytes", ErrOversize, len(m.Sig))
	}
	if len(m.CertDER) > maxCert {
		return buf, fmt.Errorf("%w: certificate %d bytes", ErrOversize, len(m.CertDER))
	}
	buf = append(buf, m.Author[:]...)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = append(buf, byte(m.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Created.UnixNano()))
	buf = append(buf, m.Subject[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Sig)))
	buf = append(buf, m.Sig...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.CertDER)))
	buf = append(buf, m.CertDER...)
	buf = binary.BigEndian.AppendUint16(buf, m.Hops)
	buf = binary.BigEndian.AppendUint16(buf, m.Budget)
	return buf, nil
}

// Decode parses a message from its binary form. The returned message owns
// its field slices; buf may be reused afterwards.
func Decode(buf []byte) (*Message, error) {
	return decode(buf, false)
}

// DecodeShared parses a message whose Payload, Sig, and CertDER alias
// buf instead of being copied out. It exists for the wire batch decode
// hot path, where the decoded messages live only until the receiving
// frame callback returns; callers that keep a shared message past buf's
// lifetime must Retain (or Clone) it.
func DecodeShared(buf []byte) (*Message, error) {
	return decode(buf, true)
}

func decode(buf []byte, share bool) (*Message, error) {
	var m Message
	r := reader{buf: buf, share: share}
	r.userID(&m.Author)
	m.Seq = r.uint64()
	m.Kind = Kind(r.byte())
	m.Created = time.Unix(0, int64(r.uint64())).UTC()
	r.userID(&m.Subject)
	m.Payload = r.bytes(int(r.uint32()), MaxPayload)
	m.Sig = r.bytes(int(r.uint16()), maxSig)
	m.CertDER = r.bytes(int(r.uint32()), maxCert)
	m.Hops = r.uint16()
	m.Budget = r.uint16()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("msg: %d trailing bytes", len(r.buf))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// reader is a cursor over an encoded message with sticky errors. With
// share set, variable-length fields alias the input instead of copying.
type reader struct {
	buf   []byte
	share bool
	err   error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, len(r.buf))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) userID(dst *id.UserID) {
	if b := r.take(id.UserIDLen); b != nil {
		copy(dst[:], b)
	}
}

func (r *reader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) uint16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *reader) uint32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) uint64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *reader) bytes(n, limit int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > limit {
		r.err = fmt.Errorf("%w: length %d (limit %d)", ErrOversize, n, limit)
		return nil
	}
	if n == 0 {
		return nil // canonical form: empty fields decode to nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	if r.share {
		return b
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
