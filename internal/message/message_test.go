package message

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
)

func fixture(t *testing.T) (Config, *cloud.Credentials) {
	t.Helper()
	ca, err := pki.NewCA("root")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	svc := cloud.New(ca)
	creds, err := cloud.Bootstrap(svc, "owner", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := store.New(creds.Ident.User)
	rm, err := routing.NewManager(st, routing.Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, time.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	return Config{Store: st, Routing: rm, Verifier: verifier}, creds
}

func TestNewValidation(t *testing.T) {
	cfg, _ := fixture(t)
	broken := cfg
	broken.Store = nil
	if _, err := New(broken); err == nil {
		t.Error("nil store accepted")
	}
	broken = cfg
	broken.Routing = nil
	if _, err := New(broken); err == nil {
		t.Error("nil routing accepted")
	}
	broken = cfg
	broken.Verifier = nil
	if _, err := New(broken); err == nil {
		t.Error("nil verifier accepted")
	}
	if _, err := New(cfg); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAdvertiseRequiresBind(t *testing.T) {
	cfg, _ := fixture(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Advertise(); !errors.Is(err, ErrNotBound) {
		t.Errorf("Advertise before Bind: err = %v, want ErrNotBound", err)
	}
}

func TestVerifyEnforcesProvenance(t *testing.T) {
	cfg, creds := fixture(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	good := &msg.Message{
		Author:  creds.Ident.User,
		Seq:     1,
		Kind:    msg.KindPost,
		Created: time.Now(),
		Payload: []byte("authentic"),
		CertDER: creds.Cert.DER,
	}
	if err := good.Sign(creds.Ident); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if certs := m.verify(nil, []*msg.Message{good}); certs[0] == nil {
		t.Error("authentic message rejected")
	}

	// Tampered payload: author signature fails.
	tampered := good.Clone()
	tampered.Payload = []byte("forged")

	// Wrong certificate: names a different user than the author.
	misattributed := good.Clone()
	misattributed.Author = id.NewUserID("other") // cert still names owner
	misattributed.Seq = 1

	// No certificate: the link's handshake certificate stands in, which
	// names the author here, and another author's message fails on it.
	bare := good.Clone()
	bare.CertDER = nil
	bareOther := misattributed.Clone()
	bareOther.CertDER = nil

	// One batch: each verdict stays with its own message.
	batch := []*msg.Message{tampered, good, misattributed, bare, good, bareOther}
	certs := m.verify(creds.Cert.DER, batch)
	for i, want := range []bool{false, true, false, true, true, false} {
		if got := certs[i] != nil; got != want {
			t.Errorf("batch[%d] accepted = %v, want %v", i, got, want)
		}
	}
	if certs := m.verify(nil, []*msg.Message{bare}); certs[0] != nil {
		t.Error("a message without a certificate verified with none on the link")
	}
}

// TestVerifyAllocBudget pins verify on a batch of one whose certificate
// the verifier remembers: what it allocates is the ECDSA check's own
// (10 times on go1.24), as the signed bytes are built on the stack; a
// heap buffer per check shows as 11.
func TestVerifyAllocBudget(t *testing.T) {
	cfg, creds := fixture(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	post := &msg.Message{Author: creds.Ident.User, Seq: 1, Kind: msg.KindPost, Created: time.Now(), Payload: []byte("a post")}
	if err := post.Sign(creds.Ident); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	batch := []*msg.Message{post}
	allocs := testing.AllocsPerRun(200, func() {
		if m.verify(creds.Cert.DER, batch)[0] == nil {
			t.Fatal("authentic message rejected")
		}
	})
	if allocs > 10 {
		t.Errorf("verify of one message: %.1f allocs, want at most 10", allocs)
	}
}

func TestActiveLinksEmpty(t *testing.T) {
	cfg, _ := fixture(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := m.ActiveLinks(); len(got) != 0 {
		t.Errorf("ActiveLinks = %v, want empty", got)
	}
	if got := m.Stats(); got != (Stats{}) {
		t.Errorf("fresh Stats = %+v, want zero", got)
	}
}
