package cloud

import (
	"path/filepath"
	"strings"
	"testing"

	"sos/internal/id"
	"sos/internal/pki"
)

func TestCredentialsRoundTrip(t *testing.T) {
	ca, err := pki.NewCA("Test Root")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(ca)
	creds, err := Bootstrap(svc, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "alice.creds")
	if err := SaveCredentials(creds, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCredentials(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Handle != "alice" {
		t.Fatalf("handle = %q, want alice", got.Handle)
	}
	if got.Ident.User != creds.Ident.User {
		t.Fatalf("user = %s, want %s", got.Ident.User, creds.Ident.User)
	}
	if !got.Ident.Key.PublicKey.Equal(creds.Ident.Public()) {
		t.Fatal("reloaded key does not match")
	}
	if got.Cert.Serial != creds.Cert.Serial {
		t.Fatalf("certificate serial changed across reload")
	}

	// The reloaded identity must still sign verifiably under the
	// certified key.
	sig, err := got.Ident.Sign([]byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	if !id.Verify(creds.Cert.Key, []byte("probe"), sig) {
		t.Fatal("reloaded identity's signature does not verify under the original certificate")
	}
}

func TestCredentialsRejectsTampering(t *testing.T) {
	ca, err := pki.NewCA("Test Root")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(ca)
	creds, err := Bootstrap(svc, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := creds.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// A certificate from a different root must be rejected at load time.
	otherCA, err := pki.NewCA("Evil Root")
	if err != nil {
		t.Fatal(err)
	}
	otherSvc := New(otherCA)
	otherCreds, err := Bootstrap(otherSvc, "alice2", nil)
	if err != nil {
		t.Fatal(err)
	}
	otherData, err := otherCreds.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var mixed string = string(data)
	// Swap in the other file's certificate block wholesale via JSON
	// surgery: replace the cert_pem value.
	mixed = strings.Replace(mixed, extractField(t, string(data), "cert_pem"), extractField(t, string(otherData), "cert_pem"), 1)
	if _, err := unmarshalCredentials([]byte(mixed)); err == nil {
		t.Fatal("credentials with a foreign certificate accepted")
	}

	if _, err := unmarshalCredentials([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// extractField pulls the raw JSON string value of one field.
func extractField(t *testing.T, doc, field string) string {
	t.Helper()
	idx := strings.Index(doc, `"`+field+`": "`)
	if idx < 0 {
		t.Fatalf("field %s not found", field)
	}
	start := idx + len(field) + 5
	end := strings.Index(doc[start:], `",`)
	if end < 0 {
		end = strings.Index(doc[start:], `"`)
	}
	return doc[start : start+end]
}
