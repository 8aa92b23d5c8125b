package main

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"sos"
	"sos/internal/pki"
)

// provision is the one command that mints credentials: each file it
// writes loads back, and its certificate verifies against its own pinned
// root for its own user and key. One run is one CA.
func TestProvisionWritesLoadableCredentials(t *testing.T) {
	dir := t.TempDir()
	if err := provision([]string{"-dir", dir, "-handles", "alice, bob"}); err != nil {
		t.Fatalf("provision: %v", err)
	}
	var roots [][]byte
	for _, handle := range []string{"alice", "bob"} {
		creds, err := sos.LoadCredentials(filepath.Join(dir, handle+".creds"))
		if err != nil {
			t.Fatalf("LoadCredentials(%s): %v", handle, err)
		}
		if creds.Handle != handle {
			t.Errorf("handle = %q, want %q", creds.Handle, handle)
		}
		v, err := pki.NewVerifier(creds.RootDER, time.Now)
		if err != nil {
			t.Fatalf("%s: NewVerifier: %v", handle, err)
		}
		cert, err := v.VerifyFor(creds.Cert.DER, creds.Ident.User)
		if err != nil {
			t.Fatalf("%s: VerifyFor: %v", handle, err)
		}
		if !cert.Key.Equal(creds.Ident.Public()) {
			t.Errorf("%s: certificate key is not the identity's key", handle)
		}
		roots = append(roots, creds.RootDER)
	}
	if !bytes.Equal(roots[0], roots[1]) {
		t.Error("one provision run pinned two roots")
	}
}

func TestStorageDirs(t *testing.T) {
	tests := []struct {
		name                      string
		kind, storeDir, credsPath string
		wantStore, wantReplay     string
		wantErr                   bool
	}{
		{name: "mem keeps nothing", kind: "mem", credsPath: "creds/alice.creds"},
		{name: "mem ignores -store-dir", kind: "mem", storeDir: "/var/sos", credsPath: "creds/alice.creds"},
		{name: "disk defaults beside the credentials", kind: "disk", credsPath: "creds/alice.creds",
			wantStore: "creds/alice.creds.store", wantReplay: filepath.Join("creds/alice.creds.store", "replay")},
		{name: "disk honours -store-dir", kind: "disk", storeDir: "/var/sos", credsPath: "creds/alice.creds",
			wantStore: "/var/sos", wantReplay: filepath.Join("/var/sos", "replay")},
		{name: "unknown engine", kind: "sqlite", credsPath: "creds/alice.creds", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			store, replay, err := storageDirs(tt.kind, tt.storeDir, tt.credsPath)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, want error: %v", err, tt.wantErr)
			}
			if store != tt.wantStore || replay != tt.wantReplay {
				t.Errorf("dirs = (%q, %q), want (%q, %q)", store, replay, tt.wantStore, tt.wantReplay)
			}
		})
	}
}
