package main

import (
	"path/filepath"
	"testing"
)

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
