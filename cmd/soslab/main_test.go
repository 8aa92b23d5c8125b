package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeedFlagOverridesSpecSeed: the random graph preset draws its edges
// from the spec seed, so -seed must reach the spec before anything is
// derived from it. soslab -seed 5 on a file that says seed 1 writes the
// report of the same file saying seed 5.
func TestSeedFlagOverridesSpecSeed(t *testing.T) {
	dir := t.TempDir()
	spec := func(seed string) string {
		path := filepath.Join(dir, "seed"+seed+".json")
		raw := `{"name": "seed-flag", "nodes": 8, "graph": "random", "degree": 2, "posts": 6,
			"duration": "30m", "seed": ` + seed + `,
			"mobility": {"areaW": 200, "areaH": 200, "speedMin": 1, "speedMax": 3}}`
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	report := func(args ...string) []byte {
		out := filepath.Join(dir, "report.json")
		if err := run(append([]string{"-q", "-mode", "sim", "-out", out}, args...)); err != nil {
			t.Fatalf("soslab %s: %v", strings.Join(args, " "), err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	overridden := report("-spec", spec("1"), "-seed", "5")
	if want := report("-spec", spec("5")); !bytes.Equal(overridden, want) {
		t.Error("-seed 5 on a seed-1 spec wrote another report than the spec with seed 5")
	}
	if unchanged := report("-spec", spec("1")); bytes.Equal(overridden, unchanged) {
		t.Error("-seed 5 wrote the seed-1 report")
	}
}
