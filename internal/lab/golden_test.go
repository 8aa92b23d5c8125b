package lab

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden reports under testdata/")

// checkGolden compares got with testdata/name byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden report; if the change is meant, rerun with -update and review the diff\ngot:\n%s", path, got)
	}
}

// TestGoldenReports pins what the reproduction prints: the Gainesville
// section of the §VI replay for two seeds, and the whole JSON report of
// the trace-replay example. A change to any layer that moves one of
// these numbers shows as a diff of the files under testdata/.
func TestGoldenReports(t *testing.T) {
	for _, seed := range []int64{7, 94117} {
		spec, err := LoadSpec("../../examples/gainesville/study.json")
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed = seed
		rep, err := Run(spec, Options{Mode: ModeSim})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var b strings.Builder
		rep.writeStudy(&b)
		if !strings.HasSuffix(rep.Summary(), b.String()) {
			t.Errorf("seed %d: Summary does not end with the Gainesville section", seed)
		}
		checkGolden(t, fmt.Sprintf("gainesville-seed%d.txt", seed), []byte(b.String()))
	}

	spec, err := LoadSpec("../../examples/trace-replay/replay.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{Mode: ModeSim})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace-replay.json", b.Bytes())
}
