package lab

import (
	"reflect"
	"strings"
	"testing"

	"sos/internal/chaos"
)

// TestSweepCells builds the cells of the committed chaos sweep without
// running a fleet: each cell is the base spec on one scheme and one
// preset, seeded by the base spec, and "none" leaves the medium bare.
func TestSweepCells(t *testing.T) {
	base, err := LoadSpec("../../examples/chaos-sweep/sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Sweep.Chaos) == 0 || len(base.Sweep.Schemes) == 0 {
		t.Fatalf("sweep.json declares no matrix: %+v", base.Sweep)
	}
	for _, scheme := range base.Sweep.Schemes {
		for _, name := range base.Sweep.Chaos {
			cell, err := cellSpec(base, scheme, name)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, name, err)
			}
			if cell.Scheme != scheme || cell.Sweep != nil || cell.Seed != base.Seed ||
				cell.Name != base.Name+"/"+scheme+"+"+name {
				t.Errorf("%s/%s: cell spec %+v", scheme, name, cell)
			}
			got, err := cell.chaosProfile()
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, name, err)
			}
			want, err := chaos.Preset(name, base.Duration.D(), base.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: profile %+v, want %+v", scheme, name, got, want)
			}
			if got.IsZero() != (name == chaos.PresetNone) {
				t.Errorf("%s/%s: wrapper %v, want one only for a preset other than none", scheme, name, !got.IsZero())
			}
		}
	}
	if _, err := parseSpec([]byte(`{"nodes": 3, "duration": "5s", "sweep": {"chaos": ["bogus"]}}`)); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown preset: err = %v, want a refusal naming it", err)
	}
	bare, err := parseSpec([]byte(`{"nodes": 3, "duration": "5s"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(bare, Options{}); err == nil || !strings.Contains(err.Error(), "sweep") {
		t.Errorf("RunSweep without a sweep block: err = %v, want a refusal naming sweep", err)
	}
}
