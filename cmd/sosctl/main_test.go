package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeEdges drops an edge-list file into a temp dir.
func writeEdges(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("writing edge file: %v", err)
	}
	return path
}

func TestLoadEdgesValid(t *testing.T) {
	path := writeEdges(t, `# deployment excerpt
1 2
2 3

3 1
  4 1
`)
	g, err := loadEdges(path)
	if err != nil {
		t.Fatalf("loadEdges: %v", err)
	}
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 0}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
	if n := len(g.Edges()); n != 4 {
		t.Fatalf("edges = %d, want 4", n)
	}
}

func TestLoadEdgesMalformedLine(t *testing.T) {
	path := writeEdges(t, "1 2\nnot an edge\n")
	_, err := loadEdges(path)
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	// The error must point at the offending line for a usable diagnosis.
	if !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("error does not name line 2: %v", err)
	}
}

func TestLoadEdgesSelfLoop(t *testing.T) {
	path := writeEdges(t, "1 2\n2 2\n")
	_, err := loadEdges(path)
	if err == nil {
		t.Fatal("self-loop accepted")
	}
	if !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("unexpected error for self-loop: %v", err)
	}
}

func TestLoadEdgesOutOfRange(t *testing.T) {
	// Node ids are 1-based; zero and negatives fall outside the graph.
	for _, content := range []string{"0 2\n", "1 0\n", "-1 2\n", "1 -3\n"} {
		path := writeEdges(t, content)
		if _, err := loadEdges(path); err == nil {
			t.Errorf("out-of-range edge list %q accepted", content)
		}
	}
}

func TestLoadEdgesMissingFile(t *testing.T) {
	if _, err := loadEdges(filepath.Join(t.TempDir(), "absent.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadEdgesEmptyFile(t *testing.T) {
	// A file with no edges builds an empty graph rather than erroring:
	// the stats printer then reports zero nodes.
	path := writeEdges(t, "# only comments\n\n")
	g, err := loadEdges(path)
	if err != nil {
		t.Fatalf("loadEdges: %v", err)
	}
	if g.N() != 0 || len(g.Edges()) != 0 {
		t.Fatalf("empty file produced %d nodes, %d edges", g.N(), len(g.Edges()))
	}
}
