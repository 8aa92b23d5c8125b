package socialgraph

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := New(3)
	if g.edgeCount() != 0 || g.Density() != 0 {
		t.Errorf("empty graph edges=%d density=%f", g.edgeCount(), g.Density())
	}
	if g.Diameter() != -1 {
		t.Errorf("disconnected diameter = %d, want -1", g.Diameter())
	}
	if g.Transitivity() != 0 {
		t.Errorf("empty transitivity = %f, want 0", g.Transitivity())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directedness violated")
	}
}

func TestTriangleMetrics(t *testing.T) {
	// A triangle plus a pendant: 0-1-2-0, 2-3.
	g := New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		if err := g.AddEdge(e[1], e[0]); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if got := g.triangles(); got != 1 {
		t.Errorf("triangles = %d, want 1", got)
	}
	// Degrees: 2,2,3,1 → triads = 1+1+3+0 = 5; T = 3/5.
	if got := g.triads(); got != 5 {
		t.Errorf("triads = %d, want 5", got)
	}
	if got := g.Transitivity(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("transitivity = %f, want 0.6", got)
	}
}

func TestPathMetricsOnPath(t *testing.T) {
	// Undirected path 0-1-2.
	g := New(3)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if got := g.Diameter(); got != 2 {
		t.Errorf("diameter = %d, want 2", got)
	}
	if got := g.Radius(); got != 1 {
		t.Errorf("radius = %d, want 1", got)
	}
	if got := g.Center(); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("center = %v, want [1]", got)
	}
	// distances: (0,1)=1 (0,2)=2 (1,2)=1 → ordered mean = 8/6.
	if got := g.averagePathLength(); math.Abs(got-8.0/6.0) > 1e-12 {
		t.Errorf("avg path = %f, want %f", got, 8.0/6.0)
	}
}

func TestDirectedDistances(t *testing.T) {
	// 0→1→2, no way back.
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	dist := g.distances()
	if dist[0][2] != 2 || dist[2][0] != -1 {
		t.Errorf("distances = %v", dist)
	}
	if g.stronglyConnected() {
		t.Error("one-way chain reported strongly connected")
	}
}

// TestDeploymentMatchesPaper verifies every §VI-A statistic of the
// encoded field-study graph against the paper's reported values.
func TestDeploymentMatchesPaper(t *testing.T) {
	g := Deployment()
	stats := ComputeStats(g)

	if stats.Nodes != 10 {
		t.Errorf("n = %d, want 10", stats.Nodes)
	}
	// Density 0.64 (58 of 90 possible directed relationships).
	if stats.DirectedEdges != 58 {
		t.Errorf("directed edges = %d, want 58", stats.DirectedEdges)
	}
	if math.Abs(stats.Density-0.64) > 0.005 {
		t.Errorf("density = %.4f, want ≈ 0.64", stats.Density)
	}
	// Average shortest path length 1.3.
	if math.Abs(stats.AvgPathLength-1.3) > 0.015 {
		t.Errorf("avg path length = %.4f, want ≈ 1.3", stats.AvgPathLength)
	}
	// Diameter 2.
	if stats.Diameter != 2 {
		t.Errorf("diameter = %d, want 2", stats.Diameter)
	}
	// Radius 1 with center nodes 6 and 7.
	if stats.Radius != 1 {
		t.Errorf("radius = %d, want 1", stats.Radius)
	}
	if !reflect.DeepEqual(stats.Center, []int{6, 7}) {
		t.Errorf("center = %v, want [6 7]", stats.Center)
	}
	// Undirected transitivity 0.80 — exactly, by construction.
	if math.Abs(stats.Transitivity-0.80) > 1e-9 {
		t.Errorf("transitivity = %.6f, want 0.80", stats.Transitivity)
	}
	// The field graph must be strongly connected so every subscription is
	// servable in principle.
	if !stats.StronglyConnected {
		t.Error("deployment graph is not strongly connected")
	}
}

// TestDeploymentOneWayEdges verifies the paper's explicit example: node 1
// follows node 3, but node 3 does not follow back.
func TestDeploymentOneWayEdges(t *testing.T) {
	g := Deployment()
	if !g.HasEdge(0, 2) {
		t.Error("node 1 does not follow node 3")
	}
	if g.HasEdge(2, 0) {
		t.Error("node 3 follows node 1 back; the paper says it does not")
	}
	if len(deploymentOneWay) != 6 {
		t.Errorf("one-way edges = %d, want 6 (58 = 26·2 + 6)", len(deploymentOneWay))
	}
	for _, e := range deploymentOneWay {
		if !g.HasEdge(e[0]-1, e[1]-1) || g.HasEdge(e[1]-1, e[0]-1) {
			t.Errorf("edge %v is not one-way in the deployment graph", e)
		}
	}
}

// TestTransitivityRangeProperty: transitivity of any random graph stays
// in [0, 1].
func TestTransitivityRangeProperty(t *testing.T) {
	f := func(seed []byte) bool {
		g := New(8)
		for i, b := range seed {
			from := int(b) % 8
			to := (int(b) >> 3) % 8
			if from != to {
				_ = g.AddEdge(from, to)
			}
			if i > 40 {
				break
			}
		}
		tr := g.Transitivity()
		return tr >= 0 && tr <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDiameterBoundsProperty: for connected graphs, radius ≤ diameter ≤
// 2·radius, and the average path length is between 1 and the diameter.
func TestDiameterBoundsProperty(t *testing.T) {
	f := func(seed []byte) bool {
		g := New(7)
		// Ring guarantees connectivity; extra random chords.
		for i := 0; i < 7; i++ {
			_ = g.AddEdge(i, (i+1)%7)
			_ = g.AddEdge((i+1)%7, i)
		}
		for _, b := range seed {
			from := int(b) % 7
			to := (int(b) >> 3) % 7
			if from != to {
				_ = g.AddEdge(from, to)
				_ = g.AddEdge(to, from)
			}
		}
		r, d, avg := g.Radius(), g.Diameter(), g.averagePathLength()
		return r >= 1 && r <= d && d <= 2*r && avg >= 1 && avg <= float64(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEdgesListing(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {2, 0}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}
