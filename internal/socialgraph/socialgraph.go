// Package socialgraph models directed social-relationship graphs and the
// metrics the paper reports for its deployment (§VI-A, Fig. 4a): density,
// shortest-path structure (average length, diameter, eccentricity,
// radius, center), and undirected transitivity. It also encodes the
// canonical 10-node deployment graph used to regenerate the paper's
// numbers.
package socialgraph

import (
	"fmt"
)

// Graph is a simple directed graph on nodes 0..n-1. An edge (i, j) means
// "user i follows user j".
type Graph struct {
	n   int
	adj [][]bool
}

// New creates an empty graph on n nodes.
func New(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{n: n, adj: adj}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the directed edge i→j. Self-loops are rejected.
func (g *Graph) AddEdge(i, j int) error {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return fmt.Errorf("socialgraph: edge (%d,%d) out of range [0,%d)", i, j, g.n)
	}
	if i == j {
		return fmt.Errorf("socialgraph: self-loop (%d,%d)", i, j)
	}
	g.adj[i][j] = true
	return nil
}

// HasEdge reports whether i follows j.
func (g *Graph) HasEdge(i, j int) bool {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return false
	}
	return g.adj[i][j]
}

// Edges returns all directed edges in (i, j) lexicographic order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if g.adj[i][j] {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// edgeCount returns the number of directed edges.
func (g *Graph) edgeCount() int {
	count := 0
	for i := range g.adj {
		for j := range g.adj[i] {
			if g.adj[i][j] {
				count++
			}
		}
	}
	return count
}

// Density returns |E| / (n·(n−1)), the fraction of possible directed
// relationships that exist.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(g.edgeCount()) / float64(g.n*(g.n-1))
}

// Undirected returns the symmetrized graph: e(i,j) implies e(j,i). The
// paper applies this conversion before computing transitivity.
func (g *Graph) Undirected() *Graph {
	u := New(g.n)
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if g.adj[i][j] {
				u.adj[i][j] = true
				u.adj[j][i] = true
			}
		}
	}
	return u
}

// distances returns the all-pairs shortest-path matrix via BFS;
// unreachable pairs hold −1.
func (g *Graph) distances() [][]int {
	dist := make([][]int, g.n)
	for src := 0; src < g.n; src++ {
		row := make([]int, g.n)
		for i := range row {
			row[i] = -1
		}
		row[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for w := 0; w < g.n; w++ {
				if g.adj[v][w] && row[w] < 0 {
					row[w] = row[v] + 1
					queue = append(queue, w)
				}
			}
		}
		dist[src] = row
	}
	return dist
}

// averagePathLength returns the mean shortest-path length over all
// reachable ordered pairs i ≠ j. On a symmetric graph this equals the
// paper's Σ l(i,j) / (n(n−1)/2) over unordered pairs.
func (g *Graph) averagePathLength() float64 {
	dist := g.distances()
	sum, count := 0, 0
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if i != j && dist[i][j] > 0 {
				sum += dist[i][j]
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// eccentricities returns, per node, the greatest finite distance to any
// other node; −1 if some node is unreachable.
func (g *Graph) eccentricities() []int {
	dist := g.distances()
	ecc := make([]int, g.n)
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if i == j {
				continue
			}
			if dist[i][j] < 0 {
				ecc[i] = -1
				break
			}
			if dist[i][j] > ecc[i] {
				ecc[i] = dist[i][j]
			}
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity (−1 if disconnected).
func (g *Graph) Diameter() int {
	max := 0
	for _, e := range g.eccentricities() {
		if e < 0 {
			return -1
		}
		if e > max {
			max = e
		}
	}
	return max
}

// Radius returns the minimum eccentricity (−1 if disconnected).
func (g *Graph) Radius() int {
	min := -1
	for _, e := range g.eccentricities() {
		if e < 0 {
			return -1
		}
		if min < 0 || e < min {
			min = e
		}
	}
	return min
}

// Center returns the nodes whose eccentricity equals the radius.
func (g *Graph) Center() []int {
	radius := g.Radius()
	if radius < 0 {
		return nil
	}
	var out []int
	for v, e := range g.eccentricities() {
		if e == radius {
			out = append(out, v)
		}
	}
	return out
}

// triangles returns the number of (unordered) triangles in the
// symmetrized graph.
func (g *Graph) triangles() int {
	u := g.Undirected()
	count := 0
	for i := 0; i < u.n; i++ {
		for j := i + 1; j < u.n; j++ {
			if !u.adj[i][j] {
				continue
			}
			for k := j + 1; k < u.n; k++ {
				if u.adj[i][k] && u.adj[j][k] {
					count++
				}
			}
		}
	}
	return count
}

// triads returns the number of connected triples (paths of length two)
// in the symmetrized graph: Σ_v C(deg(v), 2).
func (g *Graph) triads() int {
	u := g.Undirected()
	count := 0
	for v := 0; v < u.n; v++ {
		deg := 0
		for w := 0; w < u.n; w++ {
			if u.adj[v][w] {
				deg++
			}
		}
		count += deg * (deg - 1) / 2
	}
	return count
}

// Transitivity returns T(G) = 3·triangles / triads of the symmetrized
// graph — the measure "that a friend k of a friend j is also a friend of
// i" (paper §VI-A).
func (g *Graph) Transitivity() float64 {
	triads := g.triads()
	if triads == 0 {
		return 0
	}
	return 3 * float64(g.triangles()) / float64(triads)
}

// stronglyConnected reports whether every node reaches every other along
// directed edges.
func (g *Graph) stronglyConnected() bool {
	dist := g.distances()
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if i != j && dist[i][j] < 0 {
				return false
			}
		}
	}
	return true
}

// Stats bundles every §VI-A metric for reporting.
type Stats struct {
	Nodes             int
	DirectedEdges     int
	Density           float64
	UndirectedEdges   int
	AvgPathLength     float64 // on the symmetrized graph, as the paper computes
	Diameter          int
	Radius            int
	Center            []int // display (1-based) node ids
	Transitivity      float64
	StronglyConnected bool
}

// ComputeStats evaluates all §VI-A metrics of g.
func ComputeStats(g *Graph) Stats {
	und := g.Undirected()
	center := und.Center()
	display := make([]int, len(center))
	for i, v := range center {
		display[i] = v + 1
	}
	return Stats{
		Nodes:             g.N(),
		DirectedEdges:     g.edgeCount(),
		Density:           g.Density(),
		UndirectedEdges:   und.edgeCount() / 2,
		AvgPathLength:     und.averagePathLength(),
		Diameter:          und.Diameter(),
		Radius:            und.Radius(),
		Center:            display,
		Transitivity:      g.Transitivity(),
		StronglyConnected: g.stronglyConnected(),
	}
}

// deploymentMutual lists the 26 reciprocated relationship pairs of the
// deployment graph (1-based display ids), and deploymentOneWay the six
// one-way follows — including the paper's example that node 1 follows
// node 3 without being followed back. Together: 58 directed edges on 10
// nodes (density 0.64), 32 undirected pairs (average path length 1.29 ≈
// 1.3, diameter 2), hubs 6 and 7 adjacent to everyone (radius 1, center
// {6, 7}), and undirected transitivity exactly 0.80. Every §VI-A metric
// is verified in the package tests.
var (
	deploymentMutual = [][2]int{
		{1, 2}, {1, 5}, {1, 6}, {1, 7}, {1, 10},
		{2, 3}, {2, 5}, {2, 6}, {2, 7}, {2, 8},
		{3, 5}, {3, 6}, {3, 7}, {3, 8},
		{4, 6}, {4, 7}, {4, 8},
		{5, 6}, {5, 7},
		{6, 7}, {6, 8}, {6, 9}, {6, 10},
		{7, 8}, {7, 9}, {7, 10},
	}
	deploymentOneWay = [][2]int{
		{1, 3}, // the paper's explicit example
		{8, 1},
		{4, 2},
		{2, 10},
		{5, 8},
		{10, 5},
	}
)

// DeploymentSize is the number of active users in the paper's field
// study.
const DeploymentSize = 10

// Deployment returns the canonical 10-node relationship digraph of the
// Gainesville field study. Nodes are 0-indexed (display id = index + 1).
func Deployment() *Graph {
	g := New(DeploymentSize)
	for _, e := range deploymentMutual {
		mustAdd(g, e[0]-1, e[1]-1)
		mustAdd(g, e[1]-1, e[0]-1)
	}
	for _, e := range deploymentOneWay {
		mustAdd(g, e[0]-1, e[1]-1)
	}
	return g
}

// mustAdd panics on out-of-range edges; deployment data is static and
// verified by tests, so a failure is a programming error.
func mustAdd(g *Graph, i, j int) {
	if err := g.AddEdge(i, j); err != nil {
		panic(err)
	}
}
