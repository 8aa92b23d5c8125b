// Command sosctl computes the social-graph statistics the evaluation
// reports (paper §VI-A). Credentials come from `sosd provision`, the one
// provisioning command.
//
// Usage:
//
//	sosctl graph [-edges file]    §VI-A stats (default: deployment graph)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"sos/internal/socialgraph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sosctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: sosctl graph [flags]")
	}
	if args[0] != "graph" {
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return graphStats(args[1:])
}

// graphStats prints the §VI-A metrics for the deployment graph or an edge
// list file ("from to" per line, 1-based).
func graphStats(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	edges := fs.String("edges", "", "edge list file (default: built-in deployment graph)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *socialgraph.Graph
	if *edges == "" {
		g = socialgraph.Deployment()
		fmt.Println("graph: built-in 10-node deployment digraph")
	} else {
		loaded, err := loadEdges(*edges)
		if err != nil {
			return err
		}
		g = loaded
		fmt.Printf("graph: %s\n", *edges)
	}
	stats := socialgraph.ComputeStats(g)
	fmt.Printf("nodes:                 %d\n", stats.Nodes)
	fmt.Printf("directed edges:        %d\n", stats.DirectedEdges)
	fmt.Printf("density:               %.3f\n", stats.Density)
	fmt.Printf("undirected edges:      %d\n", stats.UndirectedEdges)
	fmt.Printf("avg path length:       %.3f\n", stats.AvgPathLength)
	fmt.Printf("diameter:              %d\n", stats.Diameter)
	fmt.Printf("radius:                %d\n", stats.Radius)
	fmt.Printf("center (1-based):      %v\n", stats.Center)
	fmt.Printf("transitivity:          %.3f\n", stats.Transitivity)
	fmt.Printf("strongly connected:    %v\n", stats.StronglyConnected)
	return nil
}

// loadEdges parses "from to" pairs (1-based node ids).
func loadEdges(path string) (*socialgraph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type edge struct{ from, to int }
	var list []edge
	maxNode := 0
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var from, to int
		if _, err := fmt.Sscanf(text, "%d %d", &from, &to); err != nil {
			return nil, fmt.Errorf("%s:%d: %q: %w", path, line, text, err)
		}
		list = append(list, edge{from: from, to: to})
		if from > maxNode {
			maxNode = from
		}
		if to > maxNode {
			maxNode = to
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := socialgraph.New(maxNode)
	for _, e := range list {
		if err := g.AddEdge(e.from-1, e.to-1); err != nil {
			return nil, err
		}
	}
	return g, nil
}
