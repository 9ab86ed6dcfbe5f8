package graph_test

import (
	"fmt"

	"repro/internal/graph"
)

// ExampleAStarPrune routes around a narrow direct edge to maximise
// bottleneck bandwidth within a latency budget.
func ExampleAStarPrune() {
	g := graph.New(3)
	g.AddEdge(0, 2, 2, 1)  // direct, narrow
	g.AddEdge(0, 1, 10, 1) // detour, wide
	g.AddEdge(1, 2, 10, 1)

	p, ok := graph.AStarPrune(g, 0, 2, 1, 5, g.NominalBandwidth(), nil)
	fmt.Println(ok, p.Len(), p.Bottleneck(g, g.NominalBandwidth()))
	// Output:
	// true 2 10
}

// ExampleDijkstraLatency computes the ar[] admissibility table of
// Algorithm 1.
func ExampleDijkstraLatency() {
	g := graph.New(3)
	g.AddEdge(0, 1, 100, 2)
	g.AddEdge(1, 2, 100, 3)

	fmt.Println(graph.DijkstraLatency(g, 2))
	// Output:
	// [5 3 0]
}
