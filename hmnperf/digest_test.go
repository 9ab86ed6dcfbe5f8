package main

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mapping"
)

func fixedMapping() *mapping.Mapping {
	return &mapping.Mapping{
		GuestHost: []graph.NodeID{3, 1, 3},
		LinkPath: []graph.Path{
			{Nodes: []graph.NodeID{3, 2, 1}, Edges: []int{4, 7}},
			{Nodes: []graph.NodeID{3}},
		},
	}
}

func TestDigestsArePinned(t *testing.T) {
	d := newDigester()
	d.add(fixedMapping())
	got := d.sums()
	// Pinned values: a change here changes every stored digest.
	want := digests{Paths: "dabb1bdd2b035a36", Placement: "a2cfeef110f82f87"}
	if got != want {
		t.Fatalf("digests = %+v, want %+v", got, want)
	}
	again := newDigester()
	again.add(fixedMapping())
	if again.sums() != got {
		t.Fatal("digest of the same mapping differs between digesters")
	}
}

func TestPathsDigestSeesRoutingOnly(t *testing.T) {
	base := newDigester()
	base.add(fixedMapping())

	rerouted := fixedMapping()
	rerouted.LinkPath[0].Edges = []int{4, 8}
	d := newDigester()
	d.add(rerouted)
	if d.sums().Paths == base.sums().Paths {
		t.Error("a different edge did not change paths_digest")
	}
	if d.sums().Placement != base.sums().Placement {
		t.Error("a routing change moved placement_digest")
	}

	// Length prefixes keep [4,7][] and [4][7] apart.
	split := fixedMapping()
	split.LinkPath[0].Edges = []int{4}
	split.LinkPath[1].Edges = []int{7}
	s := newDigester()
	s.add(split)
	if s.sums().Paths == base.sums().Paths {
		t.Error("moving an edge between links did not change paths_digest")
	}
}
