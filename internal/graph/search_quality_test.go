package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: when both searches find a path for the same query, A*Prune's
// bottleneck bandwidth is at least the DFS tree's (it is optimal; the
// tree search returns whatever it stumbles on first).
func TestQuickAStarDominatesDFSTreeOnBottleneck(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 3+rng.Intn(8), rng.Intn(10))
		a, b := NodeID(0), NodeID(g.NumNodes()-1)
		demand := rng.Float64() * 4
		budget := 2 + rng.Float64()*12
		bw := g.NominalBandwidth()
		pd, okD := DFSTreePath(g, a, b, demand, budget, bw, rng)
		pa, okA := AStarPrune(g, a, b, demand, budget, bw, nil)
		if okD && !okA {
			return false // A*Prune is complete; it cannot miss what DFS found
		}
		if okD && okA {
			return pa.Bottleneck(g, bw) >= pd.Bottleneck(g, bw)-1e-9
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
