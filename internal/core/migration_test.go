package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// migrationFixture primes a 4-host uniform torus (1000 MIPS, 1024 MB,
// 1000 GB) with filler reservations so the residual-CPU vector is
// h0=400, h1=900, h2=800, h3=770+h3Extra, and a single-guest env (proc
// 240, mem gMem) assigned to h0. h3Mem inflates the filler memory on h3
// (to block it as a destination when gMem is large).
func migrationFixture(t *testing.T, gMem, h3Mem int64) (*cluster.Ledger, *virtual.Env, []graph.NodeID, []graph.NodeID) {
	t.Helper()
	c := mustTorus(t, uniformSpecs(4, 1000, 1024, 1000), 2, 2)
	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	h := c.HostNodes()
	fill := func(node graph.NodeID, proc float64, mem int64) {
		t.Helper()
		if err := led.ReserveGuest(node, proc, mem, 10); err != nil {
			t.Fatal(err)
		}
	}
	fill(h[0], 360, 10)
	fill(h[1], 100, 10)
	fill(h[2], 200, 10)
	fill(h[3], 230, h3Mem)

	v := virtual.NewEnv()
	v.AddGuest("g0", 240, gMem, 10)
	if err := led.ReserveGuest(h[0], 240, gMem, 10); err != nil {
		t.Fatal(err)
	}
	return led, v, []graph.NodeID{h[0]}, h
}

// sabotageHook returns a proc hook that, the first time any residual-CPU
// mutation fires it, quarantines block and reserves extra load on slow —
// exactly between the Fits check on a migration destination and the
// ReserveGuest that commits it. It models the interference window the
// destination-order snapshot in migrateScoped guards against: the
// quarantine makes the in-flight reserve fail, and the extra load
// re-sorts a live host index mid-scan.
func sabotageHook(t *testing.T, led *cluster.Ledger, inner func(int), block, slow graph.NodeID) func(int) {
	fired := false
	return func(i int) {
		if inner != nil {
			inner(i)
		}
		if fired {
			return
		}
		fired = true
		led.Quarantine(block)
		if err := led.ReserveGuest(slow, 35, 10, 10); err != nil {
			t.Errorf("sabotage reserve: %v", err)
		}
	}
}

// TestMigrateSnapshotSurvivesMidScanReserveFailure is the regression
// test for the destination-order aliasing bug: when a destination's
// reserve fails after its Fits check passed (here: a quarantine landing
// inside the release/reserve window), the scan must continue with the
// next candidate of the order it started from, even though the failed
// attempt's release/re-reserve and the interfering load re-sorted the
// live host index in place. Before the per-attempt snapshot, the range
// continued positionally over the permuted live slice.
func TestMigrateSnapshotSurvivesMidScanReserveFailure(t *testing.T) {
	// gMem 600 with only 214 MB free on h3 keeps h3 out of every scan, so
	// the outcome is a single pinned move.
	led, v, assign, h := migrationFixture(t, 600, 800)
	hi := newHostIndex(led, true, nil)
	defer led.SetProcHook(nil)
	led.SetProcHook(sabotageHook(t, led, hi.fix, h[1], h[2]))

	var trace []moveStep
	moves := migrate(led, v, assign, LoadResidualMIPS, 0, ScopeMostLoaded, hi, false, &trace, nil)

	// Scan order at the start of the attempt: h1 (900), h2 (800), h3,
	// h0. h1 improves, its reserve fails under the quarantine; the next
	// snapshot candidate h2 must receive the guest (h3 never fits the
	// 600 MB guest, and moving back to h0 does not improve).
	want := []moveStep{{guest: 0, from: h[0], to: h[2]}}
	if moves != 1 || !slices.Equal(trace, want) {
		t.Fatalf("moves=%d trace=%v, want 1 move %v", moves, trace, want)
	}
	if assign[0] != h[2] {
		t.Fatalf("guest landed on node %d, want h2=%d", assign[0], h[2])
	}
	// Ledger consistency after the failed attempt: the victim's resources
	// are accounted exactly once, on h2.
	wantRes := map[graph.NodeID]float64{h[0]: 640, h[1]: 900, h[2]: 525, h[3]: 770}
	for node, want := range wantRes {
		if got := led.ResidualProc(node); got != want {
			t.Errorf("residual(%d) = %v, want %v", node, got, want)
		}
	}
	if got := led.ResidualMem(h[2]); got != 1024-10-10-600 {
		t.Errorf("residual mem on h2 = %d, want %d", got, 1024-10-10-600)
	}
}

// TestMigrateLiveIndexMatchesUnindexedUnderMidScanChurn drives the same
// mid-scan interference through both destination sources — the live host
// index and the per-attempt sort — and requires identical move
// sequences, assignments and residuals. The per-attempt sort is
// snapshot-semantics by construction, so any divergence means the live
// index leaked a mid-scan permutation into the iteration.
func TestMigrateLiveIndexMatchesUnindexedUnderMidScanChurn(t *testing.T) {
	// gMem 100 fits everywhere: after the injected failure the move
	// cascades (h0→h2, then h2→h3), exercising the scan across rounds.
	ledA, v, assignA, h := migrationFixture(t, 100, 10)
	hiA := newHostIndex(ledA, true, nil)
	defer ledA.SetProcHook(nil)
	ledA.SetProcHook(sabotageHook(t, ledA, hiA.fix, h[1], h[2]))
	var traceA []moveStep
	movesA := migrate(ledA, v, assignA, LoadResidualMIPS, 0, ScopeMostLoaded, hiA, false, &traceA, nil)

	ledB, _, assignB, _ := migrationFixture(t, 100, 10)
	ledB.SetProcHook(sabotageHook(t, ledB, nil, h[1], h[2]))
	defer ledB.SetProcHook(nil)
	var traceB []moveStep
	movesB := migrate(ledB, v, assignB, LoadResidualMIPS, 0, ScopeMostLoaded, nil, false, &traceB, nil)

	if movesA != movesB || !slices.Equal(traceA, traceB) {
		t.Fatalf("live index diverged from per-attempt sort:\n indexed   %d moves %v\n unindexed %d moves %v",
			movesA, traceA, movesB, traceB)
	}
	if !slices.Equal(assignA, assignB) {
		t.Fatalf("assignments diverge: %v vs %v", assignA, assignB)
	}
	if !slices.Equal(ledA.ResidualProcAll(), ledB.ResidualProcAll()) {
		t.Fatalf("residuals diverge: %v vs %v", ledA.ResidualProcAll(), ledB.ResidualProcAll())
	}
	want := []moveStep{{guest: 0, from: h[0], to: h[2]}, {guest: 0, from: h[2], to: h[3]}}
	if !slices.Equal(traceA, want) {
		t.Fatalf("trace %v, want %v", traceA, want)
	}
}

// TestQuickMigrateExactMatchesIncrementalSequences pins the exact
// (full-recompute) and incremental (running Σx/Σx²) stage-2 modes to
// identical move *sequences* on random workloads — not merely final
// objectives within a tolerance. The shared ImprovementEps threshold is
// what makes this hold: without it, FP noise near zero lets one mode
// accept a move the other rejects, and the sequences fork.
func TestQuickMigrateExactMatchesIncrementalSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nHosts := 3 + rng.Intn(6)
		specs := workload.GenerateHosts(workload.ClusterParams{
			Hosts:   nHosts,
			ProcMin: 500, ProcMax: 3000,
			MemMin: 512, MemMax: 4096,
			StorMin: 100, StorMax: 1000,
		}, rng)
		c, err := topology.Star(specs, 1000, 5)
		if err != nil {
			return false
		}
		v := workload.GenerateEnv(workload.VirtualParams{
			Guests:  1 + rng.Intn(3*nHosts),
			Density: rng.Float64() * 0.4,
			ProcMin: 10, ProcMax: 200,
			MemMin: 16, MemMax: 256,
			StorMin: 1, StorMax: 50,
			BWMin: 0.1, BWMax: 5,
			LatMin: 20, LatMax: 80,
		}, rng)

		// Deliberately unbalanced initial placement: each guest goes to
		// the first fitting host from a random start, so stage 2 has real
		// work to do.
		ledA, err := cluster.NewLedger(c, cluster.VMMOverhead{})
		if err != nil {
			return false
		}
		hosts := c.HostNodes()
		assignA := make([]graph.NodeID, v.NumGuests())
		for g := 0; g < v.NumGuests(); g++ {
			guest := v.Guest(virtual.GuestID(g))
			start := rng.Intn(len(hosts))
			placed := false
			for k := 0; k < len(hosts) && !placed; k++ {
				n := hosts[(start+k)%len(hosts)]
				if ledA.Fits(n, guest.Mem, guest.Stor) {
					if err := ledA.ReserveGuest(n, guest.Proc, guest.Mem, guest.Stor); err != nil {
						return false
					}
					assignA[g] = n
					placed = true
				}
			}
			if !placed {
				return true // infeasible draw; nothing to compare
			}
		}
		ledB := ledA.Clone()
		assignB := slices.Clone(assignA)
		scope := ScopeMostLoaded
		if seed%2 == 0 {
			scope = ScopeAllHosts
		}

		var incTrace, exactTrace []moveStep
		incMoves := migrate(ledA, v, assignA, LoadResidualMIPS, 0, scope, nil, false, &incTrace, nil)
		exactMoves := migrate(ledB, v, assignB, LoadResidualMIPS, 0, scope, nil, true, &exactTrace, nil)
		if incMoves != exactMoves || !slices.Equal(incTrace, exactTrace) {
			t.Logf("seed %d: incremental %d moves %v, exact %d moves %v",
				seed, incMoves, incTrace, exactMoves, exactTrace)
			return false
		}
		return slices.Equal(assignA, assignB)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConsolidateIndexedMatchesNil checks that consolidation with a
// live host index attached reaches the same assignments, emptied count
// and residuals as the hi == nil path on random workloads: the best-fit
// receiver key (slack, node) is a total order, so walking the index's
// slice instead of ranging the onHost map must not change the winner.
func TestQuickConsolidateIndexedMatchesNil(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nHosts := 3 + rng.Intn(6)
		specs := workload.GenerateHosts(workload.ClusterParams{
			Hosts:   nHosts,
			ProcMin: 500, ProcMax: 3000,
			MemMin: 512, MemMax: 4096,
			StorMin: 100, StorMax: 1000,
		}, rng)
		c, err := topology.Star(specs, 1000, 5)
		if err != nil {
			return false
		}
		v := workload.GenerateEnv(workload.VirtualParams{
			Guests:  1 + rng.Intn(2*nHosts),
			Density: rng.Float64() * 0.3,
			ProcMin: 10, ProcMax: 100,
			MemMin: 16, MemMax: 512,
			StorMin: 1, StorMax: 50,
			BWMin: 0.1, BWMax: 5,
			LatMin: 20, LatMax: 80,
		}, rng)

		ledA, err := cluster.NewLedger(c, cluster.VMMOverhead{})
		if err != nil {
			return false
		}
		hosts := c.HostNodes()
		assignA := make([]graph.NodeID, v.NumGuests())
		for g := 0; g < v.NumGuests(); g++ {
			guest := v.Guest(virtual.GuestID(g))
			start := rng.Intn(len(hosts))
			placed := false
			for k := 0; k < len(hosts) && !placed; k++ {
				n := hosts[(start+k)%len(hosts)]
				if ledA.Fits(n, guest.Mem, guest.Stor) {
					if err := ledA.ReserveGuest(n, guest.Proc, guest.Mem, guest.Stor); err != nil {
						return false
					}
					assignA[g] = n
					placed = true
				}
			}
			if !placed {
				return true
			}
		}
		ledB := ledA.Clone()
		assignB := slices.Clone(assignA)

		hi := newHostIndex(ledA, true, nil)
		emptiedA := consolidate(ledA, v, assignA, 0, hi)
		ledA.SetProcHook(nil)
		emptiedB := consolidate(ledB, v, assignB, 0, nil)

		if emptiedA != emptiedB || !slices.Equal(assignA, assignB) {
			t.Logf("seed %d: indexed emptied %d -> %v, nil emptied %d -> %v",
				seed, emptiedA, assignA, emptiedB, assignB)
			return false
		}
		return slices.Equal(ledA.ResidualProcAll(), ledB.ResidualProcAll())
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
