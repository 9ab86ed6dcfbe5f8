package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// bulkParams is BENCH_scale's "50:1 0.004 @100h" row: 5000 low-level
// guests at density 0.004 (~50k virtual links).
var bulkParams = workload.LowLevelParams(5000, 0.004)

// bulkMinMaps is the fewest one-shot maps a bulk-torus run makes.
const bulkMinMaps = 3

// bulkInputs is the bulk-torus testbed and its three environments: the
// reference instance (drawn from the default seed, the same in every
// run, and checked against the stored digests) and two drawn from the
// run's seed.
type bulkInputs struct {
	C    *cluster.Cluster
	Reqs []request
}

func bulkSetUp(seed int64) (*bulkInputs, error) {
	c, err := scaleTorus.build()
	if err != nil {
		return nil, err
	}
	ref, err := makeRequests(bulkParams, 1, streamRNG(defaultSeed, streamReference))
	if err != nil {
		return nil, err
	}
	own, err := makeRequests(bulkParams, bulkMinMaps-1, streamRNG(seed, streamEnvs))
	if err != nil {
		return nil, err
	}
	return &bulkInputs{C: c, Reqs: append(ref, own...)}, nil
}

// runBulk maps the environments one-shot in-process, in turn, until the
// run's seconds are spent and at least bulkMinMaps maps are done.
func runBulk(r *runEnv) (*outcome, error) {
	out := newOutcome()
	var in *bulkInputs
	var setupS []float64
	for k := 0; k < setups; k++ {
		in = nil
		runtime.GC()
		t0 := time.Now()
		next, err := bulkSetUp(r.Seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		in = next
	}
	out.E2E["setup_s"] = metric{median(setupS), "s"}
	runtime.GC()

	if r.Trace {
		return out, r.traceBulk(out, in)
	}

	var wall, objs []float64
	all := newDigester()
	start := time.Now()
	for i := 0; i < bulkMinMaps || time.Since(start) < r.duration(); i++ {
		q := in.Reqs[i%len(in.Reqs)]
		t0 := time.Now()
		m, _, err := (&core.HMN{}).MapWithStats(in.C, q.Env)
		wall = append(wall, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("map %d: %w", i, err)
		}
		out.Attempted++
		out.check(m.Validate(cluster.VMMOverhead{}) == nil, "map %d does not validate", i)
		objs = append(objs, m.Objective(cluster.VMMOverhead{}))
		if i < len(in.Reqs) {
			if i == 0 {
				d := newDigester()
				d.add(m)
				bulkDigest(out, r, "bulk-torus/reference", d.sums())
			}
			all.add(m)
			if i == len(in.Reqs)-1 {
				bulkDigest(out, r, fmt.Sprintf("bulk-torus/seed-%d", r.Seed), all.sums())
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	sorted := sortedCopy(wall)
	t := tailOf(sorted, 99)
	out.E2E["admit_p50_ms"] = metric{percentile(sorted, 50) * 1000, "ms"}
	out.Extra["admit_p99_ms"] = metric{t.Value * 1000, "ms"}
	out.note("an admission here is one in-process one-shot map; admit_p99_ms is %s", t)
	out.E2E["admits_per_s"] = metric{float64(len(wall)) / elapsed, "1/s"}
	out.E2E["objective_mean"] = metric{mean(objs), "MIPS"}
	out.Extra["map_s"] = metric{percentile(sorted, 50), "s"}
	peak, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	out.E2E["mem_peak_mb"] = metric{peak, "MB"}
	return out, nil
}

// bulkDigest records a digest and checks it against the stored one.
func bulkDigest(out *outcome, r *runEnv, key string, d digests) {
	out.Digests[key] = d
	checkDigest(out, r.Root, key, d)
}

// traceBulk is the traced bulk-torus run: the stage split of the three
// maps (serial, and at RouteWorkers = nproc), then each environment
// admitted and released through the session pipeline.
func (r *runEnv) traceBulk(out *outcome, in *bulkInputs) error {
	var steps []step
	for i := range in.Reqs {
		steps = append(steps, step{Kind: opAdmit, Req: i}, step{Kind: opRelease, Adm: i})
	}
	idx := []int{0, 1, 2}
	_, ss, err := r.traceLayers(out, "bulk-torus", in.C, in.Reqs, steps, idx)
	if err != nil {
		return err
	}
	bulkDigest(out, r, "bulk-torus/reference", ss.First)
	bulkDigest(out, r, fmt.Sprintf("bulk-torus/seed-%d", r.Seed), ss.Digests)
	if replay := out.Digests[fmt.Sprintf("bulk-torus/replay/seed-%d/n-%d", r.Seed, len(in.Reqs))]; replay != ss.Digests {
		// Both validate; the session pipeline and the one-shot pipeline
		// are separate code paths, and this records where they part.
		out.note("the session replay's digests differ from the one-shot maps' (placement equal: %v)", replay.Placement == ss.Digests.Placement)
	}
	out.Attempted = 2 * len(in.Reqs)
	return nil
}

// storedDigests reads hmnperf/digests.json.
func storedDigests(root string) (map[string]digests, error) {
	b, err := os.ReadFile(filepath.Join(root, "hmnperf", "digests.json"))
	if err != nil {
		return nil, err
	}
	var m map[string]digests
	return m, json.Unmarshal(b, &m)
}

// checkDigest fails the run when a stored digest for key differs.
func checkDigest(out *outcome, root, key string, d digests) {
	stored, err := storedDigests(root)
	if err != nil {
		out.check(false, "stored digests: %v", err)
		return
	}
	want, ok := stored[key]
	if !ok {
		return
	}
	out.check(want == d, "%s: got paths %s placement %s, stored paths %s placement %s", key, d.Paths, d.Placement, want.Paths, want.Placement)
}
