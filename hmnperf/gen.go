package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// clusterSeed fixes the physical testbed. Every run maps onto the same
// host draw (Table 1's ranges), so --seed varies only the environments
// and the schedule, and run-to-run spread is not the spread of host
// capacities.
const clusterSeed = 1

// defaultSeed is the seed whose digests are stored in digests.json.
const defaultSeed = 1

// Input streams: each purpose draws from its own generator so adding
// draws to one never shifts another.
const (
	streamEnvs uint64 = iota + 1
	streamSchedule
	streamWarmup
	streamReference
)

// topo is a 2-D torus testbed.
type topo struct {
	Hosts   int
	LinkBW  float64 // Mbps
	LinkLat float64 // ms
}

// paperTorus is the paper's 40-host torus: 1 Gbps, 5 ms links.
var paperTorus = topo{Hosts: 40, LinkBW: workload.PhysLinkBW, LinkLat: workload.PhysLinkLat}

// scaleTorus is BENCH_scale's 100-host 10x10 torus: 10 Gbps, 1 ms links.
var scaleTorus = topo{Hosts: 100, LinkBW: 10000, LinkLat: 1}

// build draws the hosts from clusterSeed and wires the torus.
func (t topo) build() (*cluster.Cluster, error) {
	p := workload.PaperClusterParams()
	p.Hosts = t.Hosts
	specs := workload.GenerateHosts(p, rand.New(rand.NewSource(clusterSeed)))
	rows, cols := torusDims(t.Hosts)
	return topology.Torus2D(specs, rows, cols, t.LinkBW, t.LinkLat)
}

// torusDims factors n into the most square rows x cols grid (8x5 for
// 40 hosts, 10x10 for 100), as the experiment harness does.
func torusDims(n int) (rows, cols int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}

// streamRNG derives an independent generator for one input stream.
func streamRNG(seed int64, stream uint64) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z >> 1)))
}

// request is one pre-generated admission: the environment and its
// POST body.
type request struct {
	Env  *virtual.Env
	Body []byte
}

// makeRequests draws n environments from p and encodes their bodies.
func makeRequests(p workload.VirtualParams, n int, rng *rand.Rand) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		v := workload.GenerateEnv(p, rng)
		body, err := json.Marshal(server.MapEnvRequest{Env: spec.FromEnv(v)})
		if err != nil {
			return nil, fmt.Errorf("encode env %d: %w", i, err)
		}
		out[i] = request{Env: v, Body: body}
	}
	return out, nil
}

// opKind is what a scheduled operation does.
type opKind uint8

const (
	opAdmit opKind = iota
	opRelease
)

// op is one open-loop operation: admit or release request Env, due at
// Due after the run starts.
type op struct {
	Due  time.Duration
	Kind opKind
	Env  int
}

// openLoopSchedule draws Poisson admissions at rate per second over
// span, each released after an exponential lifetime of mean meanLife.
// It returns the operations in due order and the admission count.
// Releases due after span still run; the run ends when they have.
func openLoopSchedule(rate float64, meanLife, span time.Duration, rng *rand.Rand) ([]op, int) {
	var ops []op
	n := 0
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			break
		}
		life := time.Duration(rng.ExpFloat64() * float64(meanLife))
		ops = append(ops, op{Due: due, Kind: opAdmit, Env: n}, op{Due: due + life, Kind: opRelease, Env: n})
		n++
	}
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Due != b.Due {
			return a.Due < b.Due
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Env < b.Env
	})
	return ops, n
}
