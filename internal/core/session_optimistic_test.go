package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// equalMappings reports whether two mappings of the same environment
// place every guest on the same host and route every link over the same
// path.
func equalMappings(a, b *mapping.Mapping) bool {
	if len(a.GuestHost) != len(b.GuestHost) || len(a.LinkPath) != len(b.LinkPath) {
		return false
	}
	for g := range a.GuestHost {
		if a.GuestHost[g] != b.GuestHost[g] {
			return false
		}
	}
	for l := range a.LinkPath {
		pa, pb := a.LinkPath[l], b.LinkPath[l]
		if len(pa.Edges) != len(pb.Edges) || len(pa.Nodes) != len(pb.Nodes) {
			return false
		}
		for i := range pa.Edges {
			if pa.Edges[i] != pb.Edges[i] {
				return false
			}
		}
		for i := range pa.Nodes {
			if pa.Nodes[i] != pb.Nodes[i] {
				return false
			}
		}
	}
	return true
}

// TestSessionOptimisticMatchesSerialized drives two sessions on the same
// cluster through the same single-worker admission sequence — one on the
// optimistic path, one forced onto the serialized fallback — and demands
// byte-identical placements and routings, admission after admission.
// With one worker the optimistic path must be indistinguishable from the
// old locked pipeline.
func TestSessionOptimisticMatchesSerialized(t *testing.T) {
	_, opt := sessionFixture(t)
	_, ser := sessionFixture(t)
	ser.optimisticRetries = 0 // every Map serializes

	envs := make([]*virtual.Env, 6)
	for i := range envs {
		envs[i] = smallEnv(int64(100+i), 24)
	}
	var optMaps, serMaps []*mapping.Mapping
	for i, v := range envs {
		mo, so, errO := opt.MapWithStats(v)
		ms, ss, errS := ser.MapWithStats(v)
		if (errO == nil) != (errS == nil) {
			t.Fatalf("env %d: optimistic err=%v, serialized err=%v", i, errO, errS)
		}
		if errO != nil {
			continue
		}
		if so.Fallback || so.Conflicts != 0 {
			t.Fatalf("env %d: single-worker optimistic admission took fallback=%v conflicts=%d", i, so.Fallback, so.Conflicts)
		}
		if !ss.Fallback {
			t.Fatalf("env %d: retries=0 session did not report fallback", i)
		}
		if !equalMappings(mo, ms) {
			t.Fatalf("env %d: optimistic and serialized mappings diverge", i)
		}
		optMaps = append(optMaps, mo)
		serMaps = append(serMaps, ms)
	}
	// Interleave a release and re-check the paths still agree.
	if len(optMaps) > 1 {
		if err := opt.Release(optMaps[0]); err != nil {
			t.Fatal(err)
		}
		if err := ser.Release(serMaps[0]); err != nil {
			t.Fatal(err)
		}
		v := smallEnv(999, 24)
		mo, _, errO := opt.MapWithStats(v)
		ms, _, errS := ser.MapWithStats(v)
		if (errO == nil) != (errS == nil) {
			t.Fatalf("post-release: optimistic err=%v, serialized err=%v", errO, errS)
		}
		if errO == nil && !equalMappings(mo, ms) {
			t.Fatal("post-release mappings diverge")
		}
	}
	po, ps := opt.ResidualProc(), ser.ResidualProc()
	for i := range po {
		if po[i] != ps[i] {
			t.Fatalf("host %d: residual CPU diverges: %v vs %v", i, po[i], ps[i])
		}
	}
}

// TestSessionFallbackAfterRetryExhaustion forces retry exhaustion and
// checks the admission still succeeds via the serialized path rather
// than being rejected.
func TestSessionFallbackAfterRetryExhaustion(t *testing.T) {
	_, s := sessionFixture(t)
	s.optimisticRetries = 0
	m, st, err := s.MapWithStats(smallEnv(3, 30))
	if err != nil {
		t.Fatalf("Map with exhausted retries failed: %v", err)
	}
	if !st.Fallback {
		t.Fatal("AdmitStats.Fallback not set on the serialized path")
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("fallback mapping invalid: %v", err)
	}
	if got := s.AdmissionStats().Fallbacks; got != 1 {
		t.Fatalf("Fallbacks = %d, want 1", got)
	}
}

// TestSessionConcurrentNoSpuriousRejection hammers one session from many
// goroutines with environments the cluster can comfortably co-host. No
// admission may fail — a conflict must resolve by retry or by the
// serialized fallback, never by rejection — and every committed mapping
// must satisfy the paper's Eq. (1)-(9) (mapping.Validate) plus the
// session-level bandwidth conservation across all tenants. Run with
// -race; this is the contention stress test for the optimistic pipeline.
func TestSessionConcurrentNoSpuriousRejection(t *testing.T) {
	_, s := sessionFixture(t)
	const workers = 8
	const perWorker = 4

	var mu sync.Mutex
	var admitted []*mapping.Mapping
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Small environments: all workers*perWorker fit at once.
				v := smallEnv(int64(w*1000+i), 8)
				m, st, err := s.MapWithStats(v)
				if err != nil {
					errs <- fmt.Errorf("worker %d env %d: spurious rejection: %w (conflicts=%d fallback=%v)", w, i, err, st.Conflicts, st.Fallback)
					return
				}
				if err := m.Validate(cluster.VMMOverhead{}); err != nil {
					errs <- fmt.Errorf("worker %d env %d: committed mapping violates Eq. (1)-(9): %w", w, i, err)
					return
				}
				mu.Lock()
				admitted = append(admitted, m)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(admitted) != workers*perWorker {
		t.Fatalf("admitted %d environments, want %d", len(admitted), workers*perWorker)
	}

	// Session-level conservation: summing every tenant's bandwidth
	// demand per edge must match what the ledger handed out, and no
	// residual may be negative.
	s.mu.Lock()
	net := s.c.Net()
	demand := make([]float64, net.NumEdges())
	for m := range s.active {
		for l, p := range m.LinkPath {
			for _, eid := range p.Edges {
				demand[eid] += m.Env.Link(l).BW
			}
		}
	}
	for e := 0; e < net.NumEdges(); e++ {
		res := s.led.ResidualBandwidth(e)
		if res < 0 {
			s.mu.Unlock()
			t.Fatalf("edge %d: negative residual bandwidth %v", e, res)
		}
		if got, want := res+demand[e], net.Edge(e).Bandwidth; got < want-1e-6 || got > want+1e-6 {
			s.mu.Unlock()
			t.Fatalf("edge %d: residual %v + demand %v != installed %v", e, res, demand[e], want)
		}
	}
	s.mu.Unlock()

	// Releasing everything must restore the pristine residuals.
	before, err := cluster.NewLedger(s.c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range admitted {
		if err := s.Release(m); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ResidualProc()
	want := before.ResidualProcAll()
	for i := range got {
		// Concurrent admissions commit in nondeterministic order, so the
		// float64 sums may differ in the last ulps; only the value matters.
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("host %d: residual CPU %v after full release, want %v", i, got[i], want[i])
		}
	}
}

// TestSessionARCacheInvalidation checks that repeated admissions reuse
// the cached Dijkstra tables, that FailLink invalidates them via the
// topology generation, and that RestoreLink returns to the permanently
// warm generation-0 tables.
func TestSessionARCacheInvalidation(t *testing.T) {
	c, s := sessionFixture(t)
	v := smallEnv(42, 24)

	m, err := s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st0 := s.AdmissionStats()
	if st0.ARCacheMisses == 0 {
		t.Fatal("first admission recorded no AR cache misses")
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}

	// Same environment, same topology: the tables must come from cache.
	m, err = s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.AdmissionStats()
	if st1.ARCacheMisses != st0.ARCacheMisses {
		t.Fatalf("warm admission recomputed tables: misses %d -> %d", st0.ARCacheMisses, st1.ARCacheMisses)
	}
	if st1.ARCacheHits <= st0.ARCacheHits {
		t.Fatalf("warm admission recorded no AR cache hits: %d -> %d", st0.ARCacheHits, st1.ARCacheHits)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}

	// Nothing is deployed, so failing any link evicts nothing — but the
	// generation bump must still flush the cache.
	const failed = 0
	if c.Net().NumEdges() == 0 {
		t.Fatal("fixture has no physical links")
	}
	if _, err := s.FailLink(failed); err != nil {
		t.Fatal(err)
	}
	m, err = s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s.AdmissionStats()
	if st2.ARCacheMisses <= st1.ARCacheMisses {
		t.Fatalf("post-FailLink admission served stale tables: misses %d -> %d", st1.ARCacheMisses, st2.ARCacheMisses)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}

	// Restoring the link returns the topology to generation 0, whose
	// tables survive failure epochs permanently: the next admission must
	// hit the pristine cache, not rebuild it.
	if err := s.RestoreLink(failed); err != nil {
		t.Fatal(err)
	}
	m, err = s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st3 := s.AdmissionStats()
	if st3.ARCacheMisses != st2.ARCacheMisses {
		t.Fatalf("post-RestoreLink admission rebuilt pristine tables: misses %d -> %d", st2.ARCacheMisses, st3.ARCacheMisses)
	}
	if st3.ARCacheHits <= st2.ARCacheHits {
		t.Fatalf("post-RestoreLink admission recorded no cache hits: %d -> %d", st2.ARCacheHits, st3.ARCacheHits)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("mapping after restore invalid: %v", err)
	}
}

// TestSessionConflictRetryCommits provokes genuine conflicts: a slow
// mapper whose admissions always overlap a committed release, so the
// version check fails and the Txn validate-and-commit path must carry
// the admission.
func TestSessionConflictRetryCommits(t *testing.T) {
	_, s := sessionFixture(t)

	seedM, err := s.Map(smallEnv(7, 8))
	if err != nil {
		t.Fatal(err)
	}

	// Wrap the mapper to rendezvous: while the next Map is between
	// snapshot and commit, the main goroutine commits a release,
	// guaranteeing a version change.
	gate := make(chan struct{})
	release := make(chan struct{})
	s.mapper = &gatedMapper{sessionMapper: s.mapper, gate: gate, release: release}

	done := make(chan error, 1)
	var got AdmitStats
	go func() {
		_, st, err := s.MapWithStats(smallEnv(8, 8))
		got = st
		done <- err
	}()
	<-gate // mapper is mid-pipeline, off-lock
	if err := s.Release(seedM); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("conflicted admission rejected: %v", err)
	}
	if s.AdmissionStats().OptimisticCommits != 2 {
		t.Fatalf("OptimisticCommits = %d, want 2 (the conflicted admission must commit via Txn, not retry)", s.AdmissionStats().OptimisticCommits)
	}
	if got.Conflicts != 0 || got.Fallback {
		t.Fatalf("stats = %+v, want a first-attempt Txn commit", got)
	}
}

// gatedMapper signals on gate the first time its pipeline starts —
// after the admission took its snapshot — and then blocks until release
// is closed; later runs pass straight through.
type gatedMapper struct {
	sessionMapper
	gate    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedMapper) stages() (HMN, *Consolidator) {
	g.once.Do(func() {
		g.gate <- struct{}{}
		<-g.release
	})
	return g.sessionMapper.stages()
}
