package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spec"
)

// FedServer serves a shard.Federation over the hmnd wire API: tenant
// sessions open and close, environments admit and release through the
// router, and the per-shard control endpoints (fail, restore,
// rebalance, residuals) address one lock domain each. It shares Server's
// front end; an operation runs on its shard's worker instead of a queue.
type FedServer struct {
	frontEnd
	fed *shard.Federation

	mAdmitLatency *metrics.Histogram
	mWALRecords   *metrics.Counter
	mReplayRecs   *metrics.Counter
	mFsync        *metrics.Histogram
	mSnapshot     *metrics.Histogram
}

// NewFederation builds the federation server. The /v1 API answers 503
// until Recover builds (or rebuilds) the federation.
func NewFederation(cfg FedConfig) *FedServer {
	reg := metrics.NewRegistry()
	s := &FedServer{
		frontEnd: newFrontEnd(cfg, reg),
		mAdmitLatency: reg.Histogram("hmnd_shard_admit_latency_seconds",
			"Wall time of routed environment admissions (routing plus shard commit).", nil),
		mWALRecords: reg.Counter("hmnd_shard_wal_records_total",
			"Operation records appended across the per-shard write-ahead logs."),
		mReplayRecs: reg.Counter("hmnd_shard_replay_records_total",
			"Operation records replayed from the per-shard logs during recovery."),
		mFsync: reg.Histogram("hmnd_shard_wal_fsync_seconds",
			"Wall time of per-shard write-ahead log fsyncs.", nil),
		mSnapshot: reg.Histogram("hmnd_shard_snapshot_seconds",
			"Wall time of per-shard full-state snapshots.", nil),
	}
	s.replaying.Store(true)

	s.domain, s.envID = s.lookupShard, shard.EnvID
	s.mux.HandleFunc("POST /v1/sessions", s.handleOpenTenant)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}", s.handleCloseTenant)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/envs", s.handleAdmit)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}/envs/{eid}", s.handleRelease)
	s.mux.HandleFunc("GET /v1/shards", s.handleShards)
	s.route("/v1/shards/{k}")
	return s
}

// shardConfig renders cfg for the shard layer, wiring the durability
// hooks into the metrics families.
func (s *FedServer) shardConfig() shard.Config {
	return shard.Config{
		Mapper:            s.cfg.Mapper,
		Overhead:          s.cfg.Overhead,
		RouteWorkers:      s.cfg.RouteWorkers,
		GatewayBW:         s.cfg.GatewayBW,
		DataDir:           s.cfg.DataDir,
		SnapshotInterval:  s.cfg.SnapshotInterval,
		RebalanceInterval: s.cfg.RebalanceInterval,
		RebalanceMaxMoves: s.cfg.RebalanceMaxMoves,
		VerifyReplay:      s.cfg.VerifyReplay,
		QueueDepth:        s.cfg.QueueDepth,
		Logf:              s.cfg.Logf,
		Hooks: shard.Hooks{
			OnWALRecord: s.mWALRecords.Inc,
			OnFsync:     s.mFsync.Observe,
			OnSnapshot:  s.mSnapshot.Observe,
			OnReplay:    s.mReplayRecs.Inc,
		},
	}
}

// Recover builds (or rebuilds) the federation and flips the server to
// serving. A data directory that already holds federation state is
// recovered shard by shard; otherwise the shards are built fresh from
// ClusterSpecs. Must be called exactly once before traffic is served.
func (s *FedServer) Recover() error {
	var (
		fed *shard.Federation
		err error
	)
	if s.cfg.DataDir != "" && shard.HasState(s.cfg.DataDir) {
		fed, err = shard.Recover(s.shardConfig())
	} else {
		clusters := make([]*cluster.Cluster, len(s.cfg.ClusterSpecs))
		for i, cs := range s.cfg.ClusterSpecs {
			clusters[i], err = cs.ToCluster()
			if err != nil {
				return fmt.Errorf("shard %d cluster: %w", i, err)
			}
		}
		fed, err = shard.New(clusters, s.shardConfig())
	}
	if err != nil {
		return err
	}
	s.fed = fed
	s.registerFedMetrics()
	s.replaying.Store(false)
	return nil
}

// registerFedMetrics exposes the federation census as scrape-time
// callbacks, so the series can never drift from the router's counters.
func (s *FedServer) registerFedMetrics() {
	s.reg.CounterFunc("hmnd_shard_router_fallbacks_total",
		"Admissions the router placed off the hashed fast path (best fit or split).",
		func() float64 { return float64(s.fed.Stats().RouterFallbacks) })
	s.reg.CounterFunc("hmnd_shard_split_admissions_total",
		"Admissions split across shards at their lowest-bandwidth virtual links.",
		func() float64 { return float64(s.fed.Stats().SplitAdmissions) })
	s.reg.GaugeFunc("hmnd_shard_gateway_bw_in_use",
		"Inter-shard gateway bandwidth charged by deployed cut links (Mbps).",
		func() float64 { return s.fed.Stats().GatewayInUse })
	s.reg.GaugeFunc("hmnd_shard_gateway_bw_budget",
		"Configured inter-shard gateway bandwidth budget (Mbps).",
		func() float64 { return s.fed.Stats().GatewayBudget })
	s.reg.GaugeFunc("hmnd_shard_tenants",
		"Tenant sessions currently open on the federation.",
		func() float64 { return float64(s.fed.Stats().Tenants) })
	for k := 0; k < s.fed.Shards(); k++ {
		k := k
		s.reg.CounterFunc(fmt.Sprintf("hmnd_shard_admissions_total{shard=%q}", strconv.Itoa(k)),
			"Fragment admissions committed, per shard.",
			func() float64 { return float64(s.fed.Stats().Shards[k].Admissions) })
		s.reg.GaugeFunc(fmt.Sprintf("hmnd_shard_active_envs{shard=%q}", strconv.Itoa(k)),
			"Environment fragments currently deployed, per shard (occupancy).",
			func() float64 { return float64(s.fed.Stats().Shards[k].ActiveEnvs) })
		s.reg.GaugeFunc(fmt.Sprintf("hmnd_shard_residual_proc{shard=%q}", strconv.Itoa(k)),
			"Router headroom view: residual CPU per shard in MIPS, reservations deducted.",
			func() float64 { return float64(s.fed.Stats().Shards[k].ResidualProc) })
	}
}

// Federation exposes the underlying federation (for tests).
func (s *FedServer) Federation() *shard.Federation { return s.fed }

// Close stops the federation: workers drained, rebalancers stopped,
// final snapshots taken, WALs closed. Call after the HTTP listener has
// shut down so no admission is in flight.
func (s *FedServer) Close() error {
	s.draining.Store(true)
	if s.fed == nil {
		return nil
	}
	return s.fed.Close()
}

// OpenTenantResponse identifies an opened federation tenant session.
type OpenTenantResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
}

func (s *FedServer) handleOpenTenant(w http.ResponseWriter, _ *http.Request) {
	// A federation tenant carries no cluster of its own — the shards
	// were fixed at startup — so the request body is empty.
	sid, err := s.fed.OpenTenant()
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, OpenTenantResponse{ID: sid, Shards: s.fed.Shards()})
}

func (s *FedServer) handleCloseTenant(w http.ResponseWriter, r *http.Request) {
	if err := s.fed.CloseTenant(r.PathValue("sid")); err != nil {
		writeFailure(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// FragmentReport is one committed fragment of a routed admission.
type FragmentReport struct {
	Shard   int              `json:"shard"`
	Guests  []int            `json:"guests,omitempty"`
	Mapping spec.MappingSpec `json:"mapping"`
}

// FedMapEnvResponse reports a routed admission: the fragment set (one
// entry when the environment landed whole), the gateway bandwidth a
// split charged, and the routing outcome flags.
type FedMapEnvResponse struct {
	ID        string           `json:"id"`
	Fragments []FragmentReport `json:"fragments"`
	CutBW     float64          `json:"cut_bw,omitempty"`
	Split     bool             `json:"split,omitempty"`
	Fallback  bool             `json:"fallback,omitempty"`
}

func (s *FedServer) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req MapEnvRequest
	if err := spec.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	env, err := req.Env.ToEnv()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	eid, pl, err := s.fed.Admit(r.PathValue("sid"), env)
	s.mAdmitLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		writeFailure(w, err)
		return
	}
	resp := FedMapEnvResponse{ID: eid, CutBW: pl.CutBW, Split: pl.Split, Fallback: pl.Fallback}
	for _, fr := range pl.Fragments {
		rep := FragmentReport{Shard: fr.Shard, Mapping: spec.FromMapping(fr.M, s.cfg.Overhead)}
		for _, g := range fr.Guests {
			rep.Guests = append(rep.Guests, int(g))
		}
		resp.Fragments = append(resp.Fragments, rep)
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *FedServer) handleRelease(w http.ResponseWriter, r *http.Request) {
	if err := s.fed.Release(r.PathValue("sid"), r.PathValue("eid")); err != nil {
		writeFailure(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ShardReport is one shard's row of GET /v1/shards.
type ShardReport struct {
	Shard        int     `json:"shard"`
	Admissions   uint64  `json:"admissions"`
	ActiveEnvs   int     `json:"active_envs"`
	ResidualProc float64 `json:"residual_proc_mips"`
	Hosts        int     `json:"hosts"`
	Guests       int     `json:"guests"`
}

// ShardsResponse is the body of GET /v1/shards: the federation census.
type ShardsResponse struct {
	Shards          []ShardReport `json:"shards"`
	RouterFallbacks uint64        `json:"router_fallbacks"`
	SplitAdmissions uint64        `json:"split_admissions"`
	GatewayInUse    float64       `json:"gateway_bw_in_use"`
	GatewayBudget   float64       `json:"gateway_bw_budget"`
	Tenants         int           `json:"tenants"`
}

func (s *FedServer) handleShards(w http.ResponseWriter, _ *http.Request) {
	st := s.fed.Stats()
	resp := ShardsResponse{
		RouterFallbacks: st.RouterFallbacks,
		SplitAdmissions: st.SplitAdmissions,
		GatewayInUse:    st.GatewayInUse,
		GatewayBudget:   st.GatewayBudget,
		Tenants:         st.Tenants,
	}
	for k, sh := range st.Shards {
		resp.Shards = append(resp.Shards, ShardReport{
			Shard:        k,
			Admissions:   sh.Admissions,
			ActiveEnvs:   sh.ActiveEnvs,
			ResidualProc: sh.ResidualProc,
			Hosts:        sh.Summary.Hosts,
			Guests:       sh.Summary.Guests,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardDomain is one shard as the shared per-domain endpoints see it:
// every operation runs on the shard's worker, through the federation,
// which keeps its registry, router and gateway in step.
type shardDomain struct {
	s *FedServer
	k int
}

// lookupShard resolves {k} for the shared endpoints.
func (s *FedServer) lookupShard(w http.ResponseWriter, r *http.Request) (domain, bool) {
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad shard %q", r.PathValue("k")))
		return nil, false
	}
	if _, err := s.fed.Shard(k); err != nil {
		writeFailure(w, err)
		return nil, false
	}
	return shardDomain{s: s, k: k}, true
}

func (d shardDomain) session() *core.Session {
	sh, _ := d.s.fed.Shard(d.k)
	return sh.Session()
}

func (d shardDomain) overhead() cluster.VMMOverhead { return d.s.cfg.Overhead }

func (d shardDomain) fail(_ context.Context, kind string, target int) ([]core.RepairResult, error) {
	if kind == "host" {
		return d.s.fed.FailHost(d.k, graph.NodeID(target))
	}
	return d.s.fed.FailLink(d.k, target)
}

func (d shardDomain) restore(_ context.Context, kind string, target int) error {
	if kind == "host" {
		return d.s.fed.RestoreHost(d.k, graph.NodeID(target))
	}
	return d.s.fed.RestoreLink(d.k, target)
}

func (d shardDomain) rebalance(context.Context) (int, float64, float64, error) {
	return d.s.fed.RebalanceOnce(d.k)
}
