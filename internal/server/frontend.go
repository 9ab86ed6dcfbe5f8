package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spec"
)

// This file is the HTTP front end Server (hmnd) and FedServer (hmnd
// -shards) share. The two differ only in how a request names its lock
// domain — a session, {sid}, or a shard, {k} — and in how an operation
// reaches that domain: through the admission queue, or on the shard's
// worker. Everything else exists once: the configuration, the readiness
// gate, healthz, the per-domain endpoints (residuals, fail, restore,
// rebalance), the repair-report rendering and the sentinel→status table
// with its error writer.

// Config sizes either daemon. The zero value gets sensible defaults.
// Workers, QueueDepth and BatchSize size Server's admission queue;
// ClusterSpecs, Mapper, Overhead and GatewayBW build FedServer's shards.
type Config struct {
	// Workers is the size of the pool draining the admission queue;
	// defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// 503. Defaults to 64. A federation bounds each shard's operation
	// queue with it instead (default 256).
	QueueDepth int
	// BatchSize lets a worker drain up to this many queued map requests
	// for the same session in one wakeup and admit them as one
	// core.Session.MapBatch round: one snapshot, concurrent off-lock
	// mapping, one locked commit pass. 1 (and 0) disables batching;
	// per-request admission outcomes are unchanged either way.
	BatchSize int
	// RequestTimeout bounds each request end to end (queue wait
	// included). Defaults to 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Defaults to 32 MiB.
	MaxBodyBytes int64
	// DataDir enables durability: every mutating operation is logged to
	// a write-ahead log under this directory before its response is
	// acknowledged, and Recover rebuilds state from it on startup.
	// Empty disables durability (state dies with the process). A
	// federation keeps one WAL directory per shard under it.
	DataDir string
	// SnapshotInterval is the cadence of periodic full-state snapshots
	// (which truncate the log). 0 snapshots only on graceful shutdown.
	// Ignored without DataDir.
	SnapshotInterval time.Duration
	// VerifyReplay makes Recover cross-check every recovered session
	// (incremental objective vs recompute, environment registry vs
	// active set) before the daemon serves.
	VerifyReplay bool
	// RebalanceInterval enables the background rebalancer: every open
	// session (every shard) gets a scheduler that periodically plans
	// improving guest migrations off the live residuals and commits them
	// through the optimistic migrate funnel. 0 leaves the schedulers
	// one-shot; the rebalance endpoint works either way.
	RebalanceInterval time.Duration
	// RebalanceMaxMoves caps guest moves per rebalancing round (a
	// destination swap counts as two). <= 0 means unbounded: a round
	// plans until no move improves the objective.
	RebalanceMaxMoves int
	// RouteWorkers is the parallel Networking stage's worker count,
	// applied to every session's mapper (opened or recovered). <= 1
	// routes serially. Mapping output is bit-identical either way.
	RouteWorkers int
	// ClusterSpecs holds one physical cluster per shard. Ignored when
	// DataDir already holds federation state (recovery rebuilds the
	// clusters from the per-shard WALs).
	ClusterSpecs []spec.ClusterSpec
	// Mapper is the wire name applied to every shard ("" = HMN);
	// Overhead the per-host VMM overhead.
	Mapper   string
	Overhead cluster.VMMOverhead
	// GatewayBW is the inter-shard gateway budget in Mbps (0 disables
	// split admissions).
	GatewayBW float64
	// Logf receives durability warnings and recovery progress; nil
	// discards them.
	Logf func(format string, args ...interface{})
}

// FedConfig parameterizes the federation daemon; it is the one Config.
type FedConfig = Config

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// domain is one lock domain behind the per-domain endpoints: a session
// of Server or a shard of FedServer. Every operation runs where the
// domain serializes its work and is durable when it returns.
type domain interface {
	session() *core.Session
	overhead() cluster.VMMOverhead
	fail(ctx context.Context, kind string, target int) ([]core.RepairResult, error)
	restore(ctx context.Context, kind string, target int) error
	rebalance(ctx context.Context) (moves int, before, after float64, err error)
}

// frontEnd is the state and the handlers both daemons share.
type frontEnd struct {
	cfg Config
	reg *metrics.Registry
	mux *http.ServeMux

	// replaying keeps /v1 answering 503 until Recover installs the
	// recovered state; draining flips when Close starts.
	replaying atomic.Bool
	draining  atomic.Bool

	// domain resolves a request's lock domain or writes the error
	// response; envID names the environment a repair result's tag
	// belongs to.
	domain func(w http.ResponseWriter, r *http.Request) (domain, bool)
	envID  func(tag string) string
}

// newFrontEnd builds the shared front end around reg.
func newFrontEnd(cfg Config, reg *metrics.Registry) frontEnd {
	return frontEnd{cfg: cfg.withDefaults(), reg: reg, mux: http.NewServeMux()}
}

// route registers the per-domain endpoints under prefix
// ("/v1/sessions/{sid}" or "/v1/shards/{k}"), healthz and /metrics.
func (fe *frontEnd) route(prefix string) {
	fe.mux.HandleFunc("GET "+prefix+"/residuals", fe.handleResiduals)
	for _, t := range []struct{ kind, key string }{{"host", "node"}, {"link", "edge"}} {
		path := prefix + "/" + t.kind + "s/{" + t.key + "}/"
		fe.mux.HandleFunc("POST "+path+"fail", fe.handleFail(t.kind, t.key))
		fe.mux.HandleFunc("POST "+path+"restore", fe.handleRestore(t.kind, t.key))
	}
	fe.mux.HandleFunc("POST "+prefix+"/rebalance", fe.handleRebalance)
	fe.mux.HandleFunc("GET /healthz", fe.handleHealthz)
	fe.mux.HandleFunc("GET /v1/healthz", fe.handleHealthz)
	fe.mux.Handle("GET /metrics", fe.reg.Handler())
}

// Registry exposes the daemon's metrics registry (for tests and for
// embedding hmnd into a larger process).
func (fe *frontEnd) Registry() *metrics.Registry { return fe.reg }

// Handler returns the daemon's HTTP handler with the per-request
// timeout and body limit applied. While recovery is replaying, every
// /v1 API request is refused with 503 — only /healthz (which reports
// "replaying") and /metrics answer, so a load balancer can watch the
// daemon come up without routing traffic at half-rebuilt state.
func (fe *frontEnd) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fe.replaying.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/v1/healthz" && r.URL.Path != "/metrics" {
			writeUnavailable(w, "replaying")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), fe.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, fe.cfg.MaxBodyBytes)
		fe.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// handleHealthz reports readiness: 503 "replaying" while recovery
// rebuilds state, 503 "draining" during shutdown, 200 "serving"
// otherwise.
func (fe *frontEnd) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case fe.replaying.Load():
		writeError(w, http.StatusServiceUnavailable, "replaying")
	case fe.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "draining")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "serving")
	}
}

// target resolves the request's domain and its {node}/{edge} path
// value, or writes the error response.
func (fe *frontEnd) target(w http.ResponseWriter, r *http.Request, key string) (domain, int, bool) {
	d, ok := fe.domain(w, r)
	if !ok {
		return nil, 0, false
	}
	n, err := strconv.Atoi(r.PathValue(key))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q", key, r.PathValue(key)))
		return nil, 0, false
	}
	return d, n, true
}

func (fe *frontEnd) handleResiduals(w http.ResponseWriter, r *http.Request) {
	d, ok := fe.domain(w, r)
	if !ok {
		return
	}
	cs := d.session()
	res := cs.ResidualProc()
	writeJSON(w, http.StatusOK, ResidualsResponse{
		ResidualProcMIPS: res,
		StdDev:           mapping.Objective(res),
		ActiveEnvs:       cs.Active(),
	})
}

// handleFail fails a host or link and runs the repair engine in one
// atomic step, answering with the per-environment repair outcomes.
func (fe *frontEnd) handleFail(kind, key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, target, ok := fe.target(w, r, key)
		if !ok {
			return
		}
		results, err := d.fail(r.Context(), kind, target)
		if err != nil {
			writeFailure(w, err)
			return
		}
		resp := FailTargetResponse{Kind: kind, Target: target, Evicted: len(results),
			Results: make([]RepairReport, 0, len(results))}
		for _, res := range results {
			rep := RepairReport{Env: fe.envID(res.Tag), Outcome: res.Outcome.String()}
			if res.Err != nil {
				rep.Error = res.Err.Error()
			}
			if res.New != nil {
				ms := spec.FromMapping(res.New, d.overhead())
				rep.Mapping = &ms
			}
			resp.Results = append(resp.Results, rep)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleRestore readmits a failed host or cut link. Restoring a healthy
// target is a 409: the operator almost certainly typed the wrong ID,
// and a 200 would hide the still-failed one.
func (fe *frontEnd) handleRestore(kind, key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, target, ok := fe.target(w, r, key)
		if !ok {
			return
		}
		if err := d.restore(r.Context(), kind, target); err != nil {
			writeFailure(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleRebalance runs one synchronous rebalancing round — the one-shot
// counterpart of the background loop, for operators and tests that want
// a round exactly now (e.g. right after a burst of releases).
func (fe *frontEnd) handleRebalance(w http.ResponseWriter, r *http.Request) {
	d, ok := fe.domain(w, r)
	if !ok {
		return
	}
	moves, before, after, err := d.rebalance(r.Context())
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RebalanceResponse{Moves: moves, StdDevBefore: before, StdDevAfter: after})
}

// errOverloaded rejects a request when the admission queue is full.
var errOverloaded = errors.New("server: admission queue full")

// errDraining rejects mutating work during shutdown.
var errDraining = errors.New("server: draining")

// queueTimeout is the context error of a request that expired before
// (or while) its queued task ran.
type queueTimeout struct{ err error }

func (e queueTimeout) Error() string { return "request timed out: " + e.err.Error() }
func (e queueTimeout) Unwrap() error { return e.err }

// barrierError is a failed durability barrier: the operation committed
// in memory but cannot be acknowledged.
type barrierError struct{ err error }

func (e barrierError) Error() string { return "durability barrier: " + e.err.Error() }
func (e barrierError) Unwrap() error { return e.err }

// failureStatus maps an operation's error onto its HTTP status and
// message.
//
// This is the package's single sentinel→status table: every exported
// core, cluster and shard sentinel gets its status decided here and
// nowhere else (hmnlint's sentinelhttp analyzer rejects inline
// comparisons and sentinels this table misses), so the 404/409 contract
// cannot drift one handler — or one front end — at a time.
//
//hmn:sentineltable
func failureStatus(err error) (code int, msg string) {
	var qt queueTimeout
	var be barrierError
	switch {
	case errors.Is(err, errOverloaded), errors.Is(err, errDraining), errors.As(err, &qt):
		return http.StatusServiceUnavailable, err.Error()
	case errors.As(err, &be):
		return http.StatusInternalServerError, err.Error()
	case errors.Is(err, shard.ErrUnknownTenant), errors.Is(err, shard.ErrUnknownEnv),
		errors.Is(err, shard.ErrBadShard):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, shard.ErrNoShardFits), errors.Is(err, shard.ErrGatewayExhausted):
		// Infeasible against current federation state, not bad syntax.
		return http.StatusConflict, err.Error()
	case errors.Is(err, shard.ErrClosed):
		return http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, core.ErrUnknownTarget), errors.Is(err, core.ErrNotActive):
		// Nothing by that name in this session.
		return http.StatusNotFound, err.Error()
	case errors.Is(err, core.ErrAlreadyFailed), errors.Is(err, core.ErrNotFailed):
		return http.StatusConflict, err.Error()
	case errors.Is(err, core.ErrMigrateConflict), errors.Is(err, core.ErrNotImproving):
		// A migrate plan drawn on a stale snapshot: the cluster moved on
		// (guest relocated, or the plan stopped improving) before the
		// commit validated. Retry against fresh state.
		return http.StatusConflict, err.Error()
	case errors.Is(err, core.ErrNoHostFits), errors.Is(err, core.ErrNoPath),
		errors.Is(err, core.ErrEmptyPool):
		// Mapping infeasible against the current residuals: the request
		// conflicts with testbed state, not with its own syntax.
		return http.StatusConflict, err.Error()
	case errors.Is(err, cluster.ErrOverheadExceedsCapacity):
		// A session/overhead configuration the cluster can never hold.
		return http.StatusBadRequest, err.Error()
	case errors.Is(err, core.ErrReplayDiverged):
		// Replay sentinels never reach a handler in normal operation
		// (recovery runs before the listener); a stray one is an internal
		// invariant breach, not a client error.
		return http.StatusInternalServerError, err.Error()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request timed out"
	default:
		return http.StatusConflict, err.Error()
	}
}

// writeFailure answers err through the sentinel table; a 503 carries
// Retry-After.
func writeFailure(w http.ResponseWriter, err error) {
	code, msg := failureStatus(err)
	if code == http.StatusServiceUnavailable {
		writeUnavailable(w, msg)
		return
	}
	writeError(w, code, msg)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = spec.WriteJSON(w, v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// writeUnavailable is the backpressure response: the client should back
// off and retry, not pile on.
func writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, msg)
}
