// Package server implements hmnd, the testbed-allocation daemon: an
// HTTP/JSON control plane over core.Session that admits, places and
// releases virtual environments on a shared cluster over time — the
// multi-tester testbed of the paper's §6 run as a service.
//
// Layering (bottom up):
//
//   - core.Session holds the residual-resource ledger and runs the HMN /
//     HMN-C mapper incrementally; it is the only layer that mutates
//     testbed state.
//   - Server wraps a set of named sessions and pushes every mutating
//     request (map, release) through a bounded admission queue drained
//     by a fixed worker pool. The queue is the backpressure boundary:
//     when it is full — or the server is draining — the request is
//     rejected immediately with 503 + Retry-After instead of piling up
//     goroutines behind the session mutex.
//   - An internal/metrics Registry instruments every stage (attempts,
//     successes, failures, rejections per mapper, map latency
//     histogram, queue depth, active sessions/environments, per-session
//     residual-CPU stddev) and serves the text exposition on /metrics.
//   - The HTTP front end (frontend.go) is shared with FedServer, the
//     sharded daemon: one configuration, readiness gate, healthz, set of
//     per-domain endpoints and sentinel→status table serve both.
//
// Endpoints:
//
//	POST   /v1/sessions                              open a session (cluster + mapper + overhead)
//	DELETE /v1/sessions/{sid}                        close it, releasing every environment
//	POST   /v1/sessions/{sid}/envs                   map an environment (optionally return the deploy plan)
//	DELETE /v1/sessions/{sid}/envs/{eid}             release an environment
//	GET    /v1/sessions/{sid}/residuals              residual CPU vector + stddev
//	POST   /v1/sessions/{sid}/hosts/{node}/fail      fail/drain a host; evict + auto-repair its environments
//	POST   /v1/sessions/{sid}/hosts/{node}/restore   readmit a failed host (409 if not failed)
//	POST   /v1/sessions/{sid}/links/{edge}/fail      cut a physical link; evict + auto-repair
//	POST   /v1/sessions/{sid}/links/{edge}/restore   readmit a cut link (409 if not cut)
//	POST   /v1/sessions/{sid}/rebalance              run one rebalancing round now (plan + commit improving migrations)
//	GET    /healthz                                  liveness (503 while draining)
//	GET    /metrics                                  Prometheus text exposition
//
// The fail endpoints run the core.Session repair engine atomically with
// the eviction: evicted environments are re-mapped oldest-first against
// the degraded cluster (placements kept and broken paths re-routed when
// possible, full re-map otherwise) and the response reports each as
// repaired, replaced or unrecoverable. Unrecoverable environments are
// released from the session; repaired/replaced ones keep their IDs.
//
// Request bodies are decoded strictly (spec.DecodeStrict): unknown
// fields are a 400, not a silent no-op.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/rebalance"
	"repro/internal/spec"
	"repro/internal/virtual"
	"repro/internal/wal"
)

// task is one unit of queued work. run executes on a worker; the
// submitter waits on done (or its context). Map-environment tasks also
// carry an mj descriptor so a worker can coalesce several of them into
// one batched admission; for those, run is the single-request execution
// the worker uses when it does not batch.
type task struct {
	ctx  context.Context
	run  func()
	done chan struct{}
	mj   *mapJob
}

// mapJob is the batchable description of one queued map request. The
// callbacks run on the worker goroutine; exactly one of finish or cancel
// is called per job.
type mapJob struct {
	sess *session
	env  *virtual.Env
	// eid is the pre-assigned environment ID — the admission's tag in
	// the session and the WAL.
	eid string
	ctx context.Context
	// begin counts the attempt, right before mapping starts.
	begin func()
	// finish performs the request's bookkeeping (outcome counters,
	// environment registration, response rendering).
	finish func(m *mapping.Mapping, err error)
	// cancel completes a request whose client gave up in the queue,
	// without counting an attempt.
	cancel func(err error)
}

// session is a named core.Session plus the server-side bookkeeping.
type session struct {
	id         string
	core       *core.Session
	overhead   cluster.VMMOverhead
	mapperName string
	// clusterSpec is the cluster as the client described it, kept for
	// WAL snapshots (a snapshot must be self-contained).
	clusterSpec spec.ClusterSpec
	stddev      *metrics.Gauge

	// rebal is the session's background rebalancer. Set before the
	// session is published and never reassigned; its own mutex guards
	// its state.
	rebal *rebalance.Scheduler

	// envs holds the IDs of the deployed environments. An ID is the
	// environment's admission tag in core, which resolves its current
	// mapping whatever a migration or repair swapped in.
	mu      sync.Mutex
	envs    map[string]struct{} //hmn:guardedby mu
	nextEnv int                 //hmn:guardedby mu
	closed  bool                //hmn:guardedby mu
}

// Server is the hmnd daemon: session store, admission queue, worker
// pool and metrics. Create with New, serve Handler(), stop with Close.
type Server struct {
	frontEnd

	// admitMu excludes submit against Close's queue close: Close flips
	// draining under the write lock, enqueue reads it under the read lock.
	admitMu sync.RWMutex
	queue   chan *task
	wg      sync.WaitGroup

	mu          sync.Mutex
	sessions    map[string]*session //hmn:guardedby mu
	nextSession int                 //hmn:guardedby mu

	// wal is the write-ahead log; nil without Config.DataDir. It is set
	// by Recover before replaying flips to false, and the /v1 readiness
	// gate keeps every handler out until then. stopSnapshots follows the
	// same publication rule: written once by Recover before the
	// replaying flip, then only ever called by Close after the drain, so
	// neither needs mu.
	wal           *wal.WAL
	stopSnapshots func()

	mLatency       *metrics.Histogram
	mRepairLatency *metrics.Histogram
	mCommitLatency *metrics.Histogram
	mQueue         *metrics.Gauge
	mEnvs          *metrics.Gauge
	mSessions      *metrics.Gauge
	mConflicts     *metrics.Counter
	mFallbacks     *metrics.Counter
	mOptimistic    *metrics.Counter
	mBatches       *metrics.Counter
	mBatchedEnvs   *metrics.Counter

	mWALRecords      *metrics.Counter
	mReplayRecords   *metrics.Counter
	mFsyncLatency    *metrics.Histogram
	mSnapshotLatency *metrics.Histogram

	mRebalRounds      *metrics.Counter
	mRebalPlanned     *metrics.Counter
	mRebalMoves       *metrics.Counter
	mRebalAborts      *metrics.Counter
	mRebalImprovement *metrics.Gauge
	mRebalLatency     *metrics.Histogram
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	reg := metrics.NewRegistry()
	s := &Server{
		frontEnd:      newFrontEnd(cfg, reg),
		queue:         make(chan *task, cfg.QueueDepth),
		sessions:      make(map[string]*session),
		stopSnapshots: func() {},
		mLatency: reg.Histogram("hmnd_map_latency_seconds",
			"Wall time of environment map attempts.", nil),
		mRepairLatency: reg.Histogram("hmnd_repair_latency_seconds",
			"Wall time of fail-and-repair operations (eviction plus re-mapping).", nil),
		mCommitLatency: reg.Histogram("hmnd_commit_latency_seconds",
			"Time an admission held the session lock (snapshot plus validate-and-commit; the whole mapping on the serialized fallback).", nil),
		mConflicts: reg.Counter("hmnd_admit_conflicts_total",
			"Optimistic admission attempts that lost their validation race and retried."),
		mFallbacks: reg.Counter("hmnd_admit_fallbacks_total",
			"Admissions that exhausted optimistic retries and ran serialized."),
		mOptimistic: reg.Counter("hmnd_admit_optimistic_total",
			"Admissions committed optimistically (mapping ran with no lock held)."),
		mBatches: reg.Counter("hmnd_map_batches_total",
			"Batched admission rounds (two or more map requests admitted per wakeup)."),
		mBatchedEnvs: reg.Counter("hmnd_map_batched_envs_total",
			"Map requests admitted through batched rounds."),
		mQueue: reg.Gauge("hmnd_queue_depth",
			"Requests waiting in the admission queue."),
		mEnvs: reg.Gauge("hmnd_active_envs",
			"Environments currently deployed across all sessions."),
		mSessions: reg.Gauge("hmnd_active_sessions",
			"Sessions currently open."),
		mWALRecords: reg.Counter("hmnd_wal_records_total",
			"Operation records appended to the write-ahead log."),
		mReplayRecords: reg.Counter("hmnd_replay_records_total",
			"Operation records replayed from the log during recovery."),
		mFsyncLatency: reg.Histogram("hmnd_wal_fsync_seconds",
			"Wall time of write-ahead log fsyncs (group commits).", nil),
		mSnapshotLatency: reg.Histogram("hmnd_snapshot_seconds",
			"Wall time of full-state snapshots (rotate, export, publish, prune).", nil),
		mRebalRounds: reg.Counter("hmnd_rebalance_rounds_total",
			"Rebalancing rounds executed (background and one-shot)."),
		mRebalPlanned: reg.Counter("hmnd_rebalance_planned_units_total",
			"Migration units (single moves and swaps) proposed by the planner."),
		mRebalMoves: reg.Counter("hmnd_rebalance_moves_total",
			"Guest migrations committed by the rebalancer."),
		mRebalAborts: reg.Counter("hmnd_rebalance_aborts_total",
			"Planned units dropped because their optimistic commit lost its validation race."),
		mRebalImprovement: reg.Gauge("hmnd_rebalance_objective_improvement",
			"Cumulative Eq. (10) objective reduction realized by committed rebalancing plans."),
		mRebalLatency: reg.Histogram("hmnd_rebalance_round_seconds",
			"Wall time of rebalancing rounds (snapshot plus planning).", nil),
	}
	// With a data directory the daemon starts in "replaying": the /v1
	// API answers 503 until Recover installs the recovered sessions.
	s.replaying.Store(cfg.DataDir != "")

	// Environment IDs are the admission tags themselves.
	s.domain, s.envID = s.lookupDomain, func(tag string) string { return tag }
	s.mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}", s.handleCloseSession)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/envs", s.handleMapEnv)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}/envs/{eid}", s.handleReleaseEnv)
	s.route("/v1/sessions/{sid}")

	// Degradation gauges are computed at scrape time from the live
	// sessions, so they can never drift from the ledgers they describe.
	reg.GaugeFunc("hmnd_quarantined_hosts",
		"Hosts currently failed or drained, across sessions.",
		func() float64 { return s.sumSessions((*core.Session).FailedHosts) })
	reg.GaugeFunc("hmnd_cut_links",
		"Physical links currently cut, across sessions.",
		func() float64 { return s.sumSessions((*core.Session).CutLinks) })
	// AR-cache totals live in each session's counters already; expose
	// them as scrape-time callbacks instead of mirroring every event.
	reg.CounterFunc("hmnd_ar_cache_hits_total",
		"Dijkstra latency tables served from the session AR caches.",
		func() float64 {
			return s.sumSessionsU64(func(c *core.Session) uint64 { return c.AdmissionStats().ARCacheHits })
		})
	reg.CounterFunc("hmnd_ar_cache_misses_total",
		"Dijkstra latency tables computed and filled into the session AR caches.",
		func() float64 {
			return s.sumSessionsU64(func(c *core.Session) uint64 { return c.AdmissionStats().ARCacheMisses })
		})

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close drains the daemon: new mutating work is refused with 503, every
// task already admitted runs to completion, and the worker pool exits.
// With durability enabled, the queue is drained FIRST and a final
// snapshot is taken after — so queued-but-unacknowledged admissions
// that committed during the drain are captured, not lost — and the WAL
// is sealed. Safe to call more than once. Callers shutting down an
// http.Server should call its Shutdown first so in-flight handlers
// finish waiting on their queued tasks. The error is the final
// snapshot's or the log's; later calls return nil.
func (s *Server) Close() error {
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining.Store(true)
	close(s.queue)
	s.admitMu.Unlock()
	// Rebalancing stops for good during drain: stop every scheduler
	// (waiting out in-flight rounds) before the queue empties and the
	// final snapshot exports state.
	s.stopRebalancers()
	s.wg.Wait()
	if s.wal == nil {
		return nil
	}
	s.stopSnapshots()
	err := s.writeSnapshot()
	if err != nil {
		err = fmt.Errorf("shutdown snapshot: %w", err)
	}
	if cerr := s.wal.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal close: %w", cerr)
	}
	return err
}

// worker drains the admission queue until Close. With BatchSize > 1, a
// wakeup that pops a map task keeps draining the queue — without
// blocking — for more map tasks on the same session, up to BatchSize,
// and admits the group as one core.Session.MapBatch round. The first
// task of any other kind stops the drain and runs after the batch; the
// queue never reorders beyond that one overtake, and an idle queue
// batches nothing (a lone request is admitted exactly as before).
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.mQueue.Set(float64(len(s.queue)))
		if t.mj == nil || s.cfg.BatchSize <= 1 {
			t.run()
			close(t.done)
			continue
		}
		batch := []*task{t}
		var deferred *task
	drain:
		for len(batch) < s.cfg.BatchSize {
			select {
			case t2, ok := <-s.queue:
				if !ok {
					break drain
				}
				if t2.mj != nil && t2.mj.sess == t.mj.sess {
					batch = append(batch, t2)
				} else {
					deferred = t2
					break drain
				}
			default:
				break drain
			}
		}
		s.mQueue.Set(float64(len(s.queue)))
		s.runMapBatch(batch)
		if deferred != nil {
			deferred.run()
			close(deferred.done)
		}
	}
}

// runMapBatch admits a group of same-session map tasks in one batched
// round and finishes each request. Tasks whose client already gave up
// are completed without mapping, like the single-request path does; a
// group that shrinks to one request takes the ordinary path.
func (s *Server) runMapBatch(batch []*task) {
	var live []*task
	for _, t := range batch {
		if err := t.mj.ctx.Err(); err != nil {
			t.mj.cancel(err)
			close(t.done)
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		live[0].run()
		close(live[0].done)
		return
	}

	sess := live[0].mj.sess
	envs := make([]*virtual.Env, len(live))
	tags := make([]string, len(live))
	for i, t := range live {
		envs[i] = t.mj.env
		tags[i] = t.mj.eid
		t.mj.begin()
	}
	t0 := time.Now()
	maps, errs, bst := sess.core.MapBatchTagged(envs, tags)
	dur := time.Since(t0).Seconds()
	s.mBatches.Inc()
	s.mBatchedEnvs.Add(uint64(len(live)))
	s.mOptimistic.Add(uint64(bst.Committed))
	s.mFallbacks.Add(uint64(bst.Fallbacks))
	// The batch held the lock once for everyone; attribute the lock time
	// to the round, and the round's wall time to each attempt it served.
	s.mCommitLatency.Observe(bst.CommitSeconds)
	for i, t := range live {
		s.mLatency.Observe(dur)
		t.mj.finish(maps[i], errs[i])
		close(t.done)
	}
}

// submit queues fn and waits for it to run. It returns errOverloaded /
// errDraining without queuing when the daemon has no room, and the
// context error if ctx expires while the task waits (the task itself
// checks ctx and becomes a no-op, or rolls back, when it finally runs).
func (s *Server) submit(ctx context.Context, fn func()) error {
	return s.enqueue(&task{ctx: ctx, run: fn, done: make(chan struct{})})
}

// submitMap queues a map request that workers may coalesce into a
// batched admission round; run is its single-request execution.
func (s *Server) submitMap(mj *mapJob, run func()) error {
	return s.enqueue(&task{ctx: mj.ctx, run: run, done: make(chan struct{}), mj: mj})
}

func (s *Server) enqueue(t *task) error {
	s.admitMu.RLock()
	if s.draining.Load() {
		s.admitMu.RUnlock()
		return errDraining
	}
	select {
	case s.queue <- t:
		s.mQueue.Set(float64(len(s.queue)))
		s.admitMu.RUnlock()
	default:
		s.admitMu.RUnlock()
		return errOverloaded
	}
	select {
	case <-t.done:
		return nil
	case <-t.ctx.Done():
		return t.ctx.Err()
	}
}

// do queues fn on the admission queue and makes what it committed
// durable. The error is ready for writeFailure.
func (s *Server) do(ctx context.Context, fn func() error) error {
	var opErr error
	if err := s.submit(ctx, func() { opErr = fn() }); err != nil {
		return queued(err)
	}
	if opErr != nil {
		return opErr
	}
	return s.durable()
}

// queued classifies a submit error: no room (overloaded or draining)
// as is, anything else as the request's timeout.
func queued(err error) error {
	if errors.Is(err, errOverloaded) || errors.Is(err, errDraining) {
		return err
	}
	return queueTimeout{err}
}

// durable is ackBarrier with its failure ready for writeFailure.
func (s *Server) durable() error {
	if err := s.ackBarrier(); err != nil {
		return barrierError{err}
	}
	return nil
}

// --- handlers ---

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req OpenSessionRequest
	if err := spec.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	c, err := req.Cluster.ToCluster()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	overhead := cluster.VMMOverhead{Proc: req.Overhead.Proc, Mem: req.Overhead.Mem, Stor: req.Overhead.Stor}
	mapperName := req.Mapper
	if mapperName == "" {
		mapperName = "HMN"
	}
	mapper, err := core.MapperByName(mapperName, overhead)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cs, err := core.NewSession(c, overhead, mapper)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cs.SetRouteWorkers(s.cfg.RouteWorkers)

	if s.draining.Load() {
		writeFailure(w, errDraining)
		return
	}

	// The open record is appended, and the commit hook attached, before
	// the session becomes visible: no operation can reach the log ahead
	// of the record that declares its session.
	s.mu.Lock()
	s.nextSession++
	id := fmt.Sprintf("s%d", s.nextSession)
	sess := s.newSession(id, cs, req.Cluster, mapperName, overhead)
	s.wal.Attach(sess.id, sess.overhead, sess.core)
	s.attachRebalance(sess)
	s.appendOpenLocked(sess)
	s.sessions[id] = sess
	s.mu.Unlock()
	s.mSessions.Inc()
	sess.stddev.Set(mapping.Objective(cs.ResidualProc()))

	if err := s.durable(); err != nil {
		// The open was never made durable, so the client was never told
		// the session exists: tear it back down rather than leak a
		// serving session a 500-retrying client will never address. The
		// close record is best-effort (the barrier just failed), but if
		// the open did reach disk it keeps a later replay consistent.
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		sess.mu.Lock()
		sess.closed = true
		sess.mu.Unlock()
		s.appendClose(id)
		s.mSessions.Dec()
		s.reg.Unregister(fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", id))
		writeFailure(w, err)
		return
	}
	// The session is durable; its background loop (if configured) may
	// migrate guests from here on.
	sess.rebal.Start()
	writeJSON(w, http.StatusCreated, OpenSessionResponse{
		ID:     id,
		Mapper: mapperName,
		Hosts:  c.NumHosts(),
		Nodes:  c.Net().NumNodes(),
	})
}

// lookupSession resolves {sid} or writes a 404.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("sid")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return nil
	}
	return sess
}

func (s *Server) handleMapEnv(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
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
	if env.NumGuests() == 0 {
		writeError(w, http.StatusBadRequest, "environment has no guests")
		return
	}

	attempted := s.mapCounter("attempted", sess.mapperName)
	succeeded := s.mapCounter("succeeded", sess.mapperName)
	failed := s.mapCounter("failed", sess.mapperName)
	rejected := s.mapCounter("rejected", sess.mapperName)

	// The environment ID is assigned before the admission runs, because
	// it is the admission's tag: it rides the WAL record, so a logged
	// admission the daemon died before acknowledging recovers under the
	// ID the response would have carried. A failed admission burns the
	// ID (IDs are not dense).
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", sess.id))
		return
	}
	sess.nextEnv++
	envID := fmt.Sprintf("e%d", sess.nextEnv)
	sess.mu.Unlock()

	ctx := r.Context()
	var (
		resp   MapEnvResponse
		mapErr error
	)
	mj := &mapJob{sess: sess, env: env, eid: envID, ctx: ctx}
	mj.begin = func() { attempted.Inc() }
	mj.cancel = func(err error) {
		// The client gave up while we sat in the queue: do no work.
		mapErr = err
	}
	mj.finish = func(m *mapping.Mapping, err error) {
		if err != nil {
			failed.Inc()
			mapErr = err
			return
		}
		sess.mu.Lock()
		if sess.closed {
			sess.mu.Unlock()
			_ = sess.core.ReleaseTag(envID)
			failed.Inc()
			mapErr = fmt.Errorf("session %s closed", sess.id)
			return
		}
		if ctx.Err() != nil {
			// Mapped, but the request timed out mid-flight: roll back so
			// no orphan environment holds resources.
			sess.mu.Unlock()
			_ = sess.core.ReleaseTag(envID)
			failed.Inc()
			mapErr = ctx.Err()
			return
		}
		sess.envs[envID] = struct{}{}
		sess.mu.Unlock()

		succeeded.Inc()
		s.mEnvs.Inc()
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))

		resp = MapEnvResponse{ID: envID, Mapping: spec.FromMapping(m, sess.overhead)}
		if req.Plan || req.PlanShell {
			if plan, err := deploy.Build(m, sess.overhead); err == nil {
				if req.Plan {
					resp.Plan = plan
				}
				if req.PlanShell {
					resp.PlanShell = plan.RenderShell()
				}
			}
		}
	}
	submitErr := s.submitMap(mj, func() {
		if err := ctx.Err(); err != nil {
			mj.cancel(err)
			return
		}
		mj.begin()
		t0 := time.Now()
		m, admit, err := sess.core.MapTagged(env, envID)
		s.mLatency.Observe(time.Since(t0).Seconds())
		s.mCommitLatency.Observe(admit.CommitSeconds)
		s.mConflicts.Add(uint64(admit.Conflicts))
		if admit.Fallback {
			s.mFallbacks.Inc()
		} else {
			s.mOptimistic.Inc()
		}
		mj.finish(m, err)
	})
	err = mapErr
	switch {
	case submitErr != nil: // no room, or the context expired while queued or running
		err = queued(submitErr)
	case err == nil:
		err = s.durable()
	}
	if err != nil {
		if code, _ := failureStatus(err); code == http.StatusServiceUnavailable {
			rejected.Inc()
		}
		writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReleaseEnv(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	envID := r.PathValue("eid")
	var relErr error
	submitErr := s.submit(r.Context(), func() {
		// Release by tag, and drop the registry entry only once core has
		// let go. Core resolves the tag under its own lock, whatever
		// mapping a migration or repair committed under it; sess.mu is
		// not held across that call, so a release waiting on a serialized
		// admission blocks nothing else.
		sess.mu.Lock()
		_, ok := sess.envs[envID]
		sess.mu.Unlock()
		if !ok {
			relErr = fmt.Errorf("no environment %q in session %s", envID, sess.id)
			return
		}
		if err := sess.core.ReleaseTag(envID); err != nil {
			relErr = err
			return
		}
		sess.mu.Lock()
		delete(sess.envs, envID)
		sess.mu.Unlock()
		s.mEnvs.Dec()
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
	})
	if submitErr != nil {
		writeUnavailable(w, submitErr.Error())
		return
	}
	if relErr != nil {
		writeError(w, http.StatusNotFound, relErr.Error())
		return
	}
	if err := s.durable(); err != nil {
		writeFailure(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("sid")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	// Stop the rebalancer first: its commits would race the teardown's
	// releases, and a migrate record after the close record would poison
	// a later replay.
	sess.rebal.Stop()
	sess.mu.Lock()
	sess.closed = true
	envs := sess.envs
	sess.envs = make(map[string]struct{})
	sess.mu.Unlock()
	for eid := range envs {
		if err := sess.core.ReleaseTag(eid); err == nil {
			s.mEnvs.Dec()
		}
	}
	// The close record lands after the teardown releases the hook just
	// logged, so a replayed log tears the session down the same way
	// before retiring it.
	s.appendClose(id)
	s.mSessions.Dec()
	s.reg.Unregister(fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", id))
	if err := s.durable(); err != nil {
		writeFailure(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sumSessions totals a per-session quantity across the open sessions.
func (s *Server) sumSessions(f func(*core.Session) int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, sess := range s.sessions {
		total += f(sess.core)
	}
	return float64(total)
}

// sumSessionsU64 is sumSessions for the sessions' uint64 counters.
func (s *Server) sumSessionsU64(f func(*core.Session) uint64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, sess := range s.sessions {
		total += f(sess.core)
	}
	return float64(total)
}

// sessionDomain is one session as the shared per-domain endpoints see
// it: every operation runs as a task on the admission queue.
type sessionDomain struct {
	s    *Server
	sess *session
}

// lookupDomain resolves {sid} for the shared endpoints.
func (s *Server) lookupDomain(w http.ResponseWriter, r *http.Request) (domain, bool) {
	sess := s.lookupSession(w, r)
	return sessionDomain{s: s, sess: sess}, sess != nil
}

func (d sessionDomain) session() *core.Session        { return d.sess.core }
func (d sessionDomain) overhead() cluster.VMMOverhead { return d.sess.overhead }

// fail runs the atomic fail-and-repair and forgets the environments it
// could not save; repaired and replaced ones keep their IDs, which are
// their tags.
func (d sessionDomain) fail(ctx context.Context, kind string, target int) ([]core.RepairResult, error) {
	s, sess := d.s, d.sess
	var results []core.RepairResult
	err := s.do(ctx, func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		var err error
		if kind == "host" {
			results, err = sess.core.FailHostAndRepair(graph.NodeID(target))
		} else {
			results, err = sess.core.FailLinkAndRepair(target)
		}
		if err != nil {
			return err
		}
		s.mRepairLatency.Observe(time.Since(t0).Seconds())
		s.evictionCounter(kind).Add(uint64(len(results)))
		lost := 0
		sess.mu.Lock()
		for _, res := range results {
			s.repairCounter(res.Outcome.String()).Inc()
			if _, ok := sess.envs[res.Tag]; ok && res.Outcome == core.RepairUnrecoverable {
				delete(sess.envs, res.Tag)
				lost++
			}
		}
		sess.mu.Unlock()
		for i := 0; i < lost; i++ {
			s.mEnvs.Dec()
		}
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
		return nil
	})
	return results, err
}

func (d sessionDomain) restore(ctx context.Context, kind string, target int) error {
	return d.s.do(ctx, func() error {
		if kind == "host" {
			return d.sess.core.RestoreHost(graph.NodeID(target))
		}
		return d.sess.core.RestoreLink(target)
	})
}

// rebalance runs one round on the calling goroutine: rounds commit
// through the optimistic migrate funnel, so they need no queue slot.
func (d sessionDomain) rebalance(context.Context) (int, float64, float64, error) {
	if d.s.draining.Load() {
		return 0, 0, 0, errDraining
	}
	before := d.sess.core.ObjectiveStdDev()
	moved := d.sess.rebal.RunOnce()
	after := d.sess.core.ObjectiveStdDev()
	// RunOnce already ran the after-round barrier if it committed
	// anything; this one covers the moved == 0 path for free and keeps
	// the ack-after-log shape uniform.
	return moved, before, after, d.s.durable()
}

// evictionCounter counts environments evicted by failures, per kind.
func (s *Server) evictionCounter(kind string) *metrics.Counter {
	return s.reg.Counter(
		fmt.Sprintf("hmnd_evictions_total{kind=%q}", kind),
		"Environments evicted by host/link failures, per kind.")
}

// repairCounter counts repair-engine outcomes.
func (s *Server) repairCounter(outcome string) *metrics.Counter {
	return s.reg.Counter(
		fmt.Sprintf("hmnd_repairs_total{outcome=%q}", outcome),
		"Repair-engine outcomes for evicted environments.")
}

// mapCounter returns the per-mapper counter for one outcome.
func (s *Server) mapCounter(outcome, mapper string) *metrics.Counter {
	return s.reg.Counter(
		fmt.Sprintf("hmnd_maps_%s_total{mapper=%q}", outcome, mapper),
		fmt.Sprintf("Environment maps %s, per mapper.", outcome))
}
