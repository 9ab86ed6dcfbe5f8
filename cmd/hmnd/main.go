// Command hmnd runs the testbed-allocation daemon: the HMN mapper
// served as a long-lived HTTP/JSON service in which testers open
// sessions on a physical cluster, map virtual environments against the
// live residual resources, and release them when their experiments end
// (the multi-tester testbed of the paper's §6).
//
// Usage:
//
//	hmnd -addr :8080 -workers 8 -queue 128 -timeout 30s
//
// Mutating requests pass through a bounded admission queue drained by a
// fixed worker pool; when the queue is full the daemon answers 503 with
// Retry-After instead of queueing unboundedly. SIGINT/SIGTERM starts a
// graceful drain: in-flight maps finish, new work is refused, and the
// process exits once the listener and the pool are idle (or the -drain
// budget runs out).
//
// Failure handling: POST /v1/sessions/{id}/hosts/{node}/fail (and the
// /links/{edge}/fail twin) quarantines capacity, evicts the
// environments using it in admission order, and runs the self-healing
// repair engine over the evictions — each comes back repaired (paths
// re-routed around a cut), replaced (fully re-mapped) or unrecoverable,
// with the per-environment fate in the response body. The matching
// /restore endpoints return the capacity; restoring a healthy target or
// failing a failed one is a 409.
//
// Durability: -data-dir enables the write-ahead log (internal/wal).
// Every mutating request is logged and fsynced before its success
// response, periodic snapshots (-snapshot-interval) bound the log, and
// on startup the daemon replays snapshot+log back into memory before
// the /v1 API stops answering 503 "replaying". -replay additionally
// cross-checks every recovered session (objective recompute, registry
// consistency) before serving:
//
//	hmnd -addr :8080 -data-dir /var/lib/hmnd
//	hmnd -addr :8080 -data-dir /var/lib/hmnd -replay
//
// Rebalancing: -rebalance-interval starts a background scheduler per
// session that periodically plans improving guest migrations off the
// live residual-CPU vector (single moves and pairwise destination
// swaps, ordered for migration headroom) and commits them through the
// same optimistic funnel admissions use — mapping requests are never
// blocked, and every committed plan is WAL-logged like any other
// operation. -rebalance-max-moves caps each round. The one-shot
// POST /v1/sessions/{id}/rebalance endpoint runs a round on demand even
// with the background loop disabled:
//
//	hmnd -addr :8080 -rebalance-interval 5s -rebalance-max-moves 8
//
// Profiling: -pprof-addr (off by default) serves net/http/pprof on its
// own listener, kept away from the service port so profiling endpoints
// are never exposed to tenants by accident. The index serves every
// runtime profile — allocation profiles under load come from
// /debug/pprof/allocs, and the contention profiles activate behind
// -mutex-profile-fraction / -block-profile-rate (both sampled, both off
// by default because sampling costs the hot path):
//
//	hmnd -addr :8080 -pprof-addr 127.0.0.1:6060 -mutex-profile-fraction 100 -block-profile-rate 10000
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//	go tool pprof http://127.0.0.1:6060/debug/pprof/allocs
//	go tool pprof http://127.0.0.1:6060/debug/pprof/mutex
//
// Parallel routing: -route-workers N routes each admission's virtual
// links on N worker goroutines with a deterministic in-order merge —
// mapping output is bit-identical to the serial stage for any worker
// count, so the flag is purely a throughput knob.
//
// Federation: -shards N switches the daemon into sharded multi-cluster
// mode — N fully independent shards (each its own session, ledger, WAL
// directory and rebalance scheduler) behind a router that places each
// environment by consistent hashing with a best-fit fallback, admitting
// on per-shard workers so unrelated environments never contend on a
// lock or an fsync. -shard-cluster names a cluster-spec JSON file
// instantiated once per shard; -gateway-bw budgets the inter-shard
// bandwidth that split admissions may charge. Both modes share one HTTP
// front end and one set of flag checks: the durability, rebalancing,
// routing and profiling flags apply per shard (-data-dir holds one WAL
// directory per shard plus the tenant registry, and a restart recovers
// every shard before serving), while -workers and -batch, which size the
// single-session admission queue, are refused with -shards:
//
//	hmnd -addr :8080 -shards 4 -shard-cluster cluster.json -gateway-bw 100 -data-dir /var/lib/hmnd
//
// See the README's "hmnd service" section for a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/spec"
)

// options are hmnd's flag values.
type options struct {
	addr, pprofAddr, dataDir, shardSpec           string
	workers, queue, batch, rebMoves, routeWorkers int
	mutexFrac, blockRate, shards                  int
	timeout, drain, snapEvery, rebEvery           time.Duration
	replay                                        bool
	gatewayBW                                     float64
}

// parseFlags parses hmnd's command line.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("hmnd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 64, "admission queue depth (per shard with -shards)")
	fs.IntVar(&o.batch, "batch", 1, "map requests a worker may admit per wakeup as one batched round (1 = no batching)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request timeout (queue wait included)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown budget")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory: WAL + snapshots (empty = in-memory only)")
	fs.DurationVar(&o.snapEvery, "snapshot-interval", 5*time.Minute, "periodic snapshot interval when -data-dir is set (0 = shutdown snapshot only)")
	fs.BoolVar(&o.replay, "replay", false, "verify every recovered session against a recompute before serving (needs -data-dir)")
	fs.DurationVar(&o.rebEvery, "rebalance-interval", 0, "background rebalancing round interval per session (0 = disabled; one-shot endpoint always available)")
	fs.IntVar(&o.rebMoves, "rebalance-max-moves", 8, "guest moves per rebalancing round, swaps counting two (0 = unbounded)")
	fs.IntVar(&o.routeWorkers, "route-workers", 0, "parallel Networking stage workers per admission (<= 1 = serial; output is bit-identical either way)")
	fs.IntVar(&o.mutexFrac, "mutex-profile-fraction", 0, "runtime mutex profile sampling fraction for /debug/pprof/mutex (0 = disabled)")
	fs.IntVar(&o.blockRate, "block-profile-rate", 0, "runtime block profile sampling rate in ns for /debug/pprof/block (0 = disabled)")
	fs.IntVar(&o.shards, "shards", 0, "federation mode: independent shard count (0 = single-session daemon)")
	fs.Float64Var(&o.gatewayBW, "gateway-bw", 0, "inter-shard gateway bandwidth budget in Mbps for split admissions (needs -shards; 0 = splits disabled)")
	fs.StringVar(&o.shardSpec, "shard-cluster", "", "cluster spec JSON instantiated once per shard (needs -shards; optional when -data-dir holds recoverable state)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits before Parse returns
	return o
}

func main() {
	o := parseFlags(os.Args[1:])
	cfg, err := configure(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmnd: %v\n", err)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "hmnd: ", log.LstdFlags)
	cfg.Logf = logger.Printf
	var srv daemon
	if o.shards > 0 {
		srv = server.NewFederation(cfg)
	} else {
		srv = server.New(cfg)
	}
	if err := serve(o, srv, logger); err != nil {
		fmt.Fprintf(os.Stderr, "hmnd: %v\n", err)
		os.Exit(1)
	}
}

// configure validates the flags of either mode into one server config
// and, once everything checked out, arms the contention profilers.
func configure(o options) (server.Config, error) {
	cfg, err := buildConfig(o.workers, o.queue, o.batch, o.timeout)
	if err == nil {
		err = durabilityConfig(&cfg, o.dataDir, o.snapEvery, o.replay)
	}
	if err == nil {
		err = rebalanceConfig(&cfg, o.rebEvery, o.rebMoves)
	}
	if err == nil {
		err = federationConfig(&cfg, o)
	}
	if err == nil {
		err = profileConfig(&cfg, o.routeWorkers, o.mutexFrac, o.blockRate)
	}
	return cfg, err
}

// buildConfig validates the flag values into a server config.
func buildConfig(workers, queue, batch int, timeout time.Duration) (server.Config, error) {
	if workers < 0 {
		return server.Config{}, fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	if queue <= 0 {
		return server.Config{}, fmt.Errorf("-queue must be positive, got %d", queue)
	}
	if batch <= 0 {
		return server.Config{}, fmt.Errorf("-batch must be positive, got %d", batch)
	}
	if timeout <= 0 {
		return server.Config{}, fmt.Errorf("-timeout must be positive, got %v", timeout)
	}
	return server.Config{Workers: workers, QueueDepth: queue, BatchSize: batch, RequestTimeout: timeout}, nil
}

// durabilityConfig validates the WAL flags into cfg.
func durabilityConfig(cfg *server.Config, dataDir string, snapEvery time.Duration, replay bool) error {
	if dataDir == "" {
		if replay {
			return fmt.Errorf("-replay needs -data-dir")
		}
		return nil
	}
	if snapEvery < 0 {
		return fmt.Errorf("-snapshot-interval must be >= 0, got %v", snapEvery)
	}
	cfg.DataDir = dataDir
	cfg.SnapshotInterval = snapEvery
	cfg.VerifyReplay = replay
	return nil
}

// rebalanceConfig validates the rebalancer flags into cfg.
func rebalanceConfig(cfg *server.Config, interval time.Duration, maxMoves int) error {
	if interval < 0 {
		return fmt.Errorf("-rebalance-interval must be >= 0, got %v", interval)
	}
	if maxMoves < 0 {
		return fmt.Errorf("-rebalance-max-moves must be >= 0, got %d", maxMoves)
	}
	cfg.RebalanceInterval = interval
	cfg.RebalanceMaxMoves = maxMoves
	return nil
}

// profileConfig validates the routing/profiling flags and arms the
// runtime's contention profilers. The rates take effect process-wide
// immediately; the profiles themselves are only reachable when
// -pprof-addr serves them.
func profileConfig(cfg *server.Config, routeWorkers, mutexFrac, blockRate int) error {
	if routeWorkers < 0 {
		return fmt.Errorf("-route-workers must be >= 0, got %d", routeWorkers)
	}
	if mutexFrac < 0 {
		return fmt.Errorf("-mutex-profile-fraction must be >= 0, got %d", mutexFrac)
	}
	if blockRate < 0 {
		return fmt.Errorf("-block-profile-rate must be >= 0, got %d", blockRate)
	}
	cfg.RouteWorkers = routeWorkers
	if mutexFrac > 0 {
		runtime.SetMutexProfileFraction(mutexFrac)
	}
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
	}
	return nil
}

// federationConfig validates the federation flags into cfg, loading
// the per-shard cluster spec when one was named. The spec may be
// omitted only when the data directory already holds recoverable
// federation state. Flags that only one mode reads are refused in the
// other rather than silently ignored.
func federationConfig(cfg *server.Config, o options) error {
	switch {
	case o.shards < 0:
		return fmt.Errorf("-shards must be >= 0, got %d", o.shards)
	case o.shards == 0:
		if o.gatewayBW != 0 || o.shardSpec != "" {
			return errors.New("-gateway-bw and -shard-cluster need -shards")
		}
		return nil
	case o.workers != 0 || o.batch != 1:
		return errors.New("-workers and -batch size the single-session admission queue; shards run one worker each, so they do not apply with -shards")
	case o.gatewayBW < 0:
		return fmt.Errorf("-gateway-bw must be >= 0, got %g", o.gatewayBW)
	}
	cfg.GatewayBW = o.gatewayBW
	if o.dataDir != "" && shard.HasState(o.dataDir) {
		return nil // recovery rebuilds the shards from their WALs
	}
	if o.shardSpec == "" {
		return fmt.Errorf("-shards needs -shard-cluster (no recoverable state in %q)", o.dataDir)
	}
	raw, err := os.Open(o.shardSpec)
	if err != nil {
		return fmt.Errorf("-shard-cluster: %w", err)
	}
	defer raw.Close()
	var cs spec.ClusterSpec
	if err := spec.DecodeStrict(raw, &cs); err != nil {
		return fmt.Errorf("-shard-cluster %s: %w", o.shardSpec, err)
	}
	cfg.ClusterSpecs = make([]spec.ClusterSpec, o.shards)
	for k := range cfg.ClusterSpecs {
		cfg.ClusterSpecs[k] = cs
	}
	return nil
}

// pprofHandler builds the net/http/pprof mux by hand: the package's
// init registers on http.DefaultServeMux, which the daemon never
// serves, so profiling stays opt-in and off the service listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// daemon is either front end: server.Server or server.FedServer.
type daemon interface {
	Handler() http.Handler
	Recover() error
	Close() error
}

// serve runs srv until SIGINT/SIGTERM, then drains: the listener first,
// so in-flight handlers finish the work they queued or routed, then the
// daemon (workers, rebalancers, final snapshot, WAL).
func serve(o options, srv daemon, logger *log.Logger) error {
	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if o.pprofAddr != "" {
		pprofSrv := &http.Server{Addr: o.pprofAddr, Handler: pprofHandler()}
		go func() {
			logger.Printf("pprof listening on %s", o.pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof server: %v", err)
			}
		}()
		defer pprofSrv.Close()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (shards=%d queue=%d timeout=%v)", o.addr, o.shards, o.queue, o.timeout)
		errc <- httpSrv.ListenAndServe()
	}()

	// Recover with the listener already up: /healthz answers 503
	// "replaying" while the snapshots and log suffixes are applied, and
	// the /v1 API opens the moment Recover returns.
	if err := srv.Recover(); err != nil {
		httpSrv.Close()
		srv.Close()
		return fmt.Errorf("recover: %w", err)
	}
	logger.Printf("recovery complete, serving")

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining (budget %v)", o.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	// The listener must be fully down before the daemon stops: a
	// request queued on a stopped worker would be lost.
	err := httpSrv.Shutdown(shutdownCtx)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("drained, exiting")
	return nil
}
