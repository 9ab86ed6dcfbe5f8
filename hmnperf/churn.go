package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/workload"
)

// churnSpec is a workload that drives hmnd over loopback HTTP.
type churnSpec struct {
	Name   string
	Topo   topo
	Params workload.VirtualParams
	Warmup int // admit+release pairs run during set-up

	// Open loop: Poisson admissions at Rate per second, each released
	// after an exponential lifetime of mean MeanLife.
	Open     bool
	Rate     float64
	MeanLife time.Duration

	// Closed loop: a pool of Pool bodies cycled over the connections.
	Pool           int
	Live           int
	RebalanceEvery int

	// Durable runs the load's daemon with -data-dir, so every ack
	// waits for its WAL fsync.
	Durable bool
	// DurableAdmissions, when positive, ends the run with a durable
	// serial replay of that many admissions and the crash-recovery
	// measurement.
	DurableAdmissions int
	SampleEvery       int // acked admissions between objective samples

	ReplayAdmissions int // admissions replayed in-process by a traced run
	StageEnvs        int // environments mapped one-shot for the stage split
}

// churnSmall: 8-guest high-level environments (Table 1, density 0.3)
// arriving at 300/s on the paper's torus, each live for 50 ms on
// average, so ~15 are live at once; at ~30 live the Hosting stage
// starts refusing environments for memory.
//
// The load's daemon keeps its state in memory. Without the disk an
// 8-guest ack takes well under a millisecond, and a shared disk's fsync
// drifts between 0.1 and 1.3 ms over minutes, so a durable load's
// latency measures the disk's neighbours. The WAL path is measured by
// the durable serial replay that ends the run, and by churn-large,
// whose acks all wait for fsync.
var churnSmall = churnSpec{
	Name: "churn-small", Topo: paperTorus, Params: workload.HighLevelParams(8, 0.3), Warmup: 50,
	Open: true, Rate: 300, MeanLife: 50 * time.Millisecond,
	DurableAdmissions: 500, SampleEvery: 100,
	ReplayAdmissions: 2000, StageEnvs: 300,
}

// churnLarge: 200-guest low-level environments (density 0.05, ~1000
// links), 6 live, a one-shot rebalance after every 25th admission.
var churnLarge = churnSpec{
	Name: "churn-large", Topo: paperTorus, Params: workload.LowLevelParams(200, 0.05), Warmup: 10,
	Pool: 256, Live: 6, RebalanceEvery: 25, Durable: true, SampleEvery: 10,
	ReplayAdmissions: 300, StageEnvs: 40,
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 7

// tailWindows caps how many windows a run's tail latency is split into.
const tailWindows = 5

// conns is the generator's connection count: at most nproc.
func conns() int { return min(2, runtime.NumCPU()) }

// churnInputs is everything a churn run sends, generated from the seed.
type churnInputs struct {
	C      *cluster.Cluster
	Open   []byte // POST /v1/sessions body
	Reqs   []request
	Ops    []op // open loop only
	NAdmit int
	Warm   []request
}

func (w churnSpec) inputs(seed int64, span time.Duration) (*churnInputs, error) {
	c, err := w.Topo.build()
	if err != nil {
		return nil, err
	}
	open, err := json.Marshal(server.OpenSessionRequest{Cluster: spec.FromCluster(c)})
	if err != nil {
		return nil, err
	}
	in := &churnInputs{C: c, Open: open}
	n := w.Pool
	if w.Open {
		in.Ops, in.NAdmit = openLoopSchedule(w.Rate, w.MeanLife, span, streamRNG(seed, streamSchedule))
		n = in.NAdmit
	}
	if in.Reqs, err = makeRequests(w.Params, n, streamRNG(seed, streamEnvs)); err != nil {
		return nil, err
	}
	if in.Warm, err = makeRequests(w.Params, w.Warmup, streamRNG(seed, streamWarmup)); err != nil {
		return nil, err
	}
	return in, nil
}

// churnRun is one set-up daemon with its session.
type churnRun struct {
	In       *churnInputs
	D        *daemon
	DataDir  string // empty when the daemon keeps its state in memory
	SessPath string // /v1/sessions/<id>
	SessURL  string // the daemon's base URL plus SessPath
}

// setUp generates the inputs, starts hmnd (on a fresh data directory
// when the workload is durable), opens the session and warms it up.
func (r *runEnv) setUp(w churnSpec, client *http.Client, k int) (*churnRun, error) {
	in, err := w.inputs(r.Seed, r.duration())
	if err != nil {
		return nil, err
	}
	var dir string
	if w.Durable {
		if dir, err = r.dir(fmt.Sprintf("data-%d", k)); err != nil {
			return nil, err
		}
	}
	return r.startChurn(client, in, dir, fmt.Sprintf("hmnd-%d.log", k))
}

// startChurn starts hmnd, with -data-dir dir unless dir is empty, and
// opens and warms up the session.
func (r *runEnv) startChurn(client *http.Client, in *churnInputs, dir, logName string) (*churnRun, error) {
	var args []string
	if dir != "" {
		args = []string{"-data-dir", dir}
	}
	d, err := startDaemon(r.Hmnd, filepath.Join(r.Work, logName), args...)
	if err != nil {
		return nil, err
	}
	cr := &churnRun{In: in, D: d, DataDir: dir}
	if err := cr.open(client, in); err != nil {
		d.stop()
		return nil, err
	}
	return cr, nil
}

func (cr *churnRun) open(client *http.Client, in *churnInputs) error {
	if err := cr.D.waitServing(client, 30*time.Second); err != nil {
		return err
	}
	code, body, err := do(client, http.MethodPost, cr.D.base+"/v1/sessions", in.Open)
	if err != nil || code != http.StatusCreated {
		return fmt.Errorf("open session: status %d err %v: %.200s", code, err, body)
	}
	var sess server.OpenSessionResponse
	if err := json.Unmarshal(body, &sess); err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	cr.SessPath = "/v1/sessions/" + sess.ID
	cr.SessURL = cr.D.base + cr.SessPath
	for i, q := range in.Warm {
		a := &admission{}
		if err := admit(client, cr.SessURL, q.Body, a); err != nil {
			return fmt.Errorf("warm-up admission %d: %w", i, err)
		}
		if err := release(client, cr.SessURL, a.EID); err != nil {
			return fmt.Errorf("warm-up release %d: %w", i, err)
		}
	}
	return nil
}

// runChurn is the whole churn run: set up `setups` times (keeping the
// last), drive the load, check every output, optionally measure crash
// recovery, and in a traced run replay the requests in-process.
func runChurn(r *runEnv, w churnSpec) (*outcome, error) {
	out := newOutcome()
	client := loadClient(conns())
	defer client.CloseIdleConnections()

	var cr *churnRun
	var setupS []float64
	for k := 0; k < setups; k++ {
		if cr != nil {
			cr.stopAll()
			if cr.DataDir != "" {
				_ = os.RemoveAll(cr.DataDir) // scratch; the run dir is removed at exit anyway
			}
			cr = nil
			client.CloseIdleConnections()
		}
		// Every set-up starts from the same empty heap, so each pays
		// for the same garbage collections.
		runtime.GC()
		t0 := time.Now()
		next, err := r.setUp(w, client, k)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cr = next
	}
	defer cr.stopAll()
	out.E2E["setup_s"] = metric{median(setupS), "s"}

	before, err := scrapeMetrics(client, cr.D.base)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if self, err := vmHWM("/proc/self/status"); err == nil {
		out.Extra["loadgen.setup_mem_peak_mb"] = metric{self, "MB"}
	}
	var lr *loadResult
	if w.Open {
		lr = runOpenLoop(client, cr.SessURL, cr.In.Reqs, cr.In.Ops, cr.In.NAdmit, conns(), w.SampleEvery)
	} else {
		lr = runClosedLoop(client, cr.SessURL, cr.In.Reqs, closedLoopPlan{
			Conns: conns(), Duration: r.duration(), Live: w.Live, RebalanceEvery: w.RebalanceEvery, SampleEvery: w.SampleEvery,
		})
	}
	after, err := scrapeMetrics(client, cr.D.base)
	if err != nil {
		return nil, err
	}
	peak, err := cr.D.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if self, err := vmHWM("/proc/self/status"); err == nil {
		out.Extra["loadgen.mem_peak_mb"] = metric{self, "MB"}
	}
	code, residBody, err := do(client, http.MethodGet, cr.SessURL+"/residuals", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("final residuals: status %d err %v", code, err)
	}

	loadFigures(out, w, lr, peak)
	checkChurn(out, w, cr.In, lr, residBody)
	daemonLayers(out, w, before, after, lr)
	cr.stopAll()
	if w.DurableAdmissions > 0 {
		if err := r.durableRecovery(out, w, cr.In, client); err != nil {
			return nil, err
		}
	}
	if r.Trace {
		if err := r.traceChurn(out, w, cr.In); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (cr *churnRun) stopAll() {
	if cr != nil {
		cr.D.stop()
	}
}

// loadFigures fills the end-to-end metrics from one load run.
func loadFigures(out *outcome, w churnSpec, lr *loadResult, peakMB float64) {
	adm := sortedCopy(lr.AdmitMS)
	t, windows := windowedTail(lr.AdmitMS, 99, tailWindows)
	out.E2E["admit_p50_ms"] = metric{percentile(adm, 50), "ms"}
	out.Extra["admit_p99_ms"] = metric{t.Value, "ms"}
	out.note("admit_p50_ms over %d acked admissions; admit_p99_ms is the median of %d consecutive windows' tails, this one %s", len(adm), windows, t)
	out.E2E["admits_per_s"] = metric{float64(len(lr.AdmitMS)) / lr.Wall, "1/s"}
	out.E2E["objective_mean"] = metric{mean(lr.Objectives), "MIPS"}
	out.Series["objective"] = lr.Objectives
	out.Series["admit_ms"] = lr.AdmitMS
	out.note("objective_mean averages %d residual samples, one every %d acked admissions", len(lr.Objectives), w.SampleEvery)
	out.E2E["mem_peak_mb"] = metric{peakMB, "MB"}

	rel := sortedCopy(lr.ReleaseMS)
	rt := tailOf(rel, 99)
	out.Extra["release_p50_ms"] = metric{percentile(rel, 50), "ms"}
	out.Extra["release_p99_ms"] = metric{rt.Value, "ms"}
	out.note("release_p99_ms is %s", rt)
	if w.RebalanceEvery > 0 {
		out.Extra["rebalance_p50_ms"] = metric{median(lr.RebalMS), "ms"}
		out.note("rebalance_p50_ms over %d one-shot rounds", len(lr.RebalMS))
	}
	attempted := len(lr.Admissions)
	out.Extra["admit_refused_ratio"] = metric{float64(lr.Refused) / float64(max(1, attempted)), "ratio"}
	out.note("admit_refused_ratio = %d refused / %d attempted", lr.Refused, attempted)
	if w.Open {
		late := sortedCopy(lr.LateMS)
		out.Extra["loadgen.late_p99_ms"] = metric{tailOf(late, 99).Value, "ms"}
	}
	out.Attempted = attempted + len(lr.ReleaseMS) + lr.RelFailed + len(lr.RebalMS) + lr.RebFailed
	out.Failed = lr.Refused + lr.RelFailed + lr.RebFailed
	for _, e := range lr.Errs {
		out.note("operation error: %s", e)
	}
}

// checkChurn checks the load run: the generator kept up, and every ack
// and the final residuals are right.
func checkChurn(out *outcome, w churnSpec, in *churnInputs, lr *loadResult, residBody []byte) {
	if w.Open {
		grows, q := backlogGrows(lr.LateMS)
		out.note("generator lateness medians by quarter: %.3f %.3f %.3f %.3f ms", q[0], q[1], q[2], q[3])
		out.check(!grows, "open-loop lateness grew through the run (%.3f -> %.3f ms): the generator fell behind", q[0], q[3])
	}
	out.check(len(lr.AdmitMS) > 0, "no admission was acked")
	out.check(len(lr.Objectives) > 0, "no objective sample was taken")
	checkState(out, "load", in, lr.Admissions, residBody, w.RebalanceEvery > 0)
}

// checkState checks every ack against Eq. (1)-(9) and the final
// residuals against capacity minus the live acked demands; with
// totalOnly, only their sum, because rebalance rounds moved guests
// after their acks.
func checkState(out *outcome, what string, in *churnInputs, adms []*admission, residBody []byte, totalOnly bool) {
	var live []*mapping.Mapping
	bad := 0
	for _, a := range adms {
		if !a.OK {
			continue
		}
		m, err := in.checkAck(a.Req, a.Ack)
		a.Ack = nil
		if err != nil {
			if bad++; bad <= 3 {
				out.check(false, "%s: ack %s: %v", what, a.EID, err)
			}
			continue
		}
		if !a.Released {
			live = append(live, m)
		}
	}
	out.check(bad == 0, "%s: %d acked mappings failed their check", what, bad)

	var rr server.ResidualsResponse
	if err := json.Unmarshal(residBody, &rr); err != nil {
		out.check(false, "%s: final residuals: %v", what, err)
		return
	}
	out.check(rr.ActiveEnvs == len(live), "%s: final residuals report %d active envs, the generator holds %d", what, rr.ActiveEnvs, len(live))
	want := expectedResiduals(in.C, live)
	out.check(len(rr.ResidualProcMIPS) == len(want), "%s: final residuals have %d hosts, want %d", what, len(rr.ResidualProcMIPS), len(want))
	if len(rr.ResidualProcMIPS) != len(want) {
		return
	}
	if totalOnly {
		// Rebalance rounds move guests between hosts after their acks,
		// so only the total is known from the acks; a traced run checks
		// the per-host state by recovering its replay's WAL.
		got, exp := 0.0, 0.0
		for i := range want {
			got, exp = got+rr.ResidualProcMIPS[i], exp+want[i]
		}
		out.check(within(got, exp, 1e-6), "%s: final total residual CPU %.9f, acks imply %.9f", what, got, exp)
		return
	}
	for i := range want {
		if !within(rr.ResidualProcMIPS[i], want[i], 1e-6) {
			out.check(false, "%s: final residual of host %d is %.9f, acks imply %.9f", what, i, rr.ResidualProcMIPS[i], want[i])
			return
		}
	}
}

// checkAck decodes an ack and checks its mapping against Eq. (1)-(9)
// on the cluster, for the environment that was requested.
func (in *churnInputs) checkAck(req int, body []byte) (*mapping.Mapping, error) {
	var resp server.MapEnvResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	m, err := resp.Mapping.ToMapping(in.C, in.Reqs[req].Env)
	if err != nil {
		return nil, err
	}
	return m, m.Validate(cluster.VMMOverhead{})
}

func within(a, b, tol float64) bool { return a-b <= tol && b-a <= tol }

// expectedResiduals is every host's CPU capacity minus the demands of
// the live mappings' guests on it, in host order.
func expectedResiduals(c *cluster.Cluster, live []*mapping.Mapping) []float64 {
	out := make([]float64, c.NumHosts())
	for i, h := range c.Hosts() {
		out[i] = h.Proc
	}
	for _, m := range live {
		for g, node := range m.GuestHost {
			out[c.HostIdx(node)] -= m.Env.Guests()[g].Proc
		}
	}
	return out
}

// daemonLayers reads per-layer figures from the daemon's /metrics,
// diffed over the load run.
func daemonLayers(out *outcome, w churnSpec, before, after scrape, lr *loadResult) {
	acked := float64(len(lr.AdmitMS))
	mapMean, _ := histMean(before, after, "hmnd_map_latency_seconds")
	out.Extra["hmnd.map_mean_ms"] = metric{mapMean * 1000, "ms"}
	commitMean, _ := histMean(before, after, "hmnd_commit_latency_seconds")
	out.Extra["hmnd.commit_mean_ms"] = metric{commitMean * 1000, "ms"}
	out.Extra["core.conflicts_per_admit"] = metric{delta(before, after, "hmnd_admit_conflicts_total") / acked, "count"}
	out.Extra["core.fallback_ratio"] = metric{delta(before, after, "hmnd_admit_fallbacks_total") / acked, "ratio"}
	hits := delta(before, after, "hmnd_ar_cache_hits_total")
	misses := delta(before, after, "hmnd_ar_cache_misses_total")
	out.Extra["hmnd.ar_cache_hit_ratio"] = metric{hits / max(1, hits+misses), "ratio"}
	if w.Durable {
		walFigures(out, before, after, acked+float64(len(lr.ReleaseMS)+len(lr.RebalMS)))
	}
	if w.RebalanceEvery > 0 {
		roundMean, rounds := histMean(before, after, "hmnd_rebalance_round_seconds")
		planned := delta(before, after, "hmnd_rebalance_planned_units_total")
		out.Extra["rebalance.round_ms"] = metric{roundMean * 1000, "ms"}
		out.Extra["rebalance.moves_per_round"] = metric{delta(before, after, "hmnd_rebalance_moves_total") / max(1, rounds), "count"}
		out.Extra["rebalance.abort_ratio"] = metric{delta(before, after, "hmnd_rebalance_aborts_total") / max(1, planned), "ratio"}
		out.note("rebalance figures over %.0f rounds, %.0f planned units", rounds, planned)
	}
}

// walFigures reads the daemon's WAL figures, diffed over acks acked
// admissions, releases and rebalances.
func walFigures(out *outcome, before, after scrape, acks float64) {
	fsyncMean, fsyncs := histMean(before, after, "hmnd_wal_fsync_seconds")
	out.Extra["hmnd.fsync_mean_ms"] = metric{fsyncMean * 1000, "ms"}
	out.Extra["wal.fsyncs_per_ack"] = metric{fsyncs / acks, "ratio"}
	out.note("wal.fsyncs_per_ack = %.0f fsyncs / %.0f acked admissions, releases and rebalances", fsyncs, acks)
	out.Extra["wal.records_per_ack"] = metric{delta(before, after, "hmnd_wal_records_total") / acks, "ratio"}
}

// durableRecovery replays the first DurableAdmissions admissions of the
// run's schedule, with their releases, in due order over one
// connection against a fresh hmnd with -data-dir, so every ack waits
// for its fsync. It checks every ack and the final residuals, then
// measures crash recovery on a copy of the data directory.
func (r *runEnv) durableRecovery(out *outcome, w churnSpec, in *churnInputs, client *http.Client) error {
	dir, err := r.dir("durable")
	if err != nil {
		return err
	}
	cr, err := r.startChurn(client, in, dir, "hmnd-durable.log")
	if err != nil {
		return err
	}
	defer cr.stopAll()
	before, err := scrapeMetrics(client, cr.D.base)
	if err != nil {
		return err
	}
	steps := w.replaySteps(in, w.DurableAdmissions)
	adms := make([]*admission, 0, w.DurableAdmissions)
	byAdm := map[int]*admission{}
	var admitMS, releaseMS []float64
	for _, st := range steps {
		if st.Kind == opAdmit {
			a := &admission{Req: st.Req}
			adms = append(adms, a)
			byAdm[st.Adm] = a
			out.Attempted++
			t0 := time.Now()
			if err := admit(client, cr.SessURL, in.Reqs[st.Req].Body, a); err != nil {
				out.Failed++
				out.note("durable admission %d: %v", st.Req, err)
				continue
			}
			admitMS = append(admitMS, ms(time.Since(t0)))
			continue
		}
		a := byAdm[st.Adm]
		if !a.OK {
			continue // its admission was refused
		}
		out.Attempted++
		t0 := time.Now()
		if err := release(client, cr.SessURL, a.EID); err != nil {
			out.Failed++
			out.note("durable release %s: %v", a.EID, err)
			continue
		}
		releaseMS = append(releaseMS, ms(time.Since(t0)))
		a.Released = true
	}
	after, err := scrapeMetrics(client, cr.D.base)
	if err != nil {
		return err
	}
	code, residBody, err := do(client, http.MethodGet, cr.SessURL+"/residuals", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("durable residuals: status %d err %v", code, err)
	}
	out.check(len(admitMS) > 0, "durable run: no admission was acked")
	checkState(out, "durable run", in, adms, residBody, false)
	out.Extra["durable.admit_p50_ms"] = metric{median(admitMS), "ms"}
	out.Extra["durable.release_p50_ms"] = metric{median(releaseMS), "ms"}
	out.note("durable.admit_p50_ms over %d serial admissions on one connection, each ack after its fsync", len(admitMS))
	walFigures(out, before, after, float64(len(admitMS)+len(releaseMS)))
	return r.recoverCopy(out, cr, client, residBody, after)
}

// recoverCopy copies the data directory once every ack is in, starts a
// fresh hmnd on the copy and times it until /v1/healthz answers
// serving; the recovered residuals must match byte for byte.
func (r *runEnv) recoverCopy(out *outcome, cr *churnRun, client *http.Client, residBody []byte, after scrape) error {
	copyDir, err := r.dir("recovered")
	if err != nil {
		return err
	}
	if err := copyTree(cr.DataDir, copyDir); err != nil {
		return err
	}
	t0 := time.Now()
	d, err := startDaemon(r.Hmnd, filepath.Join(r.Work, "hmnd-recovered.log"), "-data-dir", copyDir)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := d.waitServing(client, 60*time.Second); err != nil {
		return err
	}
	recoverS := time.Since(t0).Seconds()
	out.Extra["recover_s"] = metric{recoverS, "s"}
	code, body, err := do(client, http.MethodGet, d.base+cr.SessPath+"/residuals", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("recovered residuals: status %d err %v", code, err)
	}
	out.check(bytes.Equal(body, residBody), "recovered residuals differ from those before the copy")
	m, err := scrapeMetrics(client, d.base)
	if err != nil {
		return err
	}
	recs := m["hmnd_replay_records_total"]
	out.Extra["hmnd.replay_records_per_s"] = metric{recs / recoverS, "1/s"}
	out.note("recover_s replayed %.0f records (%.0f were logged)", recs, delta(scrape{}, after, "hmnd_wal_records_total"))
	return nil
}

// copyTree copies the regular files of src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		o, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(o, in); err != nil {
			o.Close()
			return err
		}
		return o.Close()
	})
}

// replaySteps is the serial form of the workload's request sequence,
// cut to its first admissions admissions.
func (w churnSpec) replaySteps(in *churnInputs, admissions int) []step {
	n := min(admissions, len(in.Reqs))
	var steps []step
	if w.Open {
		n = min(admissions, in.NAdmit)
		for _, o := range in.Ops {
			if o.Env < n {
				steps = append(steps, step{Kind: o.Kind, Req: o.Env, Adm: o.Env})
			}
		}
		return steps
	}
	var fifo []int
	for i := 0; i < admissions; i++ {
		steps = append(steps, step{Kind: opAdmit, Req: i % n})
		fifo = append(fifo, i)
		if len(fifo) > w.Live {
			steps = append(steps, step{Kind: opRelease, Adm: fifo[0]})
			fifo = fifo[1:]
		}
		if w.RebalanceEvery > 0 && (i+1)%w.RebalanceEvery == 0 {
			steps = append(steps, step{Rebalance: true})
		}
	}
	return steps
}

// traceChurn replays the run's requests in-process and reports the
// per-layer split of an admission.
func (r *runEnv) traceChurn(out *outcome, w churnSpec, in *churnInputs) error {
	steps := w.replaySteps(in, w.ReplayAdmissions)
	k := min(w.StageEnvs, len(in.Reqs))
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	lay, _, err := r.traceLayers(out, w.Name, in.C, in.Reqs, steps, idx)
	if err != nil {
		return err
	}
	// Shares of one admission, each against the p50 of a durable ack,
	// since the replay's admissions wait for their fsync too.
	baseName := "admit_p50_ms"
	base := out.E2E[baseName].Value
	if !w.Durable {
		baseName = "durable.admit_p50_ms"
		base = out.Extra[baseName].Value
	}
	httpMS := base - lay.untracedP50
	out.Extra["server.http_ms"] = metric{httpMS, "ms"}
	out.note("server.http_ms = %s %.4f - untraced in-process pipeline p50 %.4f", baseName, base, lay.untracedP50)
	for _, s := range []struct {
		name string
		v    float64
	}{{"spec", lay.specMS}, {"core", lay.coreMS}, {"wal", lay.walMS}, {"http", httpMS}} {
		out.Extra["share."+s.name+"_pct"] = metric{100 * s.v / base, "%"}
	}
	out.note("shares are of %s = %.4f ms: spec = decode+encode self, core = MapTagged self (WAL append excluded), wal = append+barrier; medians per admission", baseName, base)
	return nil
}

// layerSplit is the median per-admission self time of each layer in a
// traced replay, and the untraced pipeline's median.
type layerSplit struct {
	specMS, coreMS, walMS float64
	untracedP50           float64
}

// traceLayers runs the replay untraced then traced, the stage split and
// the WAL replay, and fills the per-layer metrics common to every
// workload.
func (r *runEnv) traceLayers(out *outcome, name string, c *cluster.Cluster, reqs []request, steps []step, stageIdx []int) (*layerSplit, *stageSplit, error) {
	var pipes [2]*pipeline
	for i, traced := range []bool{false, true} {
		dir, err := r.dir(fmt.Sprintf("replay-%d", i))
		if err != nil {
			return nil, nil, err
		}
		p, err := newPipeline(c, dir, newRecorder(traced))
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		err = p.run(reqs, steps)
		if cerr := p.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		pipes[i] = p
	}
	plain, tr := pipes[0], pipes[1]
	d := tr.dig.sums()
	out.check(plain.dig.sums() == d, "traced and untraced replays placed or routed differently")
	key := fmt.Sprintf("%s/replay/seed-%d/n-%d", name, r.Seed, len(plain.AdmitTotal))
	out.Digests[key] = d
	checkDigest(out, r.Root, key, d)

	spans := tr.rec.spans
	out.Spans = spans
	self := selfTimes(spans)
	byName := func(n string, useSelf bool, scale float64) []float64 {
		var xs []float64
		for i, s := range spans {
			if s.Name == n && (n != "wal.append" || spans[s.Parent].Name == "core.map") {
				v := s.End - s.Start
				if useSelf {
					v = self[i]
				}
				xs = append(xs, float64(v)*scale)
			}
		}
		return xs
	}
	const toMS, toUS = 1e-6, 1e-3
	untracedP50 := median(plain.AdmitTotal)
	tracedP50 := median(tr.AdmitTotal)
	L := out.Layer
	L["spec.decode_ms"] = metric{median(byName("spec.decode", true, toMS)), "ms"}
	L["spec.encode_ms"] = metric{median(byName("spec.encode", true, toMS)), "ms"}
	L["core.map_ms"] = metric{median(byName("core.map", false, toMS)), "ms"}
	L["core.lock_ms"] = metric{median(tr.LockMS), "ms"}
	L["core.release_ms"] = metric{median(byName("core.release", false, toMS)), "ms"}
	st := tr.sess.AdmissionStats()
	L["core.ar_cache_hit_ratio"] = metric{float64(st.ARCacheHits) / float64(max(1, st.ARCacheHits+st.ARCacheMisses)), "ratio"}
	L["wal.append_us"] = metric{median(byName("wal.append", false, toUS)), "us"} // admission records
	L["wal.fsync_ms"] = metric{median(byName("wal.barrier", false, toMS)), "ms"}
	L["trace.overhead_pct"] = metric{100 * (tracedP50 - untracedP50) / untracedP50, "%"}
	out.note("replay: %d admissions; traced p50 %.4f ms, untraced p50 %.4f ms", len(tr.AdmitTotal), tracedP50, untracedP50)
	if tr.Rounds > 0 {
		out.Extra["replay.rebalance_moves_per_round"] = metric{float64(tr.RoundMoves) / float64(tr.Rounds), "count"}
		out.Extra["replay.rebalance_abort_ratio"] = metric{float64(tr.Aborts) / float64(max(1, tr.Planned)), "ratio"}
	}

	bytesW, err := walBytes(tr.dir)
	if err != nil {
		return nil, nil, err
	}
	L["wal.bytes_per_admit"] = metric{float64(bytesW) / float64(len(tr.AdmitTotal)), "bytes"}
	rate, resid, err := replayRate(tr.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("WAL replay: %w", err)
	}
	L["wal.replay_records_per_s"] = metric{rate, "1/s"}
	out.check(equalFloats(resid, tr.sess.ResidualProc()), "WAL replay of the traced run recovered different residuals")

	ss, err := runStageSplit(c, reqs, stageIdx)
	if err != nil {
		return nil, nil, err
	}
	stageFigures(out, ss)

	// Per-admission self time by layer, medians across admissions.
	var specMS, coreMS, walMS []float64
	specBy := selfByName(spans, self, "spec.decode", "spec.encode")
	coreBy := selfByName(spans, self, "core.map")
	walBy := selfByName(spans, self, "wal.append", "wal.barrier")
	roots := make([]int32, 0, len(specBy))
	for root := range specBy {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, root := range roots {
		specMS = append(specMS, float64(specBy[root])*toMS)
		coreMS = append(coreMS, float64(coreBy[root])*toMS)
		walMS = append(walMS, float64(walBy[root])*toMS)
	}
	return &layerSplit{specMS: median(specMS), coreMS: median(coreMS), walMS: median(walMS), untracedP50: untracedP50}, ss, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stageFigures fills the HMN stage and graph metrics from a stage split.
func stageFigures(out *outcome, ss *stageSplit) {
	L := out.Layer
	L["core.hosting_s"] = metric{median(ss.Hosting), "s"}
	L["core.migration_s"] = metric{median(ss.Migration), "s"}
	L["core.networking_s"] = metric{median(ss.Networking), "s"}
	L["core.migration_moves"] = metric{mean(ss.Moves), "count"}
	L["core.networking_par_s"] = metric{median(ss.NetworkingPar), "s"}
	maps := float64(len(ss.Networking))
	L["graph.searches"] = metric{float64(ss.Searches) / maps, "count"}
	total := 0.0
	for _, s := range ss.Networking {
		total += s
	}
	L["graph.us_per_search"] = metric{total * 1e6 / float64(max(1, ss.Searches)), "us"}
	L["graph.path_hops_mean"] = metric{float64(ss.Hops) / float64(max(1, ss.Searches)), "count"}
	out.note("stage split: %.0f one-shot maps, %d A*Prune searches; core.networking_par_s routes at RouteWorkers = %d", maps, ss.Searches, runtime.NumCPU())
}
