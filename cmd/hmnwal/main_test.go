package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestVerifyMatchesDaemonRecovery builds a data directory holding a
// snapshot plus a log suffix — admissions, releases, a rebalance and a
// closed session on both sides of the snapshot — then checks that
// hmnwal verify and the daemon's Recover rebuild the same sessions with
// bit-identical residuals from the same number of replayed records.
func TestVerifyMatchesDaemonRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Workers: 2, QueueDepth: 16, DataDir: dir, VerifyReplay: true, Logf: t.Logf}
	rng := rand.New(rand.NewSource(3))
	c, err := topology.Torus2D(workload.GenerateHosts(workload.PaperClusterParams(), rng), 8, 5, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	cs := spec.FromCluster(c)
	env := func(seed int64) server.MapEnvRequest {
		return server.MapEnvRequest{Env: spec.FromEnv(workload.GenerateEnv(workload.HighLevelParams(8, 0.3), rand.New(rand.NewSource(seed))))}
	}

	// Phase 1, closed gracefully: its final snapshot covers everything.
	d := startDaemon(t, cfg)
	s1 := d.open(server.OpenSessionRequest{Cluster: cs})
	s2 := d.open(server.OpenSessionRequest{Cluster: cs, Mapper: "HMN-C"})
	var s1envs []string
	for i := int64(0); i < 4; i++ {
		s1envs = append(s1envs, d.admit(s1, env(i)))
	}
	d.admit(s2, env(10))
	d.must("DELETE", "/v1/sessions/"+s1+"/envs/"+s1envs[0], http.StatusNoContent)
	d.stop(true)

	// Phase 2, killed: the log suffix on top of the snapshot.
	d = startDaemon(t, cfg)
	d.admit(s1, env(20))
	d.must("DELETE", "/v1/sessions/"+s1+"/envs/"+s1envs[1], http.StatusNoContent)
	d.must("POST", "/v1/sessions/"+s1+"/rebalance", http.StatusOK)
	s3 := d.open(server.OpenSessionRequest{Cluster: cs})
	d.admit(s3, env(30))
	d.must("DELETE", "/v1/sessions/"+s2, http.StatusNoContent)
	d.stop(false)

	rb, err := verify(io.Discard, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Replayed == 0 {
		t.Fatal("the directory left no log suffix to replay")
	}
	d = startDaemon(t, cfg)
	defer d.stop(true)
	var sids []string
	for _, rs := range rb.Sessions {
		sids = append(sids, rs.SID)
		var got server.ResidualsResponse
		if err := json.Unmarshal(d.must("GET", "/v1/sessions/"+rs.SID+"/residuals", http.StatusOK), &got); err != nil {
			t.Fatal(err)
		}
		want := rs.Core.ResidualProc()
		if len(got.ResidualProcMIPS) != len(want) {
			t.Fatalf("session %s: daemon has %d hosts, hmnwal %d", rs.SID, len(got.ResidualProcMIPS), len(want))
		}
		for i := range want {
			if got.ResidualProcMIPS[i] != want[i] {
				t.Fatalf("session %s host %d: daemon residual %v, hmnwal %v", rs.SID, i, got.ResidualProcMIPS[i], want[i])
			}
		}
		if got.ActiveEnvs != rs.Core.Active() {
			t.Fatalf("session %s: daemon holds %d environments, hmnwal %d", rs.SID, got.ActiveEnvs, rs.Core.Active())
		}
	}
	if strings.Join(sids, ",") != s1+","+s3 {
		t.Fatalf("hmnwal rebuilt sessions %v, want %s and %s", sids, s1, s3)
	}
	d.must("GET", "/v1/sessions/"+s2+"/residuals", http.StatusNotFound)
	if got := d.metric("hmnd_replay_records_total"); got != rb.Replayed {
		t.Fatalf("daemon replayed %d records, hmnwal %d", got, rb.Replayed)
	}
}

// daemon is one in-process hmnd over a loopback listener.
type daemon struct {
	t  *testing.T
	s  *server.Server
	ts *httptest.Server
}

func startDaemon(t *testing.T, cfg server.Config) *daemon {
	t.Helper()
	s := server.New(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return &daemon{t: t, s: s, ts: httptest.NewServer(s.Handler())}
}

// stop shuts the listener down; graceful also closes the daemon, which
// takes a final snapshot. A non-graceful stop leaves the data directory
// as a kill -9 would — everything acknowledged is already fsynced — and
// closes the daemon only once the test is over.
func (d *daemon) stop(graceful bool) {
	d.ts.Close()
	if graceful {
		d.s.Close()
	} else {
		d.t.Cleanup(func() { d.s.Close() })
	}
}

// must sends a body-less request and fails unless the status matches,
// returning the response body.
func (d *daemon) must(method, path string, want int) []byte {
	return d.do(method, path, nil, want)
}

// do is must with a JSON request body (nil sends none).
func (d *daemon) do(method, path string, body interface{}, want int) []byte {
	d.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			d.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, d.ts.URL+path, rd)
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		d.t.Fatalf("%s %s: %d %s, want %d", method, path, resp.StatusCode, raw, want)
	}
	return raw
}

func (d *daemon) open(req server.OpenSessionRequest) string {
	d.t.Helper()
	var out server.OpenSessionResponse
	if err := json.Unmarshal(d.do("POST", "/v1/sessions", req, http.StatusCreated), &out); err != nil {
		d.t.Fatal(err)
	}
	return out.ID
}

func (d *daemon) admit(sid string, req server.MapEnvRequest) string {
	d.t.Helper()
	var out server.MapEnvResponse
	if err := json.Unmarshal(d.do("POST", "/v1/sessions/"+sid+"/envs", req, http.StatusOK), &out); err != nil {
		d.t.Fatal(err)
	}
	return out.ID
}

// metric reads one integer series from /metrics.
func (d *daemon) metric(series string) int {
	d.t.Helper()
	for _, line := range strings.Split(string(d.must("GET", "/metrics", http.StatusOK)), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				d.t.Fatal(err)
			}
			return int(v)
		}
	}
	d.t.Fatalf("series %s not found", series)
	return 0
}
