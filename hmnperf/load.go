package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// admission is one admission request's fate.
type admission struct {
	Req      int    // index into the request pool
	EID      string // environment ID from the ack
	Ack      []byte // the ack body, compacted; decoded and checked after the run
	OK       bool
	Released bool
	done     chan struct{} // open loop: closed once the ack (or refusal) is in
}

// loadResult is what one load run observed. Latencies are in ms.
type loadResult struct {
	Admissions []*admission // in submission order
	AdmitMS    []float64    // acked admissions only
	ReleaseMS  []float64
	RebalMS    []float64
	LateMS     []float64 // open loop: per operation, in due order
	Objectives []float64 // residual stddev every SampleEvery acks
	Refused    int       // non-2xx or transport-failed admissions
	RelFailed  int
	RebFailed  int
	Wall       float64 // seconds from the first due time to the last completion
	Errs       []string
}

// loadClient returns an HTTP client holding at most conns connections.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// envID pulls the environment ID out of an ack without decoding the
// whole mapping: the encoder writes "id" first.
func envID(body []byte) (string, error) {
	head := body[:min(len(body), 128)]
	i := bytes.Index(head, []byte(`"id"`))
	if i < 0 {
		return "", fmt.Errorf("ack does not start with an id: %.40q", body)
	}
	rest := head[i+len(`"id"`):]
	a := bytes.IndexByte(rest, '"')
	if a < 0 {
		return "", errors.New("ack id is unterminated")
	}
	b := bytes.IndexByte(rest[a+1:], '"')
	if b < 0 {
		return "", errors.New("ack id is unterminated")
	}
	return string(rest[a+1 : a+1+b]), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// collector gathers observations from the load goroutines.
type collector struct {
	mu  sync.Mutex
	res loadResult
}

func (c *collector) add(dst *[]float64, v float64) {
	c.mu.Lock()
	*dst = append(*dst, v)
	c.mu.Unlock()
}

func (c *collector) fail(counter *int, format string, args ...any) {
	c.mu.Lock()
	*counter++
	if len(c.res.Errs) < 10 {
		c.res.Errs = append(c.res.Errs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// sampleObjective reads the session's Eq. (10) stddev.
func (c *collector) sampleObjective(client *http.Client, sessURL string) {
	code, body, err := do(client, http.MethodGet, sessURL+"/residuals", nil)
	var rr server.ResidualsResponse
	if err == nil && code == http.StatusOK && json.Unmarshal(body, &rr) == nil {
		c.add(&c.res.Objectives, rr.StdDev)
		return
	}
	c.mu.Lock()
	c.res.Errs = append(c.res.Errs, fmt.Sprintf("objective sample: status %d err %v", code, err))
	c.mu.Unlock()
}

// admit posts one body and records the ack. The daemon indents its
// JSON; compacting it keeps a run's acks a quarter the size until they
// are checked, for far less work than decoding them here would cost.
func admit(client *http.Client, sessURL string, body []byte, a *admission) error {
	code, resp, err := do(client, http.MethodPost, sessURL+"/envs", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusCreated {
		return fmt.Errorf("status %d: %.200s", code, resp)
	}
	eid, err := envID(resp)
	if err != nil {
		return err
	}
	var ack bytes.Buffer
	if err := json.Compact(&ack, resp); err != nil {
		return fmt.Errorf("ack %s: %w", eid, err)
	}
	a.EID, a.Ack, a.OK = eid, bytes.Clone(ack.Bytes()), true
	return nil
}

// release deletes one acked environment.
func release(client *http.Client, sessURL, eid string) error {
	code, resp, err := do(client, http.MethodDelete, sessURL+"/envs/"+eid, nil)
	if err != nil {
		return err
	}
	if code != http.StatusNoContent && code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", code, resp)
	}
	return nil
}

// runOpenLoop plays a due-time schedule over conns workers. An
// operation a worker takes up after its due time was held back by the
// daemon, and its latency counts from the due time, so a stall charges
// the wait it imposes on every later operation too. An operation whose
// worker was idle counts from when the worker's timer woke it: Go's
// timers fire up to a millisecond late, and that lateness is the
// generator's (reported as loadgen.late_p99_ms), not the daemon's.
func runOpenLoop(client *http.Client, sessURL string, reqs []request, ops []op, nAdmit, conns, sampleEvery int) *loadResult {
	c := &collector{}
	adm := make([]*admission, nAdmit)
	for i := range adm {
		adm[i] = &admission{Req: i, done: make(chan struct{})}
	}
	late := make([]float64, len(ops))
	var next, acked atomic.Int64
	var lastDone atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := start.Add(o.Due)
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					from = time.Now()
				}
				a := adm[o.Env]
				switch o.Kind {
				case opAdmit:
					late[i] = ms(time.Since(due))
					err := admit(client, sessURL, reqs[o.Env].Body, a)
					lat := ms(time.Since(from))
					close(a.done)
					if err != nil {
						c.fail(&c.res.Refused, "admit %d: %v", o.Env, err)
						break
					}
					c.add(&c.res.AdmitMS, lat)
					if acked.Add(1)%int64(sampleEvery) == 0 {
						c.sampleObjective(client, sessURL)
					}
				case opRelease:
					<-a.done
					late[i] = max(0, ms(time.Since(due)))
					if !a.OK {
						continue
					}
					if err := release(client, sessURL, a.EID); err != nil {
						c.fail(&c.res.RelFailed, "release %s: %v", a.EID, err)
						break
					}
					c.add(&c.res.ReleaseMS, ms(time.Since(from)))
					a.Released = true
				}
				lastDone.Store(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	c.res.Admissions = adm
	c.res.LateMS = late
	c.res.Wall = time.Duration(lastDone.Load()).Seconds()
	return &c.res
}

// closedLoopPlan shapes a closed-loop run.
type closedLoopPlan struct {
	Conns          int
	Duration       time.Duration
	Live           int // live environments kept; the oldest is released beyond it
	RebalanceEvery int // a one-shot rebalance follows every n-th admission (0 = never)
	SampleEvery    int // acked admissions between objective samples
}

// runClosedLoop keeps conns requests in flight until the duration
// ends: each worker admits the next pooled body, then releases the
// oldest live environment once more than Live are deployed. An
// environment whose release failed is still deployed and still counts.
func runClosedLoop(client *http.Client, sessURL string, reqs []request, p closedLoopPlan) *loadResult {
	c := &collector{}
	var (
		fifoMu sync.Mutex
		fifo   []*admission
		stuck  int // environments whose release failed: still deployed
		next   atomic.Int64
		acked  atomic.Int64
		// relMu keeps the one-shot rebalance from overlapping a release:
		// hmnd's release handler reads the environment's mapping before a
		// concurrent rebalance commit has replaced it, answers 404 and
		// leaves the environment deployed for good. Releases share the
		// lock; a rebalance takes it alone.
		relMu sync.RWMutex
	)
	start := time.Now()
	deadline := start.Add(p.Duration)
	var wg sync.WaitGroup
	var lastDone atomic.Int64
	for w := 0; w < p.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				a := &admission{Req: n % len(reqs)}
				t0 := time.Now()
				err := admit(client, sessURL, reqs[a.Req].Body, a)
				lat := ms(time.Since(t0))
				c.mu.Lock()
				c.res.Admissions = append(c.res.Admissions, a)
				c.mu.Unlock()
				if err != nil {
					c.fail(&c.res.Refused, "admit %d: %v", n, err)
					continue
				}
				c.add(&c.res.AdmitMS, lat)
				k := acked.Add(1)

				fifoMu.Lock()
				fifo = append(fifo, a)
				var victim *admission
				if len(fifo)+stuck > p.Live && len(fifo) > 0 {
					victim, fifo = fifo[0], fifo[1:]
				}
				fifoMu.Unlock()
				if victim != nil {
					relMu.RLock()
					t0 = time.Now()
					err := release(client, sessURL, victim.EID)
					lat := ms(time.Since(t0))
					relMu.RUnlock()
					if err != nil {
						// The environment stays deployed, so it keeps
						// counting against Live: the daemon holds Live
						// environments whatever their releases did.
						fifoMu.Lock()
						stuck++
						fifoMu.Unlock()
						c.fail(&c.res.RelFailed, "release %s: %v", victim.EID, err)
					} else {
						c.add(&c.res.ReleaseMS, lat)
						victim.Released = true
					}
				}
				if p.RebalanceEvery > 0 && k%int64(p.RebalanceEvery) == 0 {
					relMu.Lock()
					t0 = time.Now()
					code, body, err := do(client, http.MethodPost, sessURL+"/rebalance", nil)
					lat := ms(time.Since(t0))
					relMu.Unlock()
					if err != nil || code != http.StatusOK {
						c.fail(&c.res.RebFailed, "rebalance: status %d err %v: %.200s", code, err, body)
					} else {
						c.add(&c.res.RebalMS, lat)
					}
				}
				if k%int64(p.SampleEvery) == 0 {
					c.sampleObjective(client, sessURL)
				}
				lastDone.Store(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	c.res.Wall = time.Duration(lastDone.Load()).Seconds()
	return &c.res
}

// backlogGrows reports whether the generator's lateness rose in every
// quarter of the run and ended more than 2 ms above where it started:
// the run then measured the generator's backlog, not the daemon.
func backlogGrows(lateMS []float64) (bool, [4]float64) {
	var q [4]float64
	n := len(lateMS)
	if n < 8 {
		return false, q
	}
	for i := range q {
		q[i] = median(lateMS[i*n/4 : (i+1)*n/4])
	}
	rising := q[0] < q[1] && q[1] < q[2] && q[2] < q[3]
	return rising && q[3]-q[0] > 2, q
}
