package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one hmnd process the benchmark started. stop kills it and
// waits until it has exited.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches bin with its default flags plus -addr and the
// given extra arguments, logging to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// If the benchmark dies without stopping it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: lf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon says nothing
		close(d.exited)
	}()
	return d, nil
}

// stop kills the daemon and waits for it to exit. Safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.exited
	}
	d.log.Close()
}

// waitServing polls /v1/healthz until it answers "serving".
func (d *daemon) waitServing(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("hmnd exited before serving")
		default:
		}
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body) // a short read only delays the next poll
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "serving" {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("hmnd not serving after %v", timeout)
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// vmHWM parses the VmHWM line of a /proc status file, in MB.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// do sends one request and returns the status and full body.
func do(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// scrape is one /metrics sample: series (name plus labels) to value.
type scrape map[string]float64

// scrapeMetrics reads the daemon's Prometheus text exposition.
func scrapeMetrics(client *http.Client, base string) (scrape, error) {
	code, body, err := do(client, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: status %d", code)
	}
	return parseMetrics(body), nil
}

// parseMetrics parses "series value" lines, skipping comments.
func parseMetrics(body []byte) scrape {
	out := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta is after minus before for one series (missing counts as 0).
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// histMean is the mean and count of a histogram's observations between
// two scrapes; both are 0 when none were made.
func histMean(before, after scrape, name string) (float64, float64) {
	n := delta(before, after, name+"_count")
	if n <= 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum") / n, n
}
