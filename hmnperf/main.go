// Command hmnperf is the repository's benchmark. It drives the real hmnd
// daemon over loopback HTTP (churn-small, churn-large) or the HMN mapper
// in-process (bulk-torus) with inputs generated from --seed, checks
// every output, and prints one metric per line followed by a final JSON
// result line. With --trace 1 it also replays the same requests
// in-process through the layers' public functions, records one span per
// call, and reports per-layer figures.
//
// Run it from the repository root through its wrapper, which builds
// cmd/hmnd and this command into .bench_build first:
//
//	bash hmnperf/run.sh --workload churn-small --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run measured and checked.
type outcome struct {
	Attempted int
	Failed    int
	E2E       map[string]metric // the end_to_end set (trace 0)
	Layer     map[string]metric // the per_layer set (trace 1)
	Extra     map[string]metric // printed and recorded, not gated
	Notes     []string          // context printed with the report
	Checks    []string          // failed output checks
	Digests   map[string]digests
	Spans     []span
	Series    map[string][]float64 // raw samples kept in the result file
}

func newOutcome() *outcome {
	return &outcome{
		E2E:     map[string]metric{},
		Layer:   map[string]metric{},
		Extra:   map[string]metric{},
		Digests: map[string]digests{},
		Series:  map[string][]float64{},
	}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// runEnv is one invocation's settings and scratch space.
type runEnv struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Hmnd     string // daemon binary
	Root     string // checkout root
	Work     string // per-run scratch directory, removed at exit
	Results  string // result files directory
}

func (r *runEnv) duration() time.Duration { return time.Duration(r.Seconds) * time.Second }

// dir creates and returns a fresh subdirectory of the scratch space.
func (r *runEnv) dir(name string) (string, error) {
	d := filepath.Join(r.Work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// workloadRunners maps each workload name to its runner.
var workloadRunners = map[string]func(*runEnv) (*outcome, error){
	"churn-small": func(r *runEnv) (*outcome, error) { return runChurn(r, churnSmall) },
	"churn-large": func(r *runEnv) (*outcome, error) { return runChurn(r, churnLarge) },
	"bulk-torus":  runBulk,
}

func main() { os.Exit(run()) }

func run() int {
	r := &runEnv{}
	flag.StringVar(&r.Workload, "workload", "", "workload: churn-small, churn-large or bulk-torus")
	flag.Int64Var(&r.Seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&r.Seconds, "seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.StringVar(&r.Hmnd, "hmnd", filepath.Join(".bench_build", "hmnd"), "hmnd binary built from this checkout")
	flag.StringVar(&r.Root, "root", ".", "checkout root")
	flag.Parse()

	runner, ok := workloadRunners[r.Workload]
	if !ok || r.Seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hmnperf: bad arguments (workload %q, seconds %d, trace %d)\n", r.Workload, r.Seconds, *trace)
		return 2
	}
	r.Trace = *trace == 1
	base := filepath.Join(r.Root, ".bench_build")
	r.Work = filepath.Join(base, "work", fmt.Sprintf("%s-%d-%d", r.Workload, r.Seed, os.Getpid()))
	r.Results = filepath.Join(base, "results")
	for _, d := range []string{r.Work, r.Results} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "hmnperf:", err)
			return 1
		}
	}
	defer os.RemoveAll(r.Work)

	mach := machineRecord(r)
	out, err := runner(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmnperf:", err)
		return 1
	}
	if err := report(r, mach, out); err != nil {
		fmt.Fprintln(os.Stderr, "hmnperf:", err)
		return 1
	}
	set := out.E2E
	if r.Trace {
		set = out.Layer
	}
	for name, m := range set {
		out.check(!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is %v", name, m.Value)
	}
	if len(out.Checks) > 0 {
		for _, c := range out.Checks {
			fmt.Fprintln(os.Stderr, "hmnperf: check failed:", c)
		}
		printResult(false, out, map[string]metric{})
		return 1
	}
	printResult(true, out, set)
	return 0
}

// printResult prints the final result line.
func printResult(correct bool, out *outcome, set map[string]metric) {
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.Attempted, out.Failed, set})
	fmt.Println(string(line))
}

// report prints every metric by name with its unit and writes the
// result file (machine record, metrics, digests) and, for traced runs,
// the spans.
func report(r *runEnv, mach machine, out *outcome) error {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("hmnperf %s seed %d, %ds, %s run\n", r.Workload, r.Seed, r.Seconds, mode)
	mj, _ := json.Marshal(mach)
	fmt.Printf("machine %s\n", mj)
	for _, group := range []struct {
		label string
		set   map[string]metric
	}{{"end_to_end", out.E2E}, {"per_layer", out.Layer}, {"extra", out.Extra}} {
		names := make([]string, 0, len(group.set))
		for n := range group.set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group.set[n]
			fmt.Printf("%-10s %-28s %14.6g %s\n", group.label, n, m.Value, m.Unit)
		}
	}
	for _, n := range out.Notes {
		fmt.Println("note", n)
	}
	keys := make([]string, 0, len(out.Digests))
	for k := range out.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := out.Digests[k]
		fmt.Printf("digest %s paths_digest=%s placement_digest=%s\n", k, d.Paths, d.Placement)
	}
	fmt.Printf("attempted %d failed %d checks_failed %d\n", out.Attempted, out.Failed, len(out.Checks))

	stem := filepath.Join(r.Results, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace]))
	doc := map[string]any{
		"workload": r.Workload, "seed": r.Seed, "seconds": r.Seconds, "trace": r.Trace,
		"machine": mach, "end_to_end": clean(out.E2E), "per_layer": clean(out.Layer), "extra": clean(out.Extra),
		"notes": out.Notes, "digests": out.Digests, "checks_failed": out.Checks,
		"attempted": out.Attempted, "failed": out.Failed, "series": out.Series,
	}
	if err := writeJSON(stem+".json", doc); err != nil {
		return err
	}
	if r.Trace {
		return writeJSON(stem+"-spans.json", out.Spans)
	}
	return nil
}

// clean drops non-finite values, which JSON cannot carry.
func clean(set map[string]metric) map[string]metric {
	out := make(map[string]metric, len(set))
	for k, m := range set {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			out[k] = m
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
