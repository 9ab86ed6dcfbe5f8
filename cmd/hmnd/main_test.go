package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/topology"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(4, 16, 8, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.QueueDepth != 16 || cfg.BatchSize != 8 || cfg.RequestTimeout != 5*time.Second {
		t.Fatalf("config = %+v", cfg)
	}
	// 0 workers means "default" (GOMAXPROCS), resolved by server.New.
	if _, err := buildConfig(0, 16, 1, time.Second); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		workers, queue, batch int
		timeout               time.Duration
	}{
		{-1, 16, 1, time.Second},
		{4, 0, 1, time.Second},
		{4, 16, 0, time.Second},
		{4, 16, 1, 0},
	} {
		if _, err := buildConfig(bad.workers, bad.queue, bad.batch, bad.timeout); err == nil {
			t.Fatalf("buildConfig(%+v) must error", bad)
		}
	}
}

// TestConfigure runs whole command lines through the one validation
// path both modes share: flags one mode does not read are refused in
// it, and the shared checks (queue depth, timeouts, durability,
// rebalancing, routing, profiling) hold with -shards too.
func TestConfigure(t *testing.T) {
	c, err := topology.Torus2D(make([]topology.HostSpec, 4), 2, 2, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	clusterFile := filepath.Join(t.TempDir(), "cluster.json")
	f, err := os.Create(clusterFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.WriteJSON(f, spec.FromCluster(c)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fed := []string{"-shards", "2", "-shard-cluster", clusterFile}

	for _, tc := range []struct {
		name string
		args []string
		ok   bool
	}{
		{"single-session defaults", nil, true},
		{"single-session sized queue", []string{"-workers", "4", "-batch", "8", "-queue", "16"}, true},
		{"gateway without shards", []string{"-gateway-bw", "5"}, false},
		{"shard cluster without shards", []string{"-shard-cluster", clusterFile}, false},
		{"negative shards", []string{"-shards", "-1"}, false},
		{"federation", fed, true},
		{"federation queue and gateway", append([]string{"-queue", "8", "-gateway-bw", "50"}, fed...), true},
		{"federation workers", append([]string{"-workers", "4"}, fed...), false},
		{"federation batch", append([]string{"-batch", "8"}, fed...), false},
		{"federation negative queue", append([]string{"-queue", "-1"}, fed...), false},
		{"federation zero timeout", append([]string{"-timeout", "0"}, fed...), false},
		{"federation negative gateway", append([]string{"-gateway-bw", "-1"}, fed...), false},
		{"federation without cluster", []string{"-shards", "2"}, false},
		{"federation replay without data dir", append([]string{"-replay"}, fed...), false},
		{"federation negative rebalance", append([]string{"-rebalance-interval", "-1s"}, fed...), false},
		{"federation negative route workers", append([]string{"-route-workers", "-1"}, fed...), false},
		{"federation negative mutex fraction", append([]string{"-mutex-profile-fraction", "-1"}, fed...), false},
		{"federation negative block rate", append([]string{"-block-profile-rate", "-1"}, fed...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := configure(parseFlags(tc.args)); (err == nil) != tc.ok {
				t.Fatalf("configure(%q) = %v, want ok=%v", tc.args, err, tc.ok)
			}
		})
	}
	cfg, err := configure(parseFlags(fed))
	if err != nil || len(cfg.ClusterSpecs) != 2 || cfg.QueueDepth != 64 {
		t.Fatalf("federation config: %d cluster specs, queue %d, err %v; want 2, 64, nil",
			len(cfg.ClusterSpecs), cfg.QueueDepth, err)
	}

	// The profiling flags take effect in federation mode as well.
	defer runtime.SetMutexProfileFraction(0)
	if _, err := configure(parseFlags(append([]string{"-mutex-profile-fraction", "7"}, fed...))); err != nil {
		t.Fatal(err)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 7 {
		t.Fatalf("mutex profile fraction = %d after -shards configure, want 7", got)
	}
}
