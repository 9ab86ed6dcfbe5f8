package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/rebalance"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/wal"
)

// step is one operation of a serial replay: admit request Req (its
// admission is numbered in replay order), release the n-th admission,
// or run one rebalance round.
type step struct {
	Kind opKind // opAdmit or opRelease; rebalance when Rebalance is set
	Req  int
	Adm  int
	// Rebalance marks a one-shot rebalance round.
	Rebalance bool
}

// pipeline replays requests in-process through the layers hmnd calls
// for them, in order: spec.DecodeStrict + ToEnv, core.Session.MapTagged
// (whose commit hook runs wal.RecordFromEvent + WAL.Append), WAL.Barrier,
// then spec.FromMapping and the JSON encode of the ack. Spans are
// recorded around each call when the recorder is on.
type pipeline struct {
	sess *core.Session
	w    *wal.WAL
	dir  string
	rec  *recorder
	// hookParent is the span the commit hook's wal.append nests under.
	hookParent int32
	hookErr    error

	// Per-operation observations (ms).
	AdmitTotal []float64 // whole admission, decode to encode
	LockMS     []float64 // AdmitStats.CommitSeconds
	Rounds     int
	RoundMoves int
	Aborts     int
	Planned    int
	dig        *digester // every admitted mapping, in admission order
	// live maps each deployed environment's tag to its current mapping;
	// a rebalance commit replaces the mapping object.
	live map[string]*mapping.Mapping
}

const replaySID = "s1"

// newPipeline opens a session on c with a fresh WAL in dir.
func newPipeline(c *cluster.Cluster, dir string, rec *recorder) (*pipeline, error) {
	w, _, err := wal.Open(dir, wal.Hooks{})
	if err != nil {
		return nil, err
	}
	mapper, err := core.MapperByName("", cluster.VMMOverhead{})
	if err != nil {
		w.Close()
		return nil, err
	}
	sess, err := core.NewSession(c, cluster.VMMOverhead{}, mapper)
	if err != nil {
		w.Close()
		return nil, err
	}
	p := &pipeline{sess: sess, w: w, dir: dir, rec: rec, hookParent: -1, dig: newDigester(), live: map[string]*mapping.Mapping{}}
	open := &wal.Record{Kind: wal.KindOpen, SID: replaySID, Open: &wal.OpenRec{Cluster: spec.FromCluster(c), Mapper: "HMN"}}
	if err := w.Append(open); err != nil {
		w.Close()
		return nil, err
	}
	sess.SetCommitHook(func(ev core.Event) {
		s := p.rec.begin("wal.append", p.hookParent)
		if err := p.w.Append(wal.RecordFromEvent(replaySID, cluster.VMMOverhead{}, ev)); err != nil && p.hookErr == nil {
			p.hookErr = err
		}
		p.rec.end(s)
	})
	return p, nil
}

// admit runs one admission through every layer.
func (p *pipeline) admit(body []byte, tag string) (*mapping.Mapping, error) {
	t0 := time.Now()
	root := p.rec.begin("admit", -1)

	s := p.rec.begin("spec.decode", root)
	var req server.MapEnvRequest
	if err := spec.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, err
	}
	env, err := req.Env.ToEnv()
	if err != nil {
		return nil, err
	}
	p.rec.end(s)

	s = p.rec.begin("core.map", root)
	p.hookParent = s
	m, st, err := p.sess.MapTagged(env, tag)
	p.rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("map %s: %w", tag, err)
	}

	if err := p.barrier(root); err != nil {
		return nil, err
	}

	s = p.rec.begin("spec.encode", root)
	if _, err := json.Marshal(server.MapEnvResponse{ID: tag, Mapping: spec.FromMapping(m, cluster.VMMOverhead{})}); err != nil {
		return nil, err
	}
	p.rec.end(s)
	p.rec.end(root)

	p.AdmitTotal = append(p.AdmitTotal, ms(time.Since(t0)))
	p.LockMS = append(p.LockMS, st.CommitSeconds*1000)
	p.dig.add(m)
	return m, nil
}

// barrier waits for the WAL's group-commit fsync under parent.
func (p *pipeline) barrier(parent int32) error {
	s := p.rec.begin("wal.barrier", parent)
	err := p.w.Barrier()
	p.rec.end(s)
	if err == nil {
		err = p.hookErr
	}
	return err
}

// release releases one admitted mapping through core and the WAL.
func (p *pipeline) release(m *mapping.Mapping) error {
	root := p.rec.begin("release", -1)
	s := p.rec.begin("core.release", root)
	p.hookParent = s
	err := p.sess.Release(m)
	p.rec.end(s)
	if err != nil {
		return err
	}
	err = p.barrier(root)
	p.rec.end(root)
	return err
}

// rebalance runs one rebalance round the way hmnd's one-shot endpoint
// does: plan on a snapshot, commit each unit, barrier.
func (p *pipeline) rebalance() error {
	root := p.rec.begin("rebalance", -1)
	p.hookParent = root
	sched := rebalance.New(p.sess, 0, 8, rebalance.Hooks{
		OnRound: func(units int, _ float64) { p.Planned += units },
		OnCommit: func(_ rebalance.Unit, res *core.MigrateResult, err error) {
			if err != nil {
				p.Aborts++
				return
			}
			for _, e := range res.Envs {
				p.live[e.Tag] = e.New
			}
		},
	})
	p.RoundMoves += sched.RunOnce()
	p.Rounds++
	err := p.barrier(root)
	p.rec.end(root)
	return err
}

// run replays steps against reqs. Admission n is tagged e<n+1>.
func (p *pipeline) run(reqs []request, steps []step) error {
	admitted := 0
	for _, st := range steps {
		switch {
		case st.Rebalance:
			if err := p.rebalance(); err != nil {
				return err
			}
		case st.Kind == opAdmit:
			admitted++
			tag := fmt.Sprintf("e%d", admitted)
			m, err := p.admit(reqs[st.Req].Body, tag)
			if err != nil {
				return err
			}
			p.live[tag] = m
		default:
			tag := fmt.Sprintf("e%d", st.Adm+1)
			if err := p.release(p.live[tag]); err != nil {
				return fmt.Errorf("release admission %d: %w", st.Adm, err)
			}
			delete(p.live, tag)
		}
	}
	return nil
}

// close closes the WAL.
func (p *pipeline) close() error { return p.w.Close() }

// walBytes is the total size of the WAL's segment files.
func walBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// replayRate times recovery of a closed WAL directory the way hmnd
// recovers it: scan, rebuild the session from its open record, then
// re-apply every operation record. It returns records per second and
// the recovered residuals.
func replayRate(dir string) (float64, []float64, error) {
	t0 := time.Now()
	w, got, err := wal.Open(dir, wal.Hooks{})
	if err != nil {
		return 0, nil, err
	}
	defer w.Close()
	var sess *core.Session
	for i := range got.Records {
		rec := &got.Records[i]
		if rec.Kind == wal.KindOpen {
			if sess, _, err = wal.OpenSession(rec); err != nil {
				return 0, nil, err
			}
			continue
		}
		if sess == nil {
			return 0, nil, fmt.Errorf("record %d precedes the open record", i)
		}
		if err := wal.ReplayRecord(sess, rec); err != nil {
			return 0, nil, err
		}
	}
	if sess == nil {
		return 0, nil, fmt.Errorf("%s: no session recovered", dir)
	}
	return float64(len(got.Records)) / time.Since(t0).Seconds(), sess.ResidualProc(), nil
}

// stageSplit is the HMN stage breakdown of one-shot maps.
type stageSplit struct {
	Hosting, Migration, Networking []float64 // seconds per map
	Moves                          []float64
	NetworkingPar                  []float64 // at RouteWorkers = nproc
	Searches                       int       // inter-host links routed
	Hops                           int       // physical hops over those links
	Digests                        digests   // serial maps
	First                          digests   // the first serial map alone
}

// searches counts the virtual links whose endpoints sit on different
// hosts — each one A*Prune search — and their physical hops.
func searches(m *mapping.Mapping) (links, hops int) {
	for _, p := range m.LinkPath {
		if len(p.Edges) > 0 {
			links++
			hops += len(p.Edges)
		}
	}
	return links, hops
}

// runStageSplit maps each env one-shot with serial routing (hmnd's
// default) and again at RouteWorkers = nproc, checking that both
// validate and agree bit for bit.
func runStageSplit(c *cluster.Cluster, reqs []request, idx []int) (*stageSplit, error) {
	out := &stageSplit{}
	d := newDigester()
	for k, i := range idx {
		m, st, err := (&core.HMN{}).MapWithStats(c, reqs[i].Env)
		if err != nil {
			return nil, fmt.Errorf("one-shot map of request %d: %w", i, err)
		}
		if err := m.Validate(cluster.VMMOverhead{}); err != nil {
			return nil, fmt.Errorf("one-shot map of request %d: %w", i, err)
		}
		out.Hosting = append(out.Hosting, st.HostingSeconds)
		out.Migration = append(out.Migration, st.MigrationSeconds)
		out.Networking = append(out.Networking, st.NetworkingSeconds)
		out.Moves = append(out.Moves, float64(st.Migration.Moves))
		l, h := searches(m)
		out.Searches += l
		out.Hops += h
		d.add(m)
		if k == 0 {
			f := newDigester()
			f.add(m)
			out.First = f.sums()
		}
	}
	out.Digests = d.sums()
	par := &core.HMN{RouteWorkers: runtime.NumCPU()}
	pd := newDigester()
	for _, i := range idx {
		m, st, err := par.MapWithStats(c, reqs[i].Env)
		if err != nil {
			return nil, fmt.Errorf("parallel map of request %d: %w", i, err)
		}
		out.NetworkingPar = append(out.NetworkingPar, st.NetworkingSeconds)
		pd.add(m)
	}
	if got := pd.sums(); got != out.Digests {
		return nil, fmt.Errorf("parallel routing diverged from serial: %+v vs %+v", got, out.Digests)
	}
	return out, nil
}
