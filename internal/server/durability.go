package server

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/wal"
)

// This file wires the WAL (internal/wal) through the daemon:
//
//   - every session gets a commit hook that appends one record per
//     committed operation, inside the session lock, in commit order;
//   - every mutating handler calls ackBarrier before writing its
//     success response, so a record is durable before its client hears
//     about it (ack-after-log) — a crash can lose unacknowledged work,
//     never acknowledged work;
//   - Recover rebuilds the session table from the latest snapshot plus
//     the log suffix before the daemon starts serving; the /v1 API
//     returns 503 "replaying" until it finishes;
//   - the WAL's periodic snapshot loop (and graceful shutdown, after the
//     queue drains) takes full-state snapshots that truncate the log.

// logf reports durability housekeeping through the configured logger.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ackBarrier makes every WAL record appended so far durable. Mutating
// handlers call it after their operation commits and before they write
// a success response; with no data directory it is free.
func (s *Server) ackBarrier() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Barrier()
}

// appendOpen logs a session's open record. Called under s.mu, before
// the session becomes visible, so no operation record can precede it.
//
//hmn:locked mu
func (s *Server) appendOpenLocked(sess *session) {
	if s.wal == nil {
		return
	}
	rec := &wal.Record{Kind: wal.KindOpen, SID: sess.id, Open: &wal.OpenRec{
		Cluster: sess.clusterSpec,
		Mapper:  sess.mapperName,
		Proc:    sess.overhead.Proc,
		Mem:     sess.overhead.Mem,
		Stor:    sess.overhead.Stor,
	}}
	if err := s.wal.Append(rec); err != nil {
		s.logf("hmnd: wal append (open %s): %v", sess.id, err)
	}
}

// appendClose logs a session's close record, after the releases its
// teardown emitted.
func (s *Server) appendClose(sid string) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Append(&wal.Record{Kind: wal.KindClose, SID: sid}); err != nil {
		s.logf("hmnd: wal append (close %s): %v", sid, err)
	}
}

// Recover opens the data directory, rebuilds every session from the
// latest snapshot plus the log suffix, and flips the daemon from
// "replaying" to "serving". It must be called exactly once, before (or
// concurrently with) serving traffic — the /v1 API answers 503 until it
// returns. With no data directory it is a no-op.
//
// When Config.VerifyReplay is set, every recovered session is checked
// before serving: the incremental objective must match a two-pass
// recompute within 1e-9 and the environment registry must agree with
// the session's active count.
//
// A failed recovery closes the log again without a snapshot, so the
// directory stays as it was: Close must not export half-installed state
// over the records it came from.
func (s *Server) Recover() (err error) {
	if s.cfg.DataDir == "" {
		return nil
	}
	w, recovered, err := wal.Open(s.cfg.DataDir, wal.Hooks{
		OnAppend:   s.mWALRecords.Inc,
		OnFsync:    s.mFsyncLatency.Observe,
		OnSnapshot: s.mSnapshotLatency.Observe,
		Logf:       s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	s.wal = w
	defer func() {
		if err != nil {
			s.wal = nil
			w.Close()
		}
	}()
	if recovered.TruncatedBytes > 0 {
		s.logf("hmnd: recovery truncated a torn log tail (%d bytes); the records were never acknowledged", recovered.TruncatedBytes)
	}

	rb, err := wal.Rebuild(recovered)
	if err != nil {
		return err
	}
	s.mReplayRecords.Add(uint64(rb.Replayed))

	// Install. The environment registry is rebuilt from each session's
	// final active set — tags are hmnd's environment IDs, and they
	// survive snapshots, admissions and repairs.
	totalEnvs := 0
	installed := make([]*session, 0, len(rb.Sessions))
	for _, rs := range rb.Sessions {
		rs.Core.SetRouteWorkers(s.cfg.RouteWorkers)
		sess := s.newSession(rs.SID, rs.Core, rs.Cluster, rs.Mapper, rs.Overhead)
		sess.nextEnv = int(rs.NextEnv)
		// Move the counter past every ID a replayed record named and,
		// belt and braces against a snapshot whose counter lagged its
		// active set, every live environment's ID: a recovered daemon
		// never hands out an ID twice.
		bump := func(tag string) {
			if n, ok := wal.Ordinal("e", tag); ok && n > sess.nextEnv {
				sess.nextEnv = n
			}
		}
		for _, tag := range rs.Tags {
			bump(tag)
		}
		for _, a := range sess.core.Export().Active {
			if a.Tag != "" {
				sess.envs[a.Tag] = struct{}{}
				bump(a.Tag)
			}
		}
		totalEnvs += len(sess.envs)
		if s.cfg.VerifyReplay {
			if err := verifySession(sess); err != nil {
				return err
			}
		}
		s.wal.Attach(sess.id, sess.overhead, sess.core)
		s.attachRebalance(sess)
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
		s.mu.Lock()
		s.sessions[rs.SID] = sess
		s.mu.Unlock()
		installed = append(installed, sess)
	}
	// Never reuse an ID the directory named — snapshotted, opened or
	// closed.
	s.mu.Lock()
	for _, sid := range rb.SIDs {
		if n, ok := wal.Ordinal("s", sid); ok && n > s.nextSession {
			s.nextSession = n
		}
	}
	s.mu.Unlock()
	s.mSessions.Set(float64(len(rb.Sessions)))
	s.mEnvs.Set(float64(totalEnvs))
	s.logf("hmnd: recovered %d sessions, %d environments, replayed %d records",
		len(rb.Sessions), totalEnvs, rb.Replayed)

	// Every session is fully replayed and durable; the background loops
	// (if configured) may migrate guests from here on.
	for _, sess := range installed {
		sess.rebal.Start()
	}
	s.stopSnapshots = wal.SnapshotEvery(s.cfg.SnapshotInterval, func() {
		if err := s.writeSnapshot(); err != nil {
			s.logf("hmnd: periodic snapshot: %v", err)
		}
	})
	s.replaying.Store(false)
	return nil
}

// verifySession cross-checks one recovered session before it serves:
// the objective check every recovery shares (wal.VerifyObjective), and
// the environment registry against the session's active count. The
// session is not yet published, so no handler can race it.
//
//hmn:locked mu
func verifySession(sess *session) error {
	if err := wal.VerifyObjective(sess.core); err != nil {
		return fmt.Errorf("server: session %s %w", sess.id, err)
	}
	if got, want := len(sess.envs), sess.core.Active(); got != want {
		return fmt.Errorf("server: session %s recovered %d environment records for %d active environments", sess.id, got, want)
	}
	return nil
}

// newSession builds the server-side wrapper for a core session —
// opened by a client or rebuilt by recovery — with its metrics gauge and
// an empty environment registry.
func (s *Server) newSession(sid string, cs *core.Session, clusterSpec spec.ClusterSpec, mapperName string, overhead cluster.VMMOverhead) *session {
	return &session{
		id:          sid,
		core:        cs,
		overhead:    overhead,
		clusterSpec: clusterSpec,
		mapperName:  mapperName,
		stddev: s.reg.Gauge(
			fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", sid),
			"Stddev of residual CPU per host (the Eq. 10 objective) per session."),
		envs: make(map[string]struct{}),
	}
}

// exportAll captures every open session for a snapshot, in session-ID
// order for deterministic snapshot bytes.
func (s *Server) exportAll() ([]wal.SessionSnap, error) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	out := make([]wal.SessionSnap, 0, len(sessions))
	for _, sess := range sessions {
		// The export runs under sess.mu so NextEnv and the core state are
		// one consistent cut: an admission assigns its environment ID
		// under sess.mu *before* it commits in core, so any admission the
		// core export captures already bumped the counter we snapshot.
		// (Lock order is sess.mu → core's lock; the commit hook, which
		// runs under core's lock, never takes sess.mu.)
		sess.mu.Lock()
		if sess.closed {
			sess.mu.Unlock()
			continue
		}
		sn := wal.ExportSession(sess.id, sess.clusterSpec, sess.mapperName, sess.overhead, uint64(sess.nextEnv), sess.core)
		sess.mu.Unlock()
		out = append(out, sn)
	}
	return out, nil
}

// writeSnapshot takes one full-state snapshot and truncates the log.
func (s *Server) writeSnapshot() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.WriteSnapshot(s.exportAll)
}
