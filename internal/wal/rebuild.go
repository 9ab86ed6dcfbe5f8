package wal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/spec"
)

// RebuiltSession is one session a data directory rebuilds to, with the
// front-end facts its snapshot entry or open record carried.
type RebuiltSession struct {
	SID      string
	Core     *core.Session
	Cluster  spec.ClusterSpec
	Mapper   string
	Overhead cluster.VMMOverhead
	// NextEnv is the snapshot's environment-ID counter; 0 for a session
	// opened after the last snapshot.
	NextEnv uint64
	// Tags are the environment tags the replayed admit, batch and
	// repair records named, in replay order, so a front end can move
	// its ID counter past every ID the log handed out.
	Tags []string
}

// Rebuilt is everything a data directory rebuilds to.
type Rebuilt struct {
	// Sessions are the sessions still open at the end of the log, in
	// session-ID order.
	Sessions []*RebuiltSession
	// SIDs is every session ID the directory ever named — snapshotted,
	// opened, closed or named by an operation record — sorted. A front
	// end must never mint one of them again: a reused ID would alias the
	// retired session's snapshot boundary at the next recovery.
	SIDs []string
	// Replayed counts the operation records applied on top of the
	// snapshot; Closes counts the close records that retired a session.
	Replayed int
	Closes   int
}

// Rebuild is the one recovery function: the daemon's Recover, each
// federation shard's recovery and the hmnwal verifier all run it. It
// restores every snapshot session at its own operation boundary, then
// replays the log suffix in append order. An operation record at or
// below its session's boundary was already applied by the snapshot and
// is skipped; an open record for a snapshotted session is a no-op. A
// close record retires the session together with its boundary, so a
// later open of the same ID starts fresh at index 0 instead of
// skipping the new session's records as if the old snapshot had
// covered them. An operation record for a session that is not open is
// refused.
func Rebuild(r *Recovered) (*Rebuilt, error) {
	live := make(map[string]*RebuiltSession)
	boundary := make(map[string]uint64)
	named := make(map[string]bool)
	out := &Rebuilt{}
	if snap := r.Snapshot; snap != nil {
		for _, sn := range snap.Sessions {
			cs, err := restoreSnap(sn)
			if err != nil {
				return nil, err
			}
			live[sn.SID] = &RebuiltSession{
				SID:      sn.SID,
				Core:     cs,
				Cluster:  sn.Cluster,
				Mapper:   sn.Mapper,
				Overhead: cluster.VMMOverhead{Proc: sn.Proc, Mem: sn.Mem, Stor: sn.Stor},
				NextEnv:  sn.NextEnv,
			}
			boundary[sn.SID] = sn.OpCount
			named[sn.SID] = true
		}
	}
	for i := range r.Records {
		rec := &r.Records[i]
		named[rec.SID] = true
		switch rec.Kind {
		case KindOpen:
			if live[rec.SID] != nil {
				continue
			}
			cs, _, err := OpenSession(rec)
			if err != nil {
				return nil, err
			}
			live[rec.SID] = &RebuiltSession{
				SID:      rec.SID,
				Core:     cs,
				Cluster:  rec.Open.Cluster,
				Mapper:   rec.Open.Mapper,
				Overhead: cluster.VMMOverhead{Proc: rec.Open.Proc, Mem: rec.Open.Mem, Stor: rec.Open.Stor},
			}
		case KindClose:
			delete(live, rec.SID)
			delete(boundary, rec.SID)
			out.Closes++
		default:
			rs := live[rec.SID]
			if rs == nil {
				return nil, fmt.Errorf("wal: %q record for unknown session %s (no snapshot entry or open record precedes it)", rec.Kind, rec.SID)
			}
			if rec.Index <= boundary[rec.SID] {
				continue
			}
			if err := ReplayRecord(rs.Core, rec); err != nil {
				return nil, err
			}
			out.Replayed++
			rs.Tags = appendTags(rs.Tags, rec)
		}
	}
	for _, rs := range live {
		out.Sessions = append(out.Sessions, rs)
	}
	sort.Slice(out.Sessions, func(i, j int) bool { return out.Sessions[i].SID < out.Sessions[j].SID })
	for sid := range named {
		out.SIDs = append(out.SIDs, sid)
	}
	sort.Strings(out.SIDs)
	return out, nil
}

// appendTags appends the environment tags rec names to tags.
func appendTags(tags []string, rec *Record) []string {
	switch rec.Kind {
	case KindAdmit:
		tags = append(tags, rec.Admit.Tag)
	case KindBatch:
		for i := range rec.Batch {
			tags = append(tags, rec.Batch[i].Tag)
		}
	case KindFail:
		for _, rr := range rec.Fail.Repairs {
			tags = append(tags, rr.Tag)
		}
	}
	return tags
}

// Ordinal parses the counter-minted IDs the front ends log: prefix
// followed by a non-negative decimal ("e7" with prefix "e" → 7, "s3"
// with prefix "s" → 3).
func Ordinal(prefix, id string) (int, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// objectiveTolerance is the acceptable gap between a recovered
// session's incremental Eq. (10) objective and a two-pass recompute
// from its residual vector — the same band the core property tests use.
// The residual vectors themselves are compared bit-exactly by the WAL
// tests; the objective accumulators are rebuilt on restore (see
// cluster.LedgerState) and may differ in the last few ulps.
const objectiveTolerance = 1e-9

// VerifyObjective cross-checks a recovered session before it serves:
// its incremental objective must match a two-pass recompute within
// objectiveTolerance.
func VerifyObjective(cs *core.Session) error {
	inc := cs.ObjectiveStdDev()
	re := mapping.Objective(cs.ResidualProc())
	if diff := inc - re; diff > objectiveTolerance || diff < -objectiveTolerance {
		return fmt.Errorf("recovered objective %.17g diverges from recomputed %.17g", inc, re)
	}
	return nil
}

// Attach installs cs's commit hook: every committed operation is
// serialized into sid's record and buffered into w, under the session
// lock and in commit order. The fsync is paid once per acknowledged
// request (Barrier), not per operation. A failed append is logged: the
// operation is already committed in memory and cannot be undone, but
// the fault is sticky, so the ack-path barrier fails too and no client
// is ever told the lost operation is durable. A nil WAL (no data
// directory) attaches nothing.
func (w *WAL) Attach(sid string, overhead cluster.VMMOverhead, cs *core.Session) {
	if w == nil {
		return
	}
	cs.SetCommitHook(func(ev core.Event) {
		if err := w.Append(RecordFromEvent(sid, overhead, ev)); err != nil {
			w.hooks.logf("wal: append (session %s): %v", sid, err)
		}
	})
}
