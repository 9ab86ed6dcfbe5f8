package server

import (
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/rebalance"
)

// This file wires the background rebalancer (internal/rebalance)
// through the daemon. Each session owns one scheduler:
//
//   - with -rebalance-interval set, the scheduler's loop periodically
//     snapshots the session, plans improving moves off the live
//     residuals and commits them through the optimistic migrate funnel
//     — admissions keep flowing, a plan that loses its validation race
//     is simply dropped; without it the scheduler is one-shot;
//   - POST /v1/sessions/{sid}/rebalance runs one round on demand,
//     whether or not the background loop is enabled;
//   - every committed plan reaches the WAL through the session's commit
//     hook like any other operation, and the scheduler's after-round
//     barrier makes it durable before the round is considered done;
//   - a migration swaps the mappings of the environments it touches
//     inside core, under their tags, so the server's environment
//     registry (IDs, which are the tags) never needs to follow it;
//   - Close stops every scheduler before the final snapshot, so
//     shutdown never races an in-flight migration.

// attachRebalance gives sess its scheduler (stopped). Called before the
// session is published, so handlers never see a nil scheduler; the
// loop starts once the session is durable.
func (s *Server) attachRebalance(sess *session) {
	sess.rebal = rebalance.New(sess.core, s.cfg.RebalanceInterval, s.cfg.RebalanceMaxMoves, rebalance.Hooks{
		OnRound: func(units int, elapsed float64) {
			s.mRebalRounds.Inc()
			s.mRebalPlanned.Add(uint64(units))
			s.mRebalLatency.Observe(elapsed)
		},
		OnCommit: func(_ rebalance.Unit, res *core.MigrateResult, err error) {
			if err != nil {
				s.mRebalAborts.Inc()
				return
			}
			s.mRebalMoves.Add(uint64(len(res.Moves)))
			if d := res.ObjectiveBefore - res.ObjectiveAfter; d > 0 {
				s.mRebalImprovement.Add(d)
			}
			sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
		},
		AfterRound: s.ackBarrier,
		Logf:       s.logf,
	})
}

// stopRebalancers stops every session's scheduler and waits each one
// out. Close calls it before draining the queue: no new plans start, and
// any in-flight round finishes committing (and logging) first.
func (s *Server) stopRebalancers() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.rebal.Stop()
	}
}
