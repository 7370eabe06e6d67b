package service

import (
	"repro/internal/circuit"
	"repro/internal/sched"
)

// This file is the service side of the fleet dispatcher. Routing is the
// scheduler kernel's: every admitted job goes to a backend at submit
// time by internal/fleet's policy scoring, workers claim only their own
// assignments, and when a backend's circuit breaker opens its queued
// jobs go back through the dispatcher onto healthy chips. The service
// calls the kernel under Service.mu, so dispatch is linearized with
// claims and requeues, and keeps what an operator sees of it: the
// dispatch counters on /metrics and each backend's recent decisions in
// its /v1/backends row.

// DispatchDecision is one routing decision in a backend's
// recent_dispatches trace: a job the dispatcher sent to that backend.
// Migrated decisions record the backend the job was moved away from.
type DispatchDecision struct {
	Seq      int     `json:"seq"`
	Qubits   int     `json:"qubits"`
	Backend  string  `json:"backend"`
	Score    float64 `json:"score"`
	Migrated bool    `json:"migrated,omitempty"`
	From     string  `json:"from,omitempty"`
}

// enqueueLocked hands an admitted job to the scheduler kernel, which
// routes, tags and queues it; false, with nothing queued, means no
// backend can take the job. Callers hold s.mu.
func (s *Service) enqueueLocked(j *job, circ *circuit.Circuit) bool {
	j.item = sched.Item{Job: sched.Job{ID: j.rec.Seq, Circ: circ}, Flow: j.tenant.flow, Owner: j}
	if !s.kernel.Submit(&j.item) {
		return false
	}
	s.dispatchedLocked(j, -1)
	s.metrics.QueueDepth.Set(int64(s.kernel.Len()))
	return true
}

// dispatchedLocked records one routing decision of the kernel (backend,
// counter, the target backend's decision trace). from is -1 for a fresh
// submission or the worker the job migrated away from. Callers hold
// s.mu.
func (s *Service) dispatchedLocked(j *job, from int) {
	w := s.workers[j.item.Chip]
	j.rec.Backend = w.dev.Name
	s.metrics.Dispatches.Inc()
	d := DispatchDecision{
		Seq:     j.rec.Seq,
		Qubits:  j.rec.Qubits,
		Backend: w.dev.Name,
		Score:   j.item.Score,
	}
	if from >= 0 {
		d.Migrated = true
		d.From = s.workers[from].dev.Name
	}
	w.dispatches = append(w.dispatches, d)
	if len(w.dispatches) > s.cfg.TraceDepth {
		w.dispatches = w.dispatches[len(w.dispatches)-s.cfg.TraceDepth:]
	}
}

// migrateLocked re-routes every job still queued for the given worker
// (called when its breaker opens, with s.mu held). Jobs that cannot
// move — no other chip fits them — stay assigned and wait for the
// half-open probe. During drain nothing moves: breakerWait already
// bypasses the cooldown then, and re-routing onto a worker that may
// have exited would strand the job.
func (s *Service) migrateLocked(from *worker) {
	if s.draining {
		return
	}
	moved := s.kernel.Migrate(from.index)
	for _, it := range moved {
		s.dispatchedLocked(it.Owner.(*job), from.index)
		s.metrics.JobsMigrated.Inc()
		from.migrated++
	}
	if len(moved) > 0 {
		s.cond.Broadcast()
	}
}
