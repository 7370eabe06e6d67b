package service

// This file is the service side of the fleet dispatcher. Routing is the
// scheduler kernel's: every admitted job goes to a backend at submit
// time by internal/fleet's policy scoring, workers claim only their own
// assignments, and when a backend's circuit breaker opens its queued
// jobs go back through the dispatcher onto healthy chips. The service
// calls the kernel under Service.mu, so dispatch is linearized with
// claims and requeues, and keeps what an operator sees of it: each
// backend's recent decisions in its /v1/backends row. The fleet counts
// on /metrics are sums of the kernel's per-chip Load.Dispatched and the
// workers' migrated counts.

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

// dispatchedLocked records one routing decision of the kernel: the
// job's backend and the target backend's decision trace (the kernel
// counts it in the chip's Load.Dispatched). from is -1 for a fresh
// submission or the worker the job migrated away from. Callers hold
// s.mu.
func (s *Service) dispatchedLocked(j *job, from int) {
	w := s.workers[j.item.Chip]
	j.rec.Backend = w.dev.Name
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
		from.migrated++
	}
	if len(moved) > 0 {
		s.cond.Broadcast()
	}
}
