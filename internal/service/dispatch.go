package service

import (
	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/sched"
)

// This file is the service side of the fleet dispatcher. Routing is the
// scheduler kernel's: every admitted job goes to a backend at submit
// time by internal/fleet's policy scoring, workers claim only their own
// assignments, and when a backend's circuit breaker opens its queued
// jobs go back through the dispatcher onto healthy chips. The service
// calls the kernel under Service.mu, so dispatch is linearized with
// claims and requeues, and keeps what an operator sees of it: counters,
// the decision trace and the /v1/fleet view.

// DispatchDecision is one routing decision in the recent-dispatch
// trace served on /v1/fleet. Migrated decisions record the backend the
// job was moved away from.
type DispatchDecision struct {
	Seq      int     `json:"seq"`
	Qubits   int     `json:"qubits"`
	Backend  string  `json:"backend"`
	Score    float64 `json:"score"`
	Migrated bool    `json:"migrated,omitempty"`
	From     string  `json:"from,omitempty"`
}

// FleetDeviceStatus is one chip's row in the /v1/fleet view: its
// calibration summary plus the live load the dispatcher scores.
type FleetDeviceStatus struct {
	fleet.Chip
	fleet.Load
	Migrated     int64  `json:"migrated"`
	BreakerState string `json:"breaker_state"`
}

// FleetStatus is the GET /v1/fleet document: the active policy, the
// fleet-wide counters, every chip's dispatch view, and the recent
// decision trace (oldest first).
type FleetStatus struct {
	Policy          string              `json:"policy"`
	Dispatches      int64               `json:"dispatches"`
	JobsMigrated    int64               `json:"jobs_migrated"`
	Devices         []FleetDeviceStatus `json:"devices"`
	RecentDecisions []DispatchDecision  `json:"recent_decisions,omitempty"`
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
// counter, /v1/fleet decision trace). from is -1 for a fresh submission
// or the worker the job migrated away from. Callers hold s.mu.
func (s *Service) dispatchedLocked(j *job, from int) {
	name := s.workers[j.item.Chip].dev.Name
	j.rec.Backend = name
	s.metrics.Dispatches.Inc()
	d := DispatchDecision{
		Seq:     j.rec.Seq,
		Qubits:  j.rec.Qubits,
		Backend: name,
		Score:   j.item.Score,
	}
	if from >= 0 {
		d.Migrated = true
		d.From = s.workers[from].dev.Name
	}
	s.decisions = append(s.decisions, d)
	if len(s.decisions) > s.cfg.TraceDepth {
		s.decisions = s.decisions[len(s.decisions)-s.cfg.TraceDepth:]
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

// Fleet reports the dispatcher's live view for GET /v1/fleet.
func (s *Service) Fleet() FleetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := FleetStatus{
		Policy:          s.cfg.FleetPolicy,
		Dispatches:      s.metrics.Dispatches.Value(),
		JobsMigrated:    s.metrics.JobsMigrated.Value(),
		RecentDecisions: append([]DispatchDecision(nil), s.decisions...),
	}
	st.Devices = make([]FleetDeviceStatus, len(s.workers))
	for i, w := range s.workers {
		c := s.kernel.Candidate(i)
		st.Devices[i] = FleetDeviceStatus{
			Chip:         c.Chip,
			Load:         c.Load,
			Migrated:     w.migrated,
			BreakerState: w.brk.state,
		}
	}
	return st
}

// fleetMetrics is the Registry's fleet section source (wired in New,
// before any worker starts).
func (s *Service) fleetMetrics() FleetSection {
	st := s.Fleet()
	sec := FleetSection{
		Policy:       st.Policy,
		Dispatches:   st.Dispatches,
		JobsMigrated: st.JobsMigrated,
	}
	sec.Devices = make([]FleetDeviceMetrics, len(st.Devices))
	for i, d := range st.Devices {
		sec.Devices[i] = FleetDeviceMetrics{
			Name:       d.Chip.Name,
			Dispatched: d.Load.Dispatched,
			Migrated:   d.Migrated,
			QueueDepth: d.Load.QueueDepth,
			Breaker:    d.BreakerState,
		}
	}
	return sec
}
