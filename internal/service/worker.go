package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/arch"
	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Circuit-breaker states. A worker's breaker is "closed" in normal
// operation; BreakerThreshold consecutive batch failures open it, the
// backend drains for BreakerCooldown, then a single half-open probe
// batch decides between closing (healthy again) and re-opening.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// breaker is one worker's circuit-breaker bookkeeping.
type breaker struct {
	state    string    // breakerClosed / breakerOpen / breakerHalfOpen
	fails    int       // consecutive batch failures
	opens    int64     // cumulative trips
	openedAt time.Time // when it last opened
}

// worker owns one backend device: it claims EPST batches from the
// scheduler kernel, compiles and simulates them, and writes results
// back. Mutable fields (counters, trace, breaker) are guarded by
// Service.mu, as is the kernel, which holds the backend's busy flag and
// dispatch load; comp and the seed counter are touched
// only by the worker's own goroutine, so each worker is deterministic
// and race-free without sharing any random state.
//
// The worker loop is panic-isolated: a panic while claiming fails only
// the head job, a panic while executing fails only the claimed batch,
// and in both cases the loop keeps serving. Batch execution runs under
// the Config.BatchTimeout deadline, and repeated failures trip the
// breaker so a miscalibrated backend drains instead of crash-looping.
type worker struct {
	svc   *Service
	index int
	dev   *arch.Device
	comp  *core.Compiler
	seed  int64 // per-worker deterministic seed counter

	jobsDone     int64                  // guarded by svc.mu
	batchesDone  int64                  // guarded by svc.mu
	trace        []cloudsim.BatchRecord // guarded by svc.mu
	dispatches   []DispatchDecision     // guarded by svc.mu; routing decisions onto this backend, oldest first
	schedErrs    int64                  // guarded by svc.mu
	lastSchedErr string                 // guarded by svc.mu
	brk          breaker                // guarded by svc.mu; setBreakerLocked keeps the kernel's availability in step
	migrated     int64                  // guarded by svc.mu; jobs moved away after this breaker opened
}

// newWorker wires a worker for the device.
func newWorker(s *Service, index int, dev *arch.Device) *worker {
	comp := core.NewCompiler(dev)
	comp.Attempts = s.cfg.Attempts
	return &worker{
		svc:   s,
		index: index,
		dev:   dev,
		comp:  comp,
		seed:  s.cfg.Seed + int64(index)*1_000_003,
		brk:   breaker{state: breakerClosed},
	}
}

// nextSeed returns a fresh deterministic simulation seed; only the
// worker goroutine calls it.
func (w *worker) nextSeed() int64 {
	w.seed++
	return w.seed
}

// run is the worker loop: wait out the breaker, claim a batch, execute
// it, repeat until the service drains (or is forced to stop). Panics
// in either phase are recovered so one pathological batch can never
// silence the backend.
func (w *worker) run(ctx context.Context) {
	defer w.svc.wg.Done()
	for {
		if !w.breakerWait(ctx) {
			return
		}
		batch, exit := w.claimIsolated(ctx)
		if exit {
			return
		}
		if batch == nil {
			continue // claim panic recovered; head job failed
		}
		w.executeIsolated(ctx, batch)
	}
}

// breakerWait blocks while this worker's breaker is open, until the
// cooldown elapses (transitioning to half-open for one probe batch) or
// the service shuts down. It returns false when the worker should
// exit (forced stop). Draining bypasses the cooldown: the backend
// probes immediately so shutdown is never delayed by an open breaker.
func (w *worker) breakerWait(ctx context.Context) bool {
	s := w.svc
	for {
		s.mu.Lock()
		if s.forced {
			s.mu.Unlock()
			return false
		}
		if w.brk.state != breakerOpen {
			s.mu.Unlock()
			return true
		}
		wait := s.cfg.BreakerCooldown - time.Since(w.brk.openedAt)
		if wait <= 0 || s.draining {
			w.setBreakerLocked(breakerHalfOpen)
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		sleepInterruptible(ctx, s.stopCh, wait)
	}
}

// setBreakerLocked moves the breaker to state and tells the dispatcher
// whether the backend is available. Only a fully open breaker is not:
// a half-open backend must stay eligible or its probe batch would
// starve while any healthy chip exists. Callers hold Service.mu.
func (w *worker) setBreakerLocked(state string) {
	w.brk.state = state
	w.svc.kernel.SetAvailable(w.index, state != breakerOpen)
}

// claimIsolated runs claim behind a recover: a panic while selecting a
// batch (scheduler invariant violation, injected chaos) fails the
// oldest fitting job — so the queue cannot livelock on a poison job —
// and the loop continues. exit is true when the worker should stop.
func (w *worker) claimIsolated(ctx context.Context) (batch []*job, exit bool) {
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			w.failHead(fmt.Sprintf("claim panic: %v", r))
			batch, exit = nil, false
		}
	}()
	batch = w.claim(ctx)
	return batch, batch == nil
}

// claim blocks until jobs the dispatcher routed to this backend are
// queued, then takes the kernel's next EPST batch among them. It
// returns nil when the worker should exit: the service is draining and
// holds nothing assigned here, or a forced stop was requested.
func (w *worker) claim(ctx context.Context) []*job {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	pick := func(d *arch.Device, window []sched.Job, cfg sched.Config) (sched.Batch, error) {
		return w.nextBatch(ctx, d, window, cfg)
	}
	var (
		items []*sched.Item
		err   error
		now   time.Time
	)
	for {
		if s.forced {
			return nil
		}
		// Scheduling happens under the service lock, which keeps
		// claim/requeue linearizable across workers. sched.Next over a
		// 10-job Table I window costs ~2.2 ms when its program shapes
		// are new to the chip's CDAP region memo and ~0.09 ms when they
		// are not (BenchmarkNextWindow, IBMQ16).
		now = time.Now()
		if items, err = s.kernel.Claim(w.index, now.Sub(s.start).Seconds(), pick); items != nil {
			break
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
	if err != nil {
		// The kernel fell back to the head job alone. A scheduler error
		// must not be silent — record it for BackendStatus and the
		// metrics snapshot.
		w.schedErrs++
		w.lastSchedErr = err.Error()
		s.metrics.SchedulerErrors.Inc()
	}

	seqs := sched.IDs(items)
	batch := make([]*job, len(items))
	for i, it := range items {
		j := it.Owner.(*job)
		batch[i] = j
		j.rec.Backend = w.dev.Name
		j.rec.CoJobs = seqs
		// WaitSeconds accumulates across requeues (co-location fallback,
		// migration): each claim adds only the time since the job last
		// entered the queue, and QueueLatency is observed once per job —
		// a requeued job must not be double-counted.
		j.rec.WaitSeconds += now.Sub(j.lastQueued).Seconds()
		j.claimed = now
		if !j.waitObserved {
			j.waitObserved = true
			s.observeLatency(s.metrics.QueueLatency, j.rec.WaitSeconds)
		}
		s.setStateLocked(j, StateBatched)
	}
	s.metrics.QueueDepth.Set(int64(s.kernel.Len()))
	s.metrics.InFlight.Add(int64(len(batch)))
	return batch
}

// nextBatch is the kernel's batch picker as the daemon runs it:
// sched.Next with panic containment, so a scheduler panic becomes an
// error the kernel answers with its head-of-line fallback. The schedule
// fault hook fires outside the recover: an injected panic unwinds
// through Kernel.Claim, which has changed nothing yet, into
// claimIsolated and exercises the failHead path. Service.mu is held.
func (w *worker) nextBatch(ctx context.Context, d *arch.Device, window []sched.Job, cfg sched.Config) (b sched.Batch, err error) {
	if err := w.svc.visitFault(ctx, siteSchedule); err != nil {
		return sched.Batch{}, err
	}
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			b, err = sched.Batch{}, fmt.Errorf("scheduler panic: %v", r)
		}
	}()
	return sched.Next(d, window, cfg)
}

// failHead marks the oldest queued job assigned to this backend failed
// (the claim-panic recovery path: without removing a job the loop
// would re-panic on the same queue head forever).
func (w *worker) failHead(msg string) {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	it := s.kernel.FailHead(w.index)
	if it == nil {
		return
	}
	j := it.Owner.(*job)
	j.rec.Error = msg
	j.rec.Backend = w.dev.Name
	s.setStateLocked(j, StateFailed)
	s.markTerminalLocked(j)
	s.metrics.JobsFailed.Inc()
	s.observeLatency(s.metrics.TotalLatency, time.Since(j.rec.SubmittedAt).Seconds())
	s.metrics.QueueDepth.Set(int64(s.kernel.Len()))
}

// requeueFront returns unexecuted jobs to the queue (used when a
// co-located compilation falls back to running the head alone). The
// jobs stay assigned to this backend, so Backend is kept; only the
// batch membership is undone. The kernel puts each job back at its
// original WFQ position, and its wait clock restarts so the next claim
// adds only the new queueing time.
func (w *worker) requeueFront(tail []*job) {
	s := w.svc
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	items := make([]*sched.Item, len(tail))
	for i, j := range tail {
		items[i] = &j.item
		j.rec.CoJobs = nil
		j.lastQueued = now
		s.setStateLocked(j, StateQueued)
	}
	s.kernel.Requeue(items)
	s.metrics.QueueDepth.Set(int64(s.kernel.Len()))
	s.metrics.InFlight.Add(-int64(len(tail)))
	s.cond.Broadcast()
}

// executeIsolated drives one claimed batch through execute behind a
// last-resort recover: whatever escapes the per-phase isolation fails
// the batch (in its current, possibly fallback-shrunk form) with the
// recovered message, and the worker loop stays alive.
func (w *worker) executeIsolated(ctx context.Context, batch []*job) {
	cur := batch
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			w.fail(cur, fmt.Errorf("worker panic: %v", r))
			w.breakerFailure()
		}
	}()
	w.execute(ctx, &cur)
}

// execute runs the batch once and feeds the circuit breaker. The
// pipeline is deterministic, so a failed batch is not retried: it
// would fail the same way. curp tracks the live batch: the co-location
// fallback inside the attempt may shrink it.
func (w *worker) execute(ctx context.Context, curp *[]*job) {
	s := w.svc
	err := w.attempt(ctx, curp)
	if err == nil {
		w.breakerSuccess()
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.BatchTimeouts.Inc()
		err = fmt.Errorf("batch deadline (%s) exceeded: %w", s.cfg.BatchTimeout, err)
	}
	w.fail(*curp, err)
	w.breakerFailure()
}

// attempt is one full compile+simulate pass over the live batch under
// the per-batch deadline, which descends from the service's run
// context so a forced shutdown cancels the attempt mid-flight. On
// success it records results and returns nil; any error leaves the
// batch claimed for the caller to fail.
func (w *worker) attempt(ctx context.Context, curp *[]*job) error {
	s := w.svc
	batch := *curp
	if s.cfg.BatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.BatchTimeout)
		defer cancel()
	}

	start := time.Now()
	progs := make([]*circuit.Circuit, len(batch))
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, j := range batch {
			s.setStateLocked(j, StateCompiling)
			progs[i] = j.item.Circ
		}
	}()

	m := s.metrics
	strat := core.StrategyFor(len(batch))
	res, err := w.compile(ctx, progs, strat)
	s.observeLatency(m.CompileLatency, time.Since(start).Seconds())
	if err != nil && len(batch) > 1 && ctx.Err() == nil {
		// Co-location failed after all: put the tail back and run the
		// head alone, as sched.Kernel.Run does on virtual time. The fallback
		// retry's duration is measured on its own — the failed
		// co-located attempt must not inflate its compile latency.
		m.FallbackBatches.Inc()
		w.requeueFront(batch[1:])
		batch, progs = batch[:1], progs[:1]
		*curp = batch
		strat = core.Separate
		retryStart := time.Now()
		res, err = w.compile(ctx, progs, strat)
		s.observeLatency(m.CompileLatency, time.Since(retryStart).Seconds())
	}
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}

	simStart := time.Now()
	psts, err := w.simulate(ctx, res)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	if s.cfg.ExecDwell > 0 {
		// Emulated hardware occupancy (see Config.ExecDwell), cut short
		// only by ctx (forced shutdown, batch deadline), never stopCh:
		// a graceful drain still holds the chip for the whole dwell.
		sleepInterruptible(ctx, nil, s.cfg.ExecDwell)
	}
	executed := time.Now()
	// A short PST slice would index out of range below, and a NaN or
	// ±Inf PST cannot be encoded: encoding/json rejects it, which would
	// break GET /v1/jobs/{id} and the WAL's terminal record for the job.
	if err := checkPSTs(psts, len(batch)); err != nil {
		return fmt.Errorf("execute: %w", err)
	}

	qubits := 0
	for _, p := range progs {
		qubits += p.NumQubits
	}
	seqs := make([]int, len(batch))
	for i, j := range batch {
		seqs[i] = j.rec.Seq
	}
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, j := range batch {
			j.rec.PST = psts[i]
			j.rec.ServiceSeconds = executed.Sub(j.claimed).Seconds()
			s.setStateLocked(j, StateDone)
			s.markTerminalLocked(j)
		}
		// Frees the backend and feeds the dispatcher's wait estimator.
		s.kernel.Done(w.index, executed.Sub(s.start).Seconds(), true)
		w.jobsDone += int64(len(batch))
		w.batchesDone++
		w.trace = append(w.trace, cloudsim.BatchRecord{
			JobIDs:     seqs,
			Start:      start.Sub(s.start).Seconds(),
			Finish:     executed.Sub(s.start).Seconds(),
			Depth:      res.Depth,
			CNOTs:      res.CNOTs,
			Strategy:   strat,
			QubitsUsed: qubits,
		})
		if len(w.trace) > s.cfg.TraceDepth {
			w.trace = w.trace[len(w.trace)-s.cfg.TraceDepth:]
		}
	}()

	m.BatchesExecuted.Inc()
	m.BatchSize.Observe(float64(len(batch)))
	if len(batch) > 1 {
		m.ColocatedBatches.Inc()
		m.ColocatedJobs.Add(int64(len(batch)))
	}
	s.observeLatency(m.ExecLatency, executed.Sub(simStart).Seconds())
	m.InFlight.Add(-int64(len(batch)))
	for i, j := range batch {
		m.JobsCompleted.Inc()
		s.observeLatency(m.TotalLatency, executed.Sub(j.rec.SubmittedAt).Seconds())
		m.PST.Observe(psts[i])
	}
	return nil
}

// compile runs one batch compilation with fault injection and panic
// containment: a compiler panic fails the batch with the recovered
// message instead of unwinding the worker. The compile goes through
// the service-wide result cache (nil when disabled): a fingerprint hit
// skips the pipeline, and identical batches compiling concurrently on
// other workers coalesce onto one compilation. Panics from the cache's
// own hooks surface here too, so a faulted cache can never unwind the
// worker loop.
func (w *worker) compile(ctx context.Context, progs []*circuit.Circuit, strat core.Strategy) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			res, err = nil, fmt.Errorf("compiler panic: %v", r)
		}
	}()
	if err := w.svc.visitFault(ctx, siteCompile); err != nil {
		return nil, err
	}
	start := time.Now()
	res, outcome, err := w.comp.CompileCachedContext(ctx, w.svc.cache, progs, strat)
	w.recordCacheOutcome(outcome, time.Since(start).Seconds())
	return res, err
}

// recordCacheOutcome feeds one cached-compile outcome into the
// registry's service-wide cache counters (a bypass counts nothing).
// Lookup latency is recorded only when the cache actually served the
// result (hit or coalesced) — a miss's duration is the compile itself,
// which CompileLatency already measures.
func (w *worker) recordCacheOutcome(outcome ccache.Outcome, seconds float64) {
	m := w.svc.metrics
	switch outcome {
	case ccache.OutcomeHit:
		m.CacheHits.Inc()
		w.svc.observeLatency(m.CacheLookup, seconds)
	case ccache.OutcomeMiss:
		m.CacheMisses.Inc()
	case ccache.OutcomeCoalesced:
		m.CacheCoalesced.Inc()
		w.svc.observeLatency(m.CacheLookup, seconds)
	}
}

// simulate runs the compiled batch with fault injection and panic
// containment, under the batch deadline.
func (w *worker) simulate(ctx context.Context, res *core.Result) (psts []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			psts, err = nil, fmt.Errorf("simulator panic: %v", r)
		}
	}()
	if err := w.svc.visitFault(ctx, siteSimulate); err != nil {
		return nil, err
	}
	return w.comp.SimulateContext(ctx, res, w.svc.cfg.Trials, w.nextSeed(), sim.DefaultNoise())
}

// checkPSTs rejects a simulator result that cannot be stored: one PST
// per program is required, and each must be finite.
func checkPSTs(psts []float64, want int) error {
	if len(psts) == 0 || len(psts) != want {
		return fmt.Errorf("internal: simulator returned %d PSTs for %d programs", len(psts), want)
	}
	for i, p := range psts {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("internal: simulator returned non-finite PST %v for program %d", p, i)
		}
	}
	return nil
}

// fail marks every job in the batch failed.
func (w *worker) fail(batch []*job, err error) {
	s := w.svc
	now := time.Now()
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range batch {
			j.rec.Error = err.Error()
			j.rec.ServiceSeconds = now.Sub(j.claimed).Seconds()
			s.setStateLocked(j, StateFailed)
			s.markTerminalLocked(j)
		}
		s.kernel.Done(w.index, now.Sub(s.start).Seconds(), false)
		w.batchesDone++
	}()
	s.metrics.BatchesExecuted.Inc()
	s.metrics.BatchSize.Observe(float64(len(batch)))
	s.metrics.InFlight.Add(-int64(len(batch)))
	for _, j := range batch {
		s.metrics.JobsFailed.Inc()
		s.observeLatency(s.metrics.TotalLatency, now.Sub(j.rec.SubmittedAt).Seconds())
	}
}

// breakerSuccess records a successful batch: the failure streak resets
// and a half-open probe (or a drain-bypass probe) closes the breaker.
func (w *worker) breakerSuccess() {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.brk.state != breakerClosed {
		w.setBreakerLocked(breakerClosed)
		s.metrics.OpenBreakers.Add(-1)
	}
	w.brk.fails = 0
}

// breakerFailure records a failed batch: a failed half-open probe
// re-opens immediately; BreakerThreshold consecutive failures trip a
// closed breaker. A threshold of 0 disables the breaker.
func (w *worker) breakerFailure() {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	w.brk.fails++
	switch w.brk.state {
	case breakerHalfOpen:
		w.setBreakerLocked(breakerOpen)
		w.brk.openedAt = time.Now()
		w.brk.opens++
		s.metrics.BreakerTrips.Inc()
		s.migrateLocked(w)
	case breakerClosed:
		if s.cfg.BreakerThreshold > 0 && w.brk.fails >= s.cfg.BreakerThreshold {
			w.setBreakerLocked(breakerOpen)
			w.brk.openedAt = time.Now()
			w.brk.opens++
			s.metrics.BreakerTrips.Inc()
			s.metrics.OpenBreakers.Add(1)
			s.migrateLocked(w)
		}
	}
}

// sleepInterruptible sleeps for d or until stop closes or ctx is
// cancelled, whichever comes first.
func sleepInterruptible(ctx context.Context, stop <-chan struct{}, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	case <-ctx.Done():
	}
}

// statusLocked assembles the worker's BackendStatus; callers hold
// Service.mu.
func (w *worker) statusLocked() BackendStatus {
	c := w.svc.kernel.Candidate(w.index)
	return BackendStatus{
		Chip:            c.Chip,
		Load:            c.Load,
		Epsilon:         w.svc.cfg.Epsilon,
		JobsCompleted:   w.jobsDone,
		BatchesExecuted: w.batchesDone,
		Migrated:        w.migrated,
		Breaker: BreakerStatus{
			State:               w.brk.state,
			ConsecutiveFailures: w.brk.fails,
			Opens:               w.brk.opens,
		},
		SchedulerErrors:  w.schedErrs,
		LastSchedError:   w.lastSchedErr,
		RecentBatches:    append([]cloudsim.BatchRecord(nil), w.trace...),
		RecentDispatches: append([]DispatchDecision(nil), w.dispatches...),
	}
}
