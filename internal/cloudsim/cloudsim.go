// Package cloudsim simulates a quantum cloud service on virtual time:
// jobs arrive over time at a fleet of NISQ backends, the scheduler
// kernel qucloudd runs (sched.Kernel) routes each to a chip and decides
// which jobs run together (multi-programming), and queueing metrics —
// waiting time, turnaround, makespan, throughput, qubit utilization —
// are collected. It substantiates the paper's motivation (§II-E: >120
// queued jobs/day on IBMQ Vigo) and quantifies how much the QuCloud
// scheduler's co-location relieves the queue versus separate execution.
package cloudsim

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sched"
)

// Policy selects how the backend batches queued jobs.
type Policy int

// Scheduling policies.
const (
	// FIFOSeparate runs every job alone, in arrival order.
	FIFOSeparate Policy = iota
	// FIFOPairs co-locates adjacent queued jobs unconditionally (the
	// "random workloads" baseline).
	FIFOPairs
	// QuCloud batches jobs with the EPST scheduler (Algorithm 4).
	QuCloud
)

func (p Policy) String() string {
	switch p {
	case FIFOSeparate:
		return "fifo-separate"
	case FIFOPairs:
		return "fifo-pairs"
	case QuCloud:
		return "qucloud"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// The service-time model, at superconducting-hardware timescales: each
// batch executes the paper's shots trials, a gate layer takes
// layerSeconds, each shot adds shotOverheadSeconds of reset and readout,
// and compileSeconds is charged once per batch.
const (
	shots               = 8024
	layerSeconds        = 300e-9
	shotOverheadSeconds = 1e-3
	compileSeconds      = 2
)

// Metrics aggregates the simulation outcome.
type Metrics struct {
	// Makespan is the finish time of the last batch (seconds).
	Makespan float64
	// AvgWait is the mean time jobs spent queued before their batch
	// started; AvgTurnaround adds service time.
	AvgWait       float64
	AvgTurnaround float64
	// ThroughputPerHour is jobs completed per hour of makespan.
	ThroughputPerHour float64
	// Batches and TRF report the batching intensity.
	Batches int
	TRF     float64
	// QubitUtilization is the time- and qubit-weighted busy fraction.
	QubitUtilization float64
	// PerDevice maps device name to the jobs it completed.
	PerDevice map[string]int
}

// schedConfig is the policy as a preset of the one scheduler: separate
// execution is Algorithm 4 with batches of one, unconditional pairing
// is Algorithm 4 with no fidelity threshold over a window of two, and
// QuCloud is the paper's (sched.DefaultConfig, ε = 0.15).
func (p Policy) schedConfig() sched.Config {
	switch p {
	case FIFOSeparate:
		return sched.Config{MaxColocate: 1}
	case FIFOPairs:
		return sched.Config{Epsilon: math.Inf(1), Lookahead: 2, MaxColocate: 2}
	}
	return sched.DefaultConfig()
}

// Run simulates a cloud service with one or more backends. Each job is
// routed to a backend when it arrives (qucloudd's default balanced
// fleet policy over the chips' queue depths and smoothed service
// times), and an idle backend claims its next batch, per the policy,
// from the jobs routed to it — the scheduler kernel qucloudd runs, on
// virtual time. A batch occupies its backend for compileSeconds plus
// shots executions of the compiled depth. Devices must have distinct
// names. Returns aggregate metrics plus each backend's batch trace.
func Run(devices []*arch.Device, jobs []Job, policy Policy) (*Metrics, map[string][]BatchRecord, error) {
	if len(devices) == 0 {
		return nil, nil, fmt.Errorf("cloudsim: fleet needs at least one device")
	}
	seen := map[string]bool{}
	for _, d := range devices {
		if seen[d.Name] {
			return nil, nil, fmt.Errorf("cloudsim: duplicate device name %q", d.Name)
		}
		seen[d.Name] = true
	}
	m := &Metrics{PerDevice: map[string]int{}}
	traces := map[string][]BatchRecord{}
	if len(jobs) == 0 {
		return m, traces, nil
	}

	comps := make([]*core.Compiler, len(devices))
	totalQubits := 0
	for i, d := range devices {
		comps[i] = core.NewCompiler(d)
		comps[i].Attempts = 1
		totalQubits += d.NumQubits()
		m.PerDevice[d.Name] = 0
	}
	arrivals := make([]sched.Arrival, len(jobs))
	for i, j := range jobs {
		arrivals[i] = sched.Arrival{At: j.Arrival, Item: &sched.Item{Job: sched.Job{ID: j.ID, Circ: j.Circ}, Owner: j}}
	}

	var waitSum, turnSum, busyQS float64
	exec := func(chip int, batch []*sched.Item, now float64) (float64, error) {
		name := devices[chip].Name
		progs := sched.Programs(batch)
		strat := core.StrategyFor(len(batch))
		res, err := comps[chip].Compile(progs, strat)
		if err != nil {
			return 0, fmt.Errorf("cloudsim: job %d unschedulable on %s: %w", batch[0].ID, name, err)
		}
		service := compileSeconds +
			shots*(shotOverheadSeconds+float64(res.Depth)*layerSeconds)
		finish := now + service
		qubits := 0
		for _, p := range progs {
			qubits += p.NumQubits
		}
		traces[name] = append(traces[name], BatchRecord{
			JobIDs:     sched.IDs(batch),
			Start:      now,
			Finish:     finish,
			Depth:      res.Depth,
			CNOTs:      res.CNOTs,
			Strategy:   strat,
			QubitsUsed: qubits,
		})
		for _, it := range batch {
			arrived := it.Owner.(Job).Arrival
			waitSum += now - arrived
			turnSum += finish - arrived
		}
		busyQS += float64(qubits) * service
		m.PerDevice[name] += len(batch)
		m.Batches++
		if finish > m.Makespan {
			m.Makespan = finish
		}
		return service, nil
	}
	if err := sched.NewKernel(devices, nil, policy.schedConfig()).Run(arrivals, exec); err != nil {
		return nil, nil, err
	}

	n := float64(len(jobs))
	m.AvgWait = waitSum / n
	m.AvgTurnaround = turnSum / n
	m.TRF = n / float64(m.Batches)
	if m.Makespan > 0 {
		m.ThroughputPerHour = n / m.Makespan * 3600
		m.QubitUtilization = busyQS / (float64(totalQubits) * m.Makespan)
	}
	return m, traces, nil
}

// PoissonArrivals generates n jobs with exponential inter-arrival times
// of the given mean (seconds), cycling through the provided circuits.
// The stream is deterministic in the seed.
func PoissonArrivals(circs []*circuit.Circuit, n int, meanGap float64, seed int64) []Job {
	jobs := make([]Job, n)
	t := 0.0
	state := uint64(seed)*2654435761 + 1013904223
	next := func() float64 {
		// xorshift64* uniform in (0,1)
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		u := float64(state*0x2545F4914F6CDD1D>>11) / float64(uint64(1)<<53)
		if u <= 0 {
			u = 0.5
		}
		return u
	}
	for i := 0; i < n; i++ {
		// Inverse-CDF exponential sample.
		u := next()
		t += -meanGap * math.Log(u)
		jobs[i] = Job{ID: i, Circ: circs[i%len(circs)], Arrival: t}
	}
	return jobs
}
