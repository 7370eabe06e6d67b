// Package sched implements the paper's compilation task scheduler
// (Algorithm 4): it batches queued quantum programs for multi-programming
// when the estimated fidelity loss stays under a threshold. Fidelity is
// estimated with EPST (Equation 4) on the regions the CDAP partitioner
// would allocate; the throughput gain is reported as the Trial Reduction
// Factor (TRF). kernel.go wraps the scheduler in the queue → dispatch →
// claim state machine the daemon and the offline simulators share.
package sched

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Job is one queued compilation task.
type Job struct {
	// ID is the caller's identifier (unique within a queue).
	ID int
	// Circ is the program to run.
	Circ *circuit.Circuit
}

// Batch is a set of jobs scheduled to run concurrently; a singleton
// batch is a separate execution.
type Batch struct {
	JobIDs []int
}

// Config tunes Algorithm 4.
type Config struct {
	// Epsilon is the maximum tolerated EPST violation
	// 1 - coEPST/sepEPST for every job in a batch.
	Epsilon float64
	// Lookahead is N: only the first N queued jobs are considered when
	// extending a batch (10 in the paper).
	Lookahead int
	// MaxColocate bounds the batch size (the paper's
	// max_colocate_num; it "supports more than two programs").
	MaxColocate int
	// Omega is the CDAP reward weight for the hierarchy tree.
	Omega float64
}

// DefaultConfig mirrors the paper's defaults with the knee ω for IBMQ16.
func DefaultConfig() Config {
	return Config{Epsilon: 0.15, Lookahead: 10, MaxColocate: 3, Omega: 0.95}
}

// SeparateEPST is a program's best-case EPST (Equation 4,
// arch.Device.EPST): the EPST on the region CDAP allocates when the
// program runs alone, which is ColocatedEPST of that one program (a
// lone program has no busy links).
func SeparateEPST(d *arch.Device, tree *community.Tree, p *circuit.Circuit) (float64, error) {
	epst, err := ColocatedEPST(d, tree, []*circuit.Circuit{p})
	if err != nil {
		return 0, err
	}
	return epst[0], nil
}

// ColocatedEPST partitions the chip among all programs with CDAP and
// returns each program's EPST on its allocated region. On devices with
// a pairwise crosstalk matrix, each program's estimate charges its
// region's links their worst conditional error against every other
// program's links (the busy links of arch.Device.EPST), so the
// scheduler's epsilon test rejects co-locations whose regions interfere
// even when each region is fine in isolation. Without a matrix the
// estimates are the crosstalk-blind ones.
func ColocatedEPST(d *arch.Device, tree *community.Tree, progs []*circuit.Circuit) ([]float64, error) {
	res, err := partition.CDAP(d, tree, progs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(progs))
	for i, a := range res.Assignments {
		var busy []graph.Edge // only a crosstalk matrix reads them
		if d.HasCrosstalk() {
			for j, b := range res.Assignments {
				if j != i {
					busy = append(busy, d.Coupling.InducedEdges(b.Region)...)
				}
			}
		}
		p := progs[i]
		out[i] = d.EPST(a.Region, p.RawCNOTCount(), p.Gate1Count(), p.NumQubits, busy)
	}
	return out, nil
}

// withDefaults fills Algorithm 4's zero bounds from DefaultConfig.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = def.Lookahead
	}
	if cfg.MaxColocate <= 0 {
		cfg.MaxColocate = def.MaxColocate
	}
	return cfg
}

// checkEpsilon rejects the thresholds Algorithm 4 cannot test a
// violation against: a negative ε, and NaN, which no violation exceeds,
// so it would co-locate everything. +Inf, co-locating whatever fits, is
// valid.
func checkEpsilon(eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		return fmt.Errorf("sched: epsilon %v must be a non-negative number", eps)
	}
	return nil
}

// Schedule runs Algorithm 4 over the job queue and returns the batches
// in submission order. Jobs that cannot be co-located within the
// violation threshold run separately. An error is returned only when a
// job cannot be placed at all (more qubits than the chip has) or ε is
// negative or NaN.
//
// Schedule is deterministic (it draws no randomness) and safe to call
// from concurrent goroutines as long as each call uses its own queue
// slice; the device and circuits are only read.
func Schedule(d *arch.Device, jobs []Job, cfg Config) ([]Batch, error) {
	if err := checkEpsilon(cfg.Epsilon); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	tree := community.BuildCached(d, cfg.Omega)
	queue := append([]Job(nil), jobs...)
	var batches []Batch
	for len(queue) > 0 {
		b, err := next(d, tree, queue, cfg)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
		// The batch is a subsequence of the queue: drop it in one pass.
		rest, k := queue[:0], 0
		for _, j := range queue {
			if k < len(b.JobIDs) && j.ID == b.JobIDs[k] {
				k++
				continue
			}
			rest = append(rest, j)
		}
		queue = rest
	}
	return batches, nil
}

// Next is one iteration of Algorithm 4's outer loop: the queue head
// extended over the lookahead window, which is Schedule's first batch.
// Online callers that execute one batch at a time (Kernel.Claim) use it
// instead of scheduling the whole queue and discarding the rest. The
// queue must be non-empty.
func Next(d *arch.Device, jobs []Job, cfg Config) (Batch, error) {
	if err := checkEpsilon(cfg.Epsilon); err != nil {
		return Batch{}, err
	}
	cfg = cfg.withDefaults()
	tree := community.BuildCached(d, cfg.Omega)
	return next(d, tree, jobs, cfg)
}

func next(d *arch.Device, tree *community.Tree, queue []Job, cfg Config) (Batch, error) {
	if _, err := SeparateEPST(d, tree, queue[0].Circ); err != nil {
		return Batch{}, fmt.Errorf("sched: job %d cannot run even alone: %w", queue[0].ID, err)
	}
	cur := []Job{queue[0]}
	for idx := 1; idx < len(queue) && idx < cfg.Lookahead && len(cur) < cfg.MaxColocate; idx++ {
		trial := append(cur[:len(cur):len(cur)], queue[idx])
		if violationOK(d, tree, trial, cfg.Epsilon) {
			cur = trial
		}
	}
	ids := make([]int, len(cur))
	for i, j := range cur {
		ids[i] = j.ID
	}
	return Batch{JobIDs: ids}, nil
}

// violationOK reports whether every job in the trial batch keeps its
// EPST violation within epsilon; a batch CDAP cannot place is not OK,
// nor is one holding a job that cannot run even alone.
func violationOK(d *arch.Device, tree *community.Tree, trial []Job, epsilon float64) bool {
	progs := make([]*circuit.Circuit, len(trial))
	for i, j := range trial {
		progs[i] = j.Circ
	}
	co, err := ColocatedEPST(d, tree, progs)
	if err != nil {
		return false
	}
	for i, j := range trial {
		sep, err := SeparateEPST(d, tree, j.Circ)
		if err != nil || fp.Zero(sep) {
			return false
		}
		if violation := 1 - co[i]/sep; violation > epsilon {
			return false
		}
	}
	return true
}

// TRF is the Trial Reduction Factor: the ratio of executions needed
// separately (one per job) to the executions needed with the batching
// (one per batch). Separate execution has TRF 1; perfect pairing has 2.
func TRF(numJobs int, batches []Batch) float64 {
	if len(batches) == 0 {
		return 0
	}
	return float64(numJobs) / float64(len(batches))
}

// RandomPairs is the random-workload baseline of §V-B3: it shuffles the
// queue with rng and pairs consecutive jobs unconditionally (the last job
// runs alone when the count is odd). Concurrent schedulers (e.g. one
// worker goroutine per backend in internal/service) must each own their
// *rand.Rand: nothing in this package touches the global math/rand
// state, so schedules stay deterministic and race-free as long as each
// worker threads its own rng through.
func RandomPairs(jobs []Job, rng *rand.Rand) []Batch {
	order := rng.Perm(len(jobs))
	var batches []Batch
	for i := 0; i < len(order); i += 2 {
		b := Batch{JobIDs: []int{jobs[order[i]].ID}}
		if i+1 < len(order) {
			b.JobIDs = append(b.JobIDs, jobs[order[i+1]].ID)
		}
		batches = append(batches, b)
	}
	return batches
}

// SeparateAll is the separate-execution baseline: one batch per job.
func SeparateAll(jobs []Job) []Batch {
	out := make([]Batch, len(jobs))
	for i, j := range jobs {
		out[i] = Batch{JobIDs: []int{j.ID}}
	}
	return out
}
