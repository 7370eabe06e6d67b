// Package fleet is the multi-chip dispatcher core: given a pool of
// registered devices with live load information, it scores every chip
// that can hold a job under a pluggable allocation policy and picks
// the best one deterministically. The policy set mirrors the
// allocation-strategies map of cloud-queue simulators (QSRA's QPU
// scheduling + resource allocation formulation): "speed" minimizes
// estimated waiting time, "fidelity" maximizes a calibration-derived
// success estimate, "fairness" equalizes per-qubit cumulative load,
// and "balanced" blends all three. Both the live service
// (internal/service) and the offline cloud simulator
// (internal/cloudsim) route through this package, so dispatch
// decisions agree between simulation and production.
//
// Everything here is a pure function of its inputs — no clocks, no
// global randomness — so a dispatch trace is reproducible from the job
// stream alone. Ties are broken by ascending chip name, never by
// candidate order.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
)

// Chip is the static, calibration-derived view of one device: the
// facts a policy may consult that do not change between calibration
// pushes. Build it with ChipOf.
type Chip struct {
	// Name identifies the chip; it is the deterministic tie-breaker,
	// so names must be unique within a fleet.
	Name string `json:"name"`
	// Qubits is the physical qubit count (capacity filter and
	// headroom denominator).
	Qubits int `json:"qubits"`
	// MeanCNOTErr is the mean two-qubit gate error over all links.
	MeanCNOTErr float64 `json:"mean_cnot_err"`
	// MeanReadoutErr is the mean measurement error over all qubits.
	MeanReadoutErr float64 `json:"mean_readout_err"`
}

// ChipOf summarizes an arch device into the dispatcher's chip view.
func ChipOf(d *arch.Device) Chip {
	n := d.NumQubits()
	ro := 0.0
	for q := 0; q < n; q++ {
		ro += d.ReadoutErr[q]
	}
	if n > 0 {
		ro /= float64(n)
	}
	return Chip{
		Name:           d.Name,
		Qubits:         n,
		MeanCNOTErr:    d.AvgCNOTErr(),
		MeanReadoutErr: ro,
	}
}

// Load is the live state of one chip at dispatch time, supplied by
// whoever owns the queues (the service under its lock, the simulator
// from its event loop).
type Load struct {
	// QueueDepth is how many dispatched jobs are waiting for the chip.
	QueueDepth int `json:"queue_depth"`
	// Busy reports whether a batch is executing right now (counts as
	// one extra queued job in wait estimates).
	Busy bool `json:"busy"`
	// EWMAServiceSeconds is the smoothed per-job service time; 0 means
	// no sample yet (policies substitute a unit prior so empty-history
	// chips still rank by queue depth).
	EWMAServiceSeconds float64 `json:"ewma_service_seconds"`
	// Dispatched is the cumulative number of jobs routed to the chip.
	Dispatched int64 `json:"dispatched"`
	// BreakerOpen marks a chip whose circuit breaker is fully open:
	// Pick avoids it whenever any healthy chip fits. A half-open chip
	// stays eligible, or its probe batch would starve.
	BreakerOpen bool `json:"breaker_open"`
}

// Job is what the dispatcher knows about a submission: its width and
// gate counts (the inputs of the calibration-derived success
// estimate).
type Job struct {
	Qubits int
	CNOTs  int
	Gate1s int
}

// Candidate pairs a chip with its live load for one dispatch decision.
type Candidate struct {
	Chip Chip
	Load Load
}

// Policy scores candidate chips for a job. Higher is better; scores
// need only be comparable within one Pick call. Implementations must
// be pure functions of (Candidate, Job) so dispatch is reproducible.
type Policy interface {
	Name() string
	Score(c Candidate, j Job) float64
}

// ewmaOrUnit substitutes a one-second prior when the chip has no
// service-time history, so wait estimates stay proportional to queue
// depth instead of collapsing to zero.
func ewmaOrUnit(l Load) float64 {
	if l.EWMAServiceSeconds > 0 {
		return l.EWMAServiceSeconds
	}
	return 1
}

// waitEstimate is the expected seconds until the chip could start the
// job: queued jobs (plus the one executing) times the smoothed per-job
// service time.
func waitEstimate(l Load) float64 {
	depth := float64(l.QueueDepth)
	if l.Busy {
		depth++
	}
	return depth * ewmaOrUnit(l)
}

// logFidelity is the calibration-derived success estimate in log
// domain (≤ 0, higher is better): each of the job's CNOTs survives
// with the chip's mean link reliability and each measured qubit reads
// out with the mean readout reliability. Log domain keeps wide
// circuits from underflowing to an untie-breakable 0.
func logFidelity(c Chip, j Job) float64 {
	return float64(j.CNOTs)*math.Log1p(-clampErr(c.MeanCNOTErr)) +
		float64(j.Qubits)*math.Log1p(-clampErr(c.MeanReadoutErr))
}

// clampErr keeps an error rate inside [0, 1-1e-9] so Log1p stays
// finite even on a pathological calibration.
func clampErr(e float64) float64 {
	if e < 0 {
		return 0
	}
	if e > 1-1e-9 {
		return 1 - 1e-9
	}
	return e
}

// perQubitLoad is the fairness measure: cumulative dispatched plus
// currently queued jobs, normalized by capacity so a 50-qubit chip is
// expected to absorb ten times the work of a 5-qubit one.
func perQubitLoad(c Candidate) float64 {
	return (float64(c.Load.Dispatched) + float64(c.Load.QueueDepth)) / float64(c.Chip.Qubits)
}

// speedPolicy routes to the chip with the shortest estimated wait.
type speedPolicy struct{}

func (speedPolicy) Name() string { return "speed" }
func (speedPolicy) Score(c Candidate, j Job) float64 {
	return -waitEstimate(c.Load)
}

// fidelityPolicy routes to the chip where the job's estimated success
// probability is highest, ignoring load entirely.
type fidelityPolicy struct{}

func (fidelityPolicy) Name() string { return "fidelity" }
func (fidelityPolicy) Score(c Candidate, j Job) float64 {
	return logFidelity(c.Chip, j)
}

// fairnessPolicy equalizes cumulative per-qubit load across the
// fleet, so small chips are not starved and large ones not idled.
type fairnessPolicy struct{}

func (fairnessPolicy) Name() string { return "fairness" }
func (fairnessPolicy) Score(c Candidate, j Job) float64 {
	return -perQubitLoad(c)
}

// Balanced-policy blend weights (see DESIGN §12): the wait term is
// scaled so one smoothed service time of queueing outweighs typical
// calibration spreads (~1e-2 in log-fidelity), and the fairness term
// acts only as a mild long-run equalizer.
const (
	balancedWaitWeight = 0.1
	balancedFairWeight = 0.01
)

// balancedPolicy blends fidelity, wait, and fairness: route to a good
// chip, but not one with a long queue, and spread sustained load.
type balancedPolicy struct{}

func (balancedPolicy) Name() string { return "balanced" }
func (balancedPolicy) Score(c Candidate, j Job) float64 {
	return logFidelity(c.Chip, j) -
		balancedWaitWeight*waitEstimate(c.Load) -
		balancedFairWeight*perQubitLoad(c)
}

// Balanced returns the default policy.
func Balanced() Policy { return balancedPolicy{} }

// policies is the allocation-strategies map: selectable by name, like
// the QCloud simulator exemplar.
var policies = map[string]func() Policy{
	"speed":    func() Policy { return speedPolicy{} },
	"fidelity": func() Policy { return fidelityPolicy{} },
	"fairness": func() Policy { return fairnessPolicy{} },
	"balanced": Balanced,
}

// Names lists the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(policies))
	for n := range policies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New returns the policy registered under name, or an error listing
// the valid names.
func New(name string) (Policy, error) {
	mk, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown policy %q (valid: %v)", name, Names())
	}
	return mk(), nil
}

// Pick returns the index of the best candidate for the job, or -1 when
// no chip can hold it. Selection is deterministic and independent of
// candidate order:
//
//  1. chips with fewer qubits than the job needs are excluded;
//  2. breaker-open chips are excluded while any healthy chip fits
//     (when every fitting chip is open, all of them stay eligible —
//     the job must land somewhere);
//  3. the highest policy score wins, with exact ties broken by
//     ascending chip name. A NaN score disqualifies its candidate.
func Pick(p Policy, cands []Candidate, j Job) int {
	healthy := false
	for _, c := range cands {
		if c.Chip.Qubits >= j.Qubits && !c.Load.BreakerOpen {
			healthy = true
			break
		}
	}
	best := -1
	var bestScore float64
	for i, c := range cands {
		if c.Chip.Qubits < j.Qubits {
			continue
		}
		if c.Load.BreakerOpen && healthy {
			continue
		}
		score := p.Score(c, j)
		if math.IsNaN(score) {
			continue
		}
		switch {
		case best < 0:
		case score > bestScore:
		case score < bestScore:
			continue
		case c.Chip.Name < cands[best].Chip.Name:
			// Exact score tie: the lexicographically smaller name wins,
			// whatever order the candidates arrived in.
		default:
			continue
		}
		best, bestScore = i, score
	}
	return best
}

// EWMA is an exponentially weighted moving average over service
// times. The zero value is unusable; use NewEWMA. It is not
// concurrency-safe: callers serialize access (the service updates it
// under its own lock).
type EWMA struct {
	alpha  float64
	value  float64
	seeded bool
}

// NewEWMA returns an average with the given smoothing factor in
// (0, 1]; the first observation seeds the value directly.
func NewEWMA(alpha float64) EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return EWMA{alpha: alpha}
}

// Observe folds one sample in. Non-finite samples are ignored so a
// poisoned measurement cannot wedge every future dispatch decision.
func (e *EWMA) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if !e.seeded {
		e.value, e.seeded = v, true
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }
