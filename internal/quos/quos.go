// Package quos prototypes the adaptive runtime the paper's QuOS vision
// sketches (§II-E, §III): a feedback controller around the EPST
// scheduler. The static scheduler trusts its estimated fidelity; QuOS
// additionally observes each batch's *achieved* fidelity and adapts the
// co-location threshold epsilon on-the-fly — tightening it after
// fidelity regressions (reverting toward separate execution, which the
// paper notes static systems cannot do) and relaxing it when
// multi-programming proves harmless.
package quos

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config tunes the adaptive controller.
type Config struct {
	// InitialEpsilon seeds the co-location threshold.
	InitialEpsilon float64
	// Target is the tolerated achieved-fidelity loss per batch:
	// observed PST may fall below the separate-execution estimate by
	// this fraction before the controller reacts.
	Target float64
}

// DefaultConfig returns a controller with congestion-control-style
// dynamics around the paper's ε = 0.15 operating point.
func DefaultConfig() Config {
	return Config{
		InitialEpsilon: 0.15,
		Target:         0.12,
	}
}

// trials is Run's Monte-Carlo budget per batch observation.
const trials = 400

// The controller's adaptation: epsilon /= (1+step) on violation and
// *= (1+step/2) on success (asymmetric, like congestion control: back
// off fast, probe slowly), kept within [minEpsilon, maxEpsilon].
const (
	minEpsilon = 0.01
	maxEpsilon = 0.5
	step       = 0.5
)

// Controller is the epsilon-adaptation rule of the QuOS runtime,
// factored out of Run so that long-running services (internal/service)
// can feed it live batch observations. A Controller is not safe for
// concurrent use; give each backend worker its own.
type Controller struct {
	cfg Config
	eps float64
}

// NewController returns a controller seeded at cfg.InitialEpsilon.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg, eps: cfg.InitialEpsilon}
}

// Epsilon is the current co-location threshold to schedule with.
func (c *Controller) Epsilon() float64 { return c.eps }

// Observe feeds one executed batch: whether it co-located programs,
// the achieved average PST, and the separate-execution estimate. It
// adapts epsilon (back off fast on violation, probe slowly on success)
// and reports whether the batch violated the fidelity target.
func (c *Controller) Observe(colocated bool, avgPST, separateEstimate float64) bool {
	violated := colocated && avgPST < separateEstimate*(1-c.cfg.Target)
	if violated {
		c.eps /= 1 + step
		if c.eps < minEpsilon {
			c.eps = minEpsilon
		}
	} else if colocated {
		c.eps *= 1 + step/2
		if c.eps > maxEpsilon {
			c.eps = maxEpsilon
		}
	}
	return violated
}

// BatchReport records one executed batch and the controller state.
type BatchReport struct {
	JobIDs []int
	// AvgPST is the observed batch fidelity (0..1); SeparateEstimate
	// is the EPST-based expectation had the jobs run alone.
	AvgPST           float64
	SeparateEstimate float64
	// EpsilonAfter is the threshold after adaptation.
	EpsilonAfter float64
	Violated     bool
}

// Result is the full adaptive run.
type Result struct {
	Reports []BatchReport
	// AvgPST is the mean observed fidelity over all jobs; TRF the
	// throughput gain.
	AvgPST float64
	TRF    float64
	// FinalEpsilon is the threshold the controller converged to.
	FinalEpsilon float64
}

// SeparateEstimate is the expectation had the jobs run alone: each
// program's PST estimated analytically (ESP) from a separate
// compilation, averaged over the programs. Long-running services use
// it as the reference the Controller compares achieved fidelity to;
// ctx lets a service's per-batch deadline also bound that reference
// compilation.
func SeparateEstimate(ctx context.Context, comp *core.Compiler, progs []*circuit.Circuit, noise sim.NoiseModel) (float64, error) {
	sepRes, err := comp.CompileContext(ctx, progs, core.Separate)
	if err != nil {
		return 0, err
	}
	est := 0.0
	for i := range progs {
		esp, err := sim.AnalyticESP(comp.Device, sepRes.Schedules[i], 1, noise.IdleErrPerLayer)
		if err != nil {
			return 0, err
		}
		est += esp.PerProgram[0]
	}
	return est / float64(len(progs)), nil
}

// Run processes the queue adaptively on the scheduler kernel qucloudd
// runs (one chip, every job queued at time 0, Algorithm 4's default
// bounds): claim the next batch with the current epsilon, compile and
// "execute" it (Monte-Carlo simulation stands in for hardware), compare
// the observed fidelity against the separate-execution expectation,
// and adapt epsilon. A batch that cannot be co-located after all runs
// its head job alone and returns its tail to the queue.
func Run(d *arch.Device, jobs []sched.Job, cfg Config, seed int64) (*Result, error) {
	ctrl := NewController(cfg)
	comp := core.NewCompiler(d)
	comp.Attempts = 2
	noise := sim.DefaultNoise()
	scfg := sched.DefaultConfig()
	scfg.Epsilon = cfg.InitialEpsilon
	k := sched.NewKernel([]*arch.Device{d}, nil, scfg)
	arrivals := make([]sched.Arrival, len(jobs))
	for i, j := range jobs {
		arrivals[i].Item = &sched.Item{Job: j}
	}

	out := &Result{}
	pstSum, pstCount := 0.0, 0
	exec := func(_ int, batch []*sched.Item, _ float64) (float64, error) {
		progs := sched.Programs(batch)
		res, err := comp.Compile(progs, core.StrategyFor(len(progs)))
		if err != nil {
			return 0, fmt.Errorf("quos: job %d unschedulable: %w", batch[0].ID, err)
		}
		psts, err := comp.Simulate(res, trials, seed+int64(len(out.Reports)), noise)
		if err != nil {
			return 0, err
		}
		sepEst, err := SeparateEstimate(context.Background(), comp, progs, noise)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for _, p := range psts {
			sum += p
		}
		pstSum += sum
		pstCount += len(psts)
		avg := sum / float64(len(psts))
		violated := ctrl.Observe(len(progs) > 1, avg, sepEst)
		k.SetEpsilon(0, ctrl.Epsilon())
		out.Reports = append(out.Reports, BatchReport{
			JobIDs:           sched.IDs(batch),
			AvgPST:           avg,
			SeparateEstimate: sepEst,
			EpsilonAfter:     ctrl.Epsilon(),
			Violated:         violated,
		})
		return 0, nil
	}
	if err := k.Run(arrivals, exec); err != nil {
		return nil, err
	}
	out.FinalEpsilon = ctrl.Epsilon()
	if len(out.Reports) > 0 {
		out.TRF = float64(len(jobs)) / float64(len(out.Reports))
	}
	if pstCount > 0 {
		out.AvgPST = pstSum / float64(pstCount)
	}
	return out, nil
}
