package sim

import (
	"context"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fp"
	"repro/internal/router"
)

// MitigatedOutcome extends Outcome with readout-error-mitigated PSTs:
// the per-program outcome histograms are corrected by inverting the
// tensored per-qubit readout confusion matrices (the standard
// measurement-error-mitigation technique; cf. Tannu & Qureshi, the
// paper's [29]).
type MitigatedOutcome struct {
	Outcome
	// MitigatedPST[p] is program p's PST after readout correction,
	// clamped to [0, 1].
	MitigatedPST []float64
}

// SimulateScheduleMitigated runs the statevector Monte-Carlo simulation
// like SimulateScheduleCtx (pool-default workers, no cancellation) and
// additionally applies tensored readout-error mitigation per program.
// Programs are limited to 16 measured qubits (the histogram is dense).
func SimulateScheduleMitigated(d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel) (*MitigatedOutcome, error) {
	var hist histograms
	raw, err := monteCarlo(context.Background(), d, sched, progs, trials, seed, noise, 0, engineStatevector, &hist)
	if err != nil {
		return nil, err
	}
	out := &MitigatedOutcome{Outcome: *raw, MitigatedPST: make([]float64, len(progs))}
	// Per program, in plan (logical) order: each measured qubit's flip
	// probability and the index of the correct outcome.
	eps := make([][]float64, len(progs))
	correctIdx := make([]int, len(progs))
	for _, mp := range hist.plan {
		e := 0.0
		if noise.Enabled && noise.Readout {
			e = mp.readout
		}
		eps[mp.prog] = append(eps[mp.prog], e)
		correctIdx[mp.prog] |= mp.correct << uint(mp.bit)
	}
	for p := range progs {
		freq := make([]float64, len(hist.counts[p]))
		for i, c := range hist.counts[p] {
			freq[i] = float64(c) / float64(trials)
		}
		v := invertReadout(freq, eps[p])[correctIdx[p]]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out.MitigatedPST[p] = v
	}
	return out, nil
}

// invertReadout applies the tensored inverse confusion transform to a
// dense outcome distribution: for each qubit i with flip probability
// eps[i], the pairwise [p(bit=0), p(bit=1)] marginals are multiplied by
// A^-1 = 1/(1-2e) * [[1-e, -e], [-e, 1-e]]. eps values of 0.5 (singular
// matrix) leave that qubit uncorrected.
func invertReadout(freq []float64, eps []float64) []float64 {
	out := append([]float64(nil), freq...)
	for i, e := range eps {
		if fp.Zero(e) {
			continue
		}
		den := 1 - 2*e
		if den <= 1e-9 {
			continue // singular or anti-correlated: skip correction
		}
		a, b := (1-e)/den, -e/den
		bit := 1 << uint(i)
		for idx := range out {
			if idx&bit == 0 {
				p0, p1 := out[idx], out[idx|bit]
				out[idx] = a*p0 + b*p1
				out[idx|bit] = b*p0 + a*p1
			}
		}
	}
	return out
}
