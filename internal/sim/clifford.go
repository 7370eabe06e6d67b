package sim

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// SimulateScheduleCliffordCtx estimates per-program PSTs like
// SimulateScheduleCtx, but on the stabilizer-tableau engine: it handles
// any number of active qubits (50-qubit chips included) as long as
// every gate in the schedule is Clifford. The reference outcome is the
// noiseless run measured in (program, logical) order with random
// outcomes resolved to 0, matching the statevector engine's
// lowest-index modal convention. workers, ctx and the determinism
// contract are SimulateScheduleCtx's; the trials sample their noise
// under sampling contract v2 (frame.go): per shard of 512 trials, an
// error lattice read by bit-sliced Pauli frames over the noiseless
// reference, with a per-trial tableau only for the pairs a decay hit.
func SimulateScheduleCliffordCtx(ctx context.Context, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel, workers int) (*Outcome, error) {
	return monteCarlo(ctx, d, sched, progs, trials, seed, noise, workers, engineTableau)
}

// CliffordOutcome computes a logical Clifford circuit's noiseless
// reference bitstring without any device or routing: all non-measure
// gates run in program order on the stabilizer register, then every
// measured qubit is read in ascending qubit order with random outcomes
// resolved to 0 — the same convention SimulateScheduleCliffordCtx uses
// for its reference run. Property tests compare it against routed
// schedules' Correct strings; that comparison assumes the circuit's
// measurements are terminal (e.g. MeasureAll), matching the router's
// measure-deferral semantics.
func CliffordOutcome(c *circuit.Circuit) (string, error) {
	fac := newFactoring(c.NumQubits)
	measured := make([]bool, c.NumQubits)
	var ops []compiledOp
	for _, g := range c.Gates {
		op, err := lowerGate(g, engineTableau)
		switch {
		case err != nil:
			return "", err
		case g.IsMeasure():
			measured[g.Qubits[0]] = true
		case op.kind == op1Q:
			return "", fmt.Errorf("sim: gate %s is not Clifford", g.Name)
		case op.kind != opNone:
			fac.place(&op)
			ops = append(ops, op)
		}
	}
	_ = fac.finish(engineTableau) // a tableau has no cap, so this cannot fail
	// The lowered gates run as one noiseless layer of the tableau engine.
	reg := newStabilizer(fac)
	(&compiledProgram{layers: []compiledLayer{{ops: ops}}}).runGates(reg)
	var buf []byte
	for q := 0; q < c.NumQubits; q++ {
		if !measured[q] {
			continue
		}
		tb, b := reg.at(fac.slot[q])
		buf = append(buf, byte('0'+tb.measure(b, func() bool { return false })))
	}
	return string(buf), nil
}
