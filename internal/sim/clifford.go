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
// lowest-index modal convention. workers, ctx, the noise rule set and
// the determinism contract are SimulateScheduleCtx's; the trials sample
// their noise under sampling contract v2 (frame.go): per shard of 512
// trials, an error lattice read by bit-sliced Pauli frames over the
// noiseless reference, with a per-trial tableau only for the pairs a
// decay hit.
func SimulateScheduleCliffordCtx(ctx context.Context, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel, workers int) (*Outcome, error) {
	for _, op := range sched.Ops {
		if opKinds[op.Gate.Name] == op1Q {
			return nil, fmt.Errorf("sim: schedule contains non-Clifford gate %q", op.Gate.Name)
		}
	}
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
	for _, g := range c.Gates {
		if opKinds[g.Name] == op1Q {
			return "", fmt.Errorf("sim: gate %s is not Clifford", g.Name)
		}
	}
	cp, measured, err := lowerCircuit(c)
	if err != nil {
		return "", err
	}
	reg := newStabilizer(cp.fac)
	cp.runGates(reg)
	var buf []byte
	for q, m := range measured {
		if m {
			tb, b := reg.at(cp.fac.slot[q])
			buf = append(buf, byte('0'+tb.measure(b, func() bool { return false })))
		}
	}
	return string(buf), nil
}
