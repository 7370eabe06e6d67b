package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

// ESP holds the analytic Estimated Success Probability of a compiled
// schedule: the product of every operation's reliability, per program.
// It is the closed-form counterpart to the Monte-Carlo PST — orders of
// magnitude faster, exact for independent error channels, but blind to
// error cancellation and crosstalk structure.
type ESP struct {
	// PerProgram[p] is program p's estimated success probability.
	PerProgram []float64
	// Breakdown separates the contributions (same indexing).
	GateFactor    []float64 // 1q + CNOT + attributed SWAP reliabilities
	ReadoutFactor []float64 // measurement reliabilities
	IdleFactor    []float64 // idle-layer decoherence
}

// AnalyticESP computes each program's ESP for the schedule:
//
//	ESP_p = Π_{1q,cx ops of p} (1-err)
//	      · Π_{SWAPs triggered by p} (1-err)^3
//	      · Π_{measures of p} (1-readout)
//	      · (1-idle)^(idle-layers of p's qubits)
//
// where idle layers count, for each of p's qubits, the layers between
// the qubit's last gate and the end of the co-located schedule (the
// §III-C waiting penalty) plus gaps inside the circuit. idlePerLayer of
// 0 disables the idle factor. numPrograms must cover every program
// index appearing in the schedule.
func AnalyticESP(d *arch.Device, sched *router.Schedule, numPrograms int, idlePerLayer float64) (*ESP, error) {
	esp := &ESP{
		PerProgram:    make([]float64, numPrograms),
		GateFactor:    make([]float64, numPrograms),
		ReadoutFactor: make([]float64, numPrograms),
		IdleFactor:    make([]float64, numPrograms),
	}
	for p := 0; p < numPrograms; p++ {
		esp.GateFactor[p] = 1
		esp.ReadoutFactor[p] = 1
		esp.IdleFactor[p] = 1
	}
	// With a pairwise crosstalk matrix the error of a two-qubit op
	// depends on which links fire in the same layer, so those ops are
	// charged in a layered walk below instead of the flat walk here. The
	// no-matrix path is untouched (ESP never had a scalar crosstalk
	// term), so existing devices produce bit-identical estimates.
	useMatrix := d.HasCrosstalk()
	for _, op := range sched.Ops {
		switch {
		case op.IsSwap:
			p := op.TriggerProgram
			if p < 0 || p >= numPrograms {
				return nil, fmt.Errorf("sim: swap with trigger program %d (have %d programs)", p, numPrograms)
			}
			if useMatrix {
				continue
			}
			rel := 1 - d.CNOTError(op.Gate.Qubits[0], op.Gate.Qubits[1])
			esp.GateFactor[p] *= rel * rel * rel
		case op.Gate.IsMeasure():
			if op.Program >= 0 && op.Program < numPrograms {
				esp.ReadoutFactor[op.Program] *= 1 - d.ReadoutErr[op.Gate.Qubits[0]]
			}
		case op.Gate.IsBarrier():
			// no physical cost
		case op.Gate.IsTwoQubit():
			if op.Program < 0 || op.Program >= numPrograms {
				return nil, fmt.Errorf("sim: gate op with program %d", op.Program)
			}
			if useMatrix {
				continue
			}
			esp.GateFactor[op.Program] *= 1 - d.CNOTError(op.Gate.Qubits[0], op.Gate.Qubits[1])
		default:
			if op.Program < 0 || op.Program >= numPrograms {
				return nil, fmt.Errorf("sim: gate op with program %d", op.Program)
			}
			esp.GateFactor[op.Program] *= 1 - d.Gate1Err[op.Gate.Qubits[0]]
		}
	}

	var lay *layered
	if useMatrix || idlePerLayer > 0 {
		lay = layerize(sched)
	}
	if useMatrix {
		var edges []graph.Edge
		for _, layer := range lay.layers {
			edges = twoQubitLinks(edges, layer)
			for _, op := range layer {
				if !op.Gate.IsTwoQubit() {
					continue
				}
				rel := 1 - d.Worst2qErrUnder(graph.NewEdge(op.Gate.Qubits[0], op.Gate.Qubits[1]), edges)
				if op.IsSwap {
					esp.GateFactor[op.TriggerProgram] *= rel * rel * rel
				} else {
					esp.GateFactor[op.Program] *= rel
				}
			}
		}
	}

	if idlePerLayer > 0 {
		total := len(lay.layers)
		// busySum[q] is the number of layers q spends in a gate; every
		// other layer of the co-located schedule it idles. A barrier is
		// no gate: its operands idle through its layer, as on both
		// Monte-Carlo engines.
		busySum := map[int]int{}
		for _, layer := range lay.layers {
			for _, op := range layer {
				if op.Gate.IsBarrier() {
					continue
				}
				cost := 1
				if op.Gate.Name == circuit.GateSWAP {
					cost = 3
				}
				for _, q := range op.Gate.Qubits {
					busySum[q] += cost
				}
			}
		}
		// Attribute each measured qubit's idle time to its program.
		for _, m := range sched.Measurements {
			if m.Program < 0 || m.Program >= numPrograms {
				continue
			}
			idle := total - busySum[m.Phys]
			if idle < 0 {
				idle = 0
			}
			for i := 0; i < idle; i++ {
				esp.IdleFactor[m.Program] *= 1 - idlePerLayer
			}
		}
	}

	for p := 0; p < numPrograms; p++ {
		esp.PerProgram[p] = esp.GateFactor[p] * esp.ReadoutFactor[p] * esp.IdleFactor[p]
	}
	return esp, nil
}
