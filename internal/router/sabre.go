package router

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// RouteSingle routes one program (e.g. a merged multi-program circuit)
// with the given initial mapping.
func RouteSingle(d *arch.Device, prog *circuit.Circuit, initial []int, opts Options) (*Schedule, error) {
	return Route(d, []*circuit.Circuit{prog}, [][]int{initial}, opts)
}

// stripMeasures returns the circuit without measurement gates (reverse
// traversal must not replay measurements).
func stripMeasures(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.Name+"-nomeas", c.NumQubits)
	for _, g := range c.Gates {
		if !g.IsMeasure() {
			out.Add(g)
		}
	}
	return out
}

// reversed returns the circuit with its gate order reversed (gate
// inverses are irrelevant for mapping: only qubit pairs matter).
func reversed(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.Name+"-rev", c.NumQubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		if !c.Gates[i].IsBarrier() {
			out.Add(c.Gates[i])
		}
	}
	return out
}

// RandomInitialMapping returns a uniformly random injective mapping of
// the program's logical qubits onto the device.
func RandomInitialMapping(d *arch.Device, prog *circuit.Circuit, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(d.NumQubits())
	return perm[:prog.NumQubits]
}

// ReverseTraversal implements SABRE's initial-mapping refinement: route
// the circuit forward, reuse the final mapping as the initial mapping of
// the reversed circuit, and iterate. The returned mapping is the one to
// use for the final forward pass. iters counts forward/backward pairs
// (the paper uses a small constant; 3 by our default callers).
func ReverseTraversal(d *arch.Device, prog *circuit.Circuit, start []int, iters int, opts Options) ([]int, error) {
	s, err := Refine(d, []*circuit.Circuit{prog}, [][]int{start}, iters, opts)
	if err != nil {
		return nil, err
	}
	return s.FinalMapping[0], nil
}

// ReverseTraversalMulti refines the initial mappings of co-located
// programs jointly; it is Refine's mapping alone.
func ReverseTraversalMulti(d *arch.Device, progs []*circuit.Circuit, initial [][]int, iters int, opts Options) ([][]int, error) {
	s, err := Refine(d, progs, initial, iters, opts)
	if err != nil {
		return nil, err
	}
	return s.FinalMapping, nil
}

// Refine is the reverse traversal of co-located programs: route all
// programs forward, reuse the final mappings for the reversed programs,
// and iterate iters forward/backward pairs. The SWAP policy in opts
// (intra-only vs X-SWAP) is honored throughout, so programs stay within
// reach of their partitions under intra-only routing. The passes are
// routed for their mappings alone, so the returned Schedule has no ops:
// FinalMapping is the refined mapping and TieBreaks totals every pass's.
func Refine(d *arch.Device, progs []*circuit.Circuit, initial [][]int, iters int, opts Options) (*Schedule, error) {
	fwd := make([]*circuit.DAG, len(progs))
	bwd := make([]*circuit.DAG, len(progs))
	for i, p := range progs {
		f := stripMeasures(p)
		fwd[i], bwd[i] = circuit.NewDAG(f), circuit.NewDAG(reversed(f))
	}
	out := &Schedule{Device: d, FinalMapping: make([][]int, len(initial))}
	for i := range initial {
		out.FinalMapping[i] = append([]int(nil), initial[i]...)
	}
	for pass := 0; pass < 2*iters; pass++ {
		dags := fwd
		if pass%2 == 1 {
			dags = bwd
		}
		r, err := newRun(d, dags, out.FinalMapping, opts)
		if err != nil {
			return nil, err
		}
		r.mapOnly = true
		if err := r.route(); err != nil {
			return nil, err
		}
		out.TieBreaks += r.sched.TieBreaks
		for p, pr := range r.progs {
			out.FinalMapping[p] = pr.l2p // newRun copied the mapping in
		}
	}
	return out, nil
}
