// Property tests for the router, in an external test package so they
// can drive schedules through internal/sim (sim imports router, so an
// internal test would be an import cycle).
package router_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
	"repro/internal/sim"
)

// randomClifford builds a seeded random Clifford circuit ending in
// MeasureAll, the shape the router's measure-deferral expects.
func randomClifford(rng *rand.Rand, name string, qubits, gates int) *circuit.Circuit {
	c := circuit.New(name, qubits)
	for i := 0; i < gates; i++ {
		if qubits >= 2 && rng.Intn(3) == 0 {
			a := rng.Intn(qubits)
			b := rng.Intn(qubits - 1)
			if b >= a {
				b++
			}
			if rng.Intn(2) == 0 {
				c.CX(a, b)
			} else {
				c.CZ(a, b)
			}
			continue
		}
		q := rng.Intn(qubits)
		switch rng.Intn(5) {
		case 0:
			c.H(q)
		case 1:
			c.S(q)
		case 2:
			c.Sdg(q)
		case 3:
			c.X(q)
		default:
			c.Z(q)
		}
	}
	return c.MeasureAll()
}

// checkSchedule asserts the structural properties every schedule must
// satisfy: Validate passes, every two-qubit op (source gate or inserted
// SWAP alike) runs on a coupled pair, and the final mappings form an
// injective placement into the device's physical qubits.
func checkSchedule(t *testing.T, d *arch.Device, s *router.Schedule, progs []*circuit.Circuit, initial [][]int) {
	t.Helper()
	if err := s.Validate(progs, initial); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i, op := range s.Ops {
		if op.Gate.IsTwoQubit() && !d.Coupling.HasEdge(op.Gate.Qubits[0], op.Gate.Qubits[1]) {
			t.Fatalf("op %d %v uses uncoupled qubits", i, op.Gate)
		}
	}
	if len(s.FinalMapping) != len(progs) {
		t.Fatalf("FinalMapping has %d programs, want %d", len(s.FinalMapping), len(progs))
	}
	seen := map[int]bool{}
	for p, m := range s.FinalMapping {
		if len(m) != progs[p].NumQubits {
			t.Fatalf("program %d final mapping has %d entries, want %d", p, len(m), progs[p].NumQubits)
		}
		for l, phys := range m {
			if phys < 0 || phys >= d.NumQubits() {
				t.Fatalf("program %d logical %d mapped to phys %d, outside [0,%d)", p, l, phys, d.NumQubits())
			}
			if seen[phys] {
				t.Fatalf("program %d logical %d collides on phys %d", p, l, phys)
			}
			seen[phys] = true
		}
	}
}

// checkCliffordEquivalence asserts the routed schedule computes the same
// function as the logical programs: its noiseless Correct strings must
// match each program's device-free stabilizer reference.
func checkCliffordEquivalence(t *testing.T, d *arch.Device, s *router.Schedule, progs []*circuit.Circuit, seed int64) {
	t.Helper()
	out, err := sim.SimulateScheduleCliffordCtx(context.Background(), d, s, progs, 1, seed, sim.NoiseModel{}, 0)
	if err != nil {
		t.Fatalf("SimulateScheduleClifford: %v", err)
	}
	for p, prog := range progs {
		want, err := sim.CliffordOutcome(prog)
		if err != nil {
			t.Fatalf("CliffordOutcome(%s): %v", prog.Name, err)
		}
		if out.Correct[p] != want {
			t.Fatalf("program %d (%s): schedule computes %q, logical circuit computes %q",
				p, prog.Name, out.Correct[p], want)
		}
	}
}

// routerVariants covers the strategy-relevant option sets: plain SABRE,
// X-SWAP (inter-program with gain term).
var routerVariants = []struct {
	name string
	opts router.Options
}{
	{"default", router.DefaultOptions()},
	{"xswap", router.XSWAPOptions()},
}

func TestRouteSingleProperties(t *testing.T) {
	d := arch.London()
	for _, v := range routerVariants {
		for trial := 0; trial < 8; trial++ {
			t.Run(fmt.Sprintf("%s/%d", v.name, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100 + trial)))
				qubits := 3 + rng.Intn(3) // 3..5 on the 5-qubit chip
				prog := randomClifford(rng, fmt.Sprintf("rc%d", trial), qubits, 10+rng.Intn(10))
				initial := make([]int, qubits)
				for l := range initial {
					initial[l] = l
				}
				s, err := router.Route(d, []*circuit.Circuit{prog}, [][]int{initial}, v.opts)
				if err != nil {
					t.Fatalf("Route: %v", err)
				}
				checkSchedule(t, d, s, []*circuit.Circuit{prog}, [][]int{initial})
				checkCliffordEquivalence(t, d, s, []*circuit.Circuit{prog}, int64(trial))
			})
		}
	}
}

func TestRouteMultiProgramProperties(t *testing.T) {
	d := arch.IBMQ16(0)
	for _, v := range routerVariants {
		for trial := 0; trial < 6; trial++ {
			t.Run(fmt.Sprintf("%s/%d", v.name, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(500 + trial)))
				p0 := randomClifford(rng, "p0", 3, 8+rng.Intn(8))
				p1 := randomClifford(rng, "p1", 4, 8+rng.Intn(8))
				progs := []*circuit.Circuit{p0, p1}
				initial := [][]int{{0, 1, 2}, {3, 4, 5, 6}}
				s, err := router.Route(d, progs, initial, v.opts)
				if err != nil {
					t.Fatalf("Route: %v", err)
				}
				checkSchedule(t, d, s, progs, initial)
				checkCliffordEquivalence(t, d, s, progs, int64(trial))
			})
		}
	}
}
