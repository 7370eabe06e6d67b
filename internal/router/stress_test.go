package router

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// randomDevice builds one of the standard test topologies from a seed.
func randomDevice(rng *rand.Rand) *arch.Device {
	switch rng.Intn(4) {
	case 0:
		return arch.Linear(4+rng.Intn(5), 0.02+0.05*rng.Float64(), 0.02)
	case 1:
		return arch.Grid(2+rng.Intn(2), 2+rng.Intn(3), 0.02, 0.02)
	case 2:
		return arch.Ring(4+rng.Intn(5), 0.03, 0.02)
	default:
		return arch.IBMQ16(rng.Int63())
	}
}

// randomProgram builds a random circuit over n qubits.
func randomProgram(rng *rand.Rand, name string, n, gates int) *circuit.Circuit {
	c := circuit.New(name, n)
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			c.H(a)
		case 1:
			c.T(a)
		default:
			if n > 1 {
				b := rng.Intn(n - 1)
				if b >= a {
					b++
				}
				c.CX(a, b)
			} else {
				c.X(a)
			}
		}
	}
	return c.MeasureAll()
}

// randomDisjointMappings places the programs on random disjoint qubits.
func randomDisjointMappings(rng *rand.Rand, d *arch.Device, progs []*circuit.Circuit) [][]int {
	perm := rng.Perm(d.NumQubits())
	out := make([][]int, len(progs))
	at := 0
	for i, p := range progs {
		out[i] = append([]int(nil), perm[at:at+p.NumQubits]...)
		at += p.NumQubits
	}
	return out
}

// TestRouteStress fuzzes the router across topologies, programs,
// mappings, and option sets: every run must terminate, validate, and
// keep simulator-visible invariants (each measurement on a distinct
// physical qubit).
func TestRouteStress(t *testing.T) {
	optionSets := []func() Options{
		DefaultOptions,
		XSWAPOptions,
		func() Options {
			o := DefaultOptions()
			o.NoisePenalty = 3
			return o
		},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDevice(rng)
		nprogs := 1 + rng.Intn(2)
		total := d.NumQubits()
		var progs []*circuit.Circuit
		remaining := total
		for i := 0; i < nprogs && remaining >= 2; i++ {
			n := 2 + rng.Intn(min(3, remaining-1))
			if n > remaining {
				n = remaining
			}
			progs = append(progs, randomProgram(rng, "p", n, 5+rng.Intn(20)))
			remaining -= n
		}
		mappings := randomDisjointMappings(rng, d, progs)
		opts := optionSets[rng.Intn(len(optionSets))]()
		opts.Seed = seed
		s, err := Route(d, progs, mappings, opts)
		if err != nil {
			// Intra-only routing can be genuinely infeasible when a
			// program's qubits are separated by another program on a
			// path-like chip; that is a documented failure, not a bug.
			return !opts.InterProgram
		}
		if err := s.Validate(progs, mappings); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		seen := map[int]bool{}
		perProgram := map[int]int{}
		for _, m := range s.Measurements {
			if seen[m.Phys] {
				t.Logf("seed %d: measurement collision on phys %d", seed, m.Phys)
				return false
			}
			seen[m.Phys] = true
			perProgram[m.Program]++
		}
		for pi, p := range progs {
			if perProgram[pi] != p.NumQubits {
				t.Logf("seed %d: program %d measured %d of %d qubits", seed, pi, perProgram[pi], p.NumQubits)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteStressLargeChip runs fewer but bigger cases on IBMQ50.
func TestRouteStressLargeChip(t *testing.T) {
	if testing.Short() {
		t.Skip("large-chip stress skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	d := arch.IBMQ50(1)
	for i := 0; i < 6; i++ {
		progs := []*circuit.Circuit{
			randomProgram(rng, "a", 6, 60),
			randomProgram(rng, "b", 8, 80),
			randomProgram(rng, "c", 5, 40),
		}
		mappings := randomDisjointMappings(rng, d, progs)
		opts := XSWAPOptions()
		opts.Seed = int64(i)
		s, err := Route(d, progs, mappings, opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := s.Validate(progs, mappings); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}
