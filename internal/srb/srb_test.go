package srb

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/sim"
)

// testDevice returns IBMQ16 carrying an adversarial ground-truth
// matrix: ~30% of adjacent pairs hostile with conditional errors 3-5x
// the base rate, so the estimator has real structure to recover.
func testDevice(t *testing.T) *arch.Device {
	t.Helper()
	d := arch.IBMQ16(3)
	d.Crosstalk = arch.GenerateHostileCrosstalk(d, 11, 0.3, 3, 5)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func estimate(t *testing.T, d *arch.Device, cfg Config) arch.CrosstalkMatrix {
	t.Helper()
	est, err := EstimateMatrix(context.Background(), d, sim.DefaultNoise(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestEstimateSeparatesHostileFromBenign is the estimator's core
// contract: averaged over the hostile pairs the estimate must sit well
// above the base error, and averaged over benign pairs it must stay
// near it. Individual pairs are noisy at test-sized trial counts, so
// the assertion is on group means.
func TestEstimateSeparatesHostileFromBenign(t *testing.T) {
	d := testDevice(t)
	cfg := Config{Length: 16, Trials: 1500, Seed: 5}
	est := estimate(t, d, cfg)

	hostile := map[arch.EdgePair]bool{}
	for _, p := range d.HostilePairs(2.5) {
		hostile[p] = true
	}
	if len(hostile) == 0 {
		t.Fatal("ground truth has no hostile pairs; adjust the generator seed")
	}
	var hostileExcess, benignExcess float64
	var nh, nb int
	for p, e := range est {
		base := d.CNOTError(p.Victim.U, p.Victim.V)
		if hostile[p] {
			hostileExcess += e - base
			nh++
		} else {
			benignExcess += e - base
			nb++
		}
	}
	if nh == 0 || nb == 0 {
		t.Fatalf("degenerate split: %d hostile, %d benign", nh, nb)
	}
	hostileExcess /= float64(nh)
	benignExcess /= float64(nb)
	t.Logf("mean excess error: hostile=%.4f benign=%.4f (%d/%d pairs)", hostileExcess, benignExcess, nh, nb)
	if hostileExcess < 2*benignExcess || hostileExcess < 0.01 {
		t.Errorf("estimator does not separate hostile pairs: hostile excess %.4f vs benign %.4f",
			hostileExcess, benignExcess)
	}
}

// TestEstimateDeterministicAcrossWorkers pins the shard/seed contract:
// the matrix must be identical at any fan-out width.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	d := testDevice(t)
	cfg := Config{Length: 8, Trials: 300, Seed: 2}
	cfg.Workers = 1
	a := estimate(t, d, cfg)
	cfg.Workers = 8
	b := estimate(t, d, cfg)
	if len(a) != len(b) {
		t.Fatalf("worker-count changed pair count: %d vs %d", len(a), len(b))
	}
	for p, v := range a {
		if b[p] != v {
			t.Errorf("pair %v: %v (1 worker) vs %v (8 workers)", p, v, b[p])
		}
	}
}

// TestEstimateValidatesAsCalibration checks the estimated matrix is
// directly installable: every entry keys a real qubit-disjoint pair
// with a probability the arch validator accepts.
func TestEstimateValidatesAsCalibration(t *testing.T) {
	d := testDevice(t)
	est := estimate(t, d, Config{Length: 8, Trials: 300, Seed: 4})
	fresh := arch.IBMQ16(3)
	fresh.Crosstalk = est
	if err := fresh.Validate(); err != nil {
		t.Fatalf("estimated matrix rejected by device validation: %v", err)
	}
	if len(est) != len(d.AdjacentEdgePairs()) {
		t.Errorf("estimate covers %d pairs, want all %d adjacent pairs", len(est), len(d.AdjacentEdgePairs()))
	}
}

// TestTrainScheduleShape pins the hand-built schedule: disjoint trains
// land step-aligned so the simulator co-fires them.
func TestTrainScheduleShape(t *testing.T) {
	d := arch.IBMQ16(0)
	links := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(7, 8)}
	sched, progs := trainSchedule(d, links, 5)
	if len(progs) != 2 {
		t.Fatalf("got %d programs", len(progs))
	}
	wantOps := 2 * (5 + 2) // per program: 5 CNOTs + 2 measures
	if len(sched.Ops) != wantOps {
		t.Errorf("got %d ops, want %d", len(sched.Ops), wantOps)
	}
	if len(sched.Measurements) != 4 {
		t.Errorf("got %d measurements, want 4", len(sched.Measurements))
	}
	// Noiseless sanity: a CX train on |00> survives with certainty.
	noise := sim.DefaultNoise()
	noise.Enabled = false
	out, err := sim.SimulateScheduleCliffordCtx(context.Background(), d, sched, progs, 50, 1, noise, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p, pst := range out.PST {
		if pst != 1 {
			t.Errorf("program %d noiseless PST = %v, want 1", p, pst)
		}
	}
}
