package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

func TestInvertReadoutExactOnProducts(t *testing.T) {
	// A 2-qubit distribution pushed through known flips must invert
	// exactly: start with P(11) = 1, apply eps = {0.1, 0.2} forward,
	// then invert.
	eps := []float64{0.1, 0.2}
	true4 := []float64{0, 0, 0, 1}
	// Forward confusion: A(e) = [[1-e, e],[e, 1-e]] per qubit.
	meas := make([]float64, 4)
	for s := 0; s < 4; s++ {
		for m := 0; m < 4; m++ {
			p := 1.0
			for q := 0; q < 2; q++ {
				sb, mb := (s>>q)&1, (m>>q)&1
				if sb == mb {
					p *= 1 - eps[q]
				} else {
					p *= eps[q]
				}
			}
			meas[m] += true4[s] * p
		}
	}
	got := invertReadout(meas, eps)
	for i, want := range true4 {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("inverted[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestInvertReadoutSkipsSingular(t *testing.T) {
	freq := []float64{0.5, 0.5}
	got := invertReadout(freq, []float64{0.5})
	if got[0] != 0.5 || got[1] != 0.5 {
		t.Fatal("eps=0.5 must leave the distribution alone")
	}
	got = invertReadout(freq, []float64{0})
	if got[0] != 0.5 || got[1] != 0.5 {
		t.Fatal("eps=0 must be a no-op")
	}
}

func TestMitigationRecoversReadoutLoss(t *testing.T) {
	// Heavy readout error, light gate error: mitigation should recover
	// most of the PST lost to readout.
	d := arch.Linear(3, 0.002, 0.10)
	p := nisqbench.MustGet("bv_n3")
	s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noise := NoiseModel{Enabled: true, Readout: true}
	out, err := SimulateScheduleMitigated(d, s, []*circuit.Circuit{p}, 4000, 5, noise)
	if err != nil {
		t.Fatal(err)
	}
	raw, mit := out.PST[0], out.MitigatedPST[0]
	if mit <= raw {
		t.Fatalf("mitigated PST %v must exceed raw %v under readout noise", mit, raw)
	}
	// Without readout noise the PST would be ~ (1-0.002)^cnots: compute
	// that bound and require mitigation to land close.
	clean, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p},
		4000, 5, NoiseModel{Enabled: true, Readout: false}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mit-clean.PST[0]) > 0.05 {
		t.Fatalf("mitigated %v far from readout-free truth %v", mit, clean.PST[0])
	}
}

func TestMitigationNoOpWithoutReadoutNoise(t *testing.T) {
	d := arch.Linear(3, 0.01, 0.10)
	p := nisqbench.MustGet("bv_n3")
	s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noise := NoiseModel{Enabled: true, Readout: false}
	out, err := SimulateScheduleMitigated(d, s, []*circuit.Circuit{p}, 500, 2, noise)
	if err != nil {
		t.Fatal(err)
	}
	if out.MitigatedPST[0] != out.PST[0] {
		t.Fatalf("without readout noise mitigation must be identity: %v vs %v",
			out.MitigatedPST[0], out.PST[0])
	}
}

func TestMitigationErrors(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("bv_n3")
	s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateScheduleMitigated(d, s, []*circuit.Circuit{p}, 0, 1, NoiseModel{}); err == nil {
		t.Fatal("zero trials must error")
	}
}
