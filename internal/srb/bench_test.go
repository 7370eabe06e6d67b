package srb

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// BenchmarkSRBEstimate times a full simulated-SRB sweep of a linear
// chip: one isolated baseline per link plus one simultaneous run per
// adjacent pair. It is the calibration-time cost a cloud provider pays
// to refresh the E(g_i|g_j) matrix, so regressions here matter as much
// as compile-path ones. The repository's benchmark has no workload on
// it yet: the number is printed by `make bench`, recorded nowhere and
// gated by nothing.
func BenchmarkSRBEstimate(b *testing.B) {
	d := arch.Linear(8, 0.01, 0.02)
	d.Crosstalk = arch.GenerateHostileCrosstalk(d, 1, 0.5, 3, 5)
	if err := d.Validate(); err != nil {
		b.Fatal(err)
	}
	noise := sim.DefaultNoise()
	cfg := Config{Length: 8, Trials: 200, Seed: 1, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateMatrix(context.Background(), d, noise, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
