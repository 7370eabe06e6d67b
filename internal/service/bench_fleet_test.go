package service

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/nisqbench"
)

// benchFleet measures end-to-end service throughput for a fleet of n
// identically-calibrated 5-qubit chips under the given allocation
// policy: each iteration boots a fresh service, pushes a fixed tiny
// workload through it, and drains. Alongside ns/op it reports two
// custom units: completed-job throughput (jobs/s) and the p99
// submit-to-claim wait (p99_wait_s).
//
// A real QPU occupies wall-clock device time per batch (shots ×
// readout), which is what a fleet parallelizes; the host-side
// simulator alone would make this a pure CPU benchmark and hide the
// scale-out. ExecDwell supplies that occupancy, so the 4-chip runs
// overlap device dwells exactly as four physical backends would.
func benchFleet(b *testing.B, chips int, policy string) {
	const jobsPerRun = 24
	circ := nisqbench.MustGet("bv_n3")
	var waits []float64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		devices := make([]*arch.Device, chips)
		for c := range devices {
			d := arch.London()
			if chips > 1 {
				d.Name = d.Name + "-" + string(rune('a'+c))
			}
			devices[c] = d
		}
		cfg := DefaultConfig()
		cfg.Trials = 16
		cfg.Attempts = 1
		cfg.Lookahead = 4
		cfg.Seed = 7
		cfg.FleetPolicy = policy
		cfg.ExecDwell = 10 * time.Millisecond
		svc, err := New(devices, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		svc.Start()
		for j := 0; j < jobsPerRun; j++ {
			if _, err := svc.Submit(circ); err != nil {
				b.Fatal(err)
			}
		}
		if err := svc.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		b.StopTimer()
		for _, rec := range svc.Jobs() {
			if rec.State != StateDone {
				b.Fatalf("job %s ended %s: %s", rec.ID, rec.State, rec.Error)
			}
			waits = append(waits, rec.WaitSeconds)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if secs := elapsed.Seconds(); secs > 0 {
		b.ReportMetric(float64(jobsPerRun*b.N)/secs, "jobs/s")
	}
	sort.Float64s(waits)
	if len(waits) > 0 {
		idx := int(float64(len(waits)) * 0.99)
		if idx >= len(waits) {
			idx = len(waits) - 1
		}
		b.ReportMetric(waits[idx], "p99_wait_s")
	}
}

func BenchmarkFleet1ChipSpeed(b *testing.B)    { benchFleet(b, 1, "speed") }
func BenchmarkFleet4ChipSpeed(b *testing.B)    { benchFleet(b, 4, "speed") }
func BenchmarkFleet1ChipFidelity(b *testing.B) { benchFleet(b, 1, "fidelity") }
func BenchmarkFleet4ChipFidelity(b *testing.B) { benchFleet(b, 4, "fidelity") }
func BenchmarkFleet1ChipFairness(b *testing.B) { benchFleet(b, 1, "fairness") }
func BenchmarkFleet4ChipFairness(b *testing.B) { benchFleet(b, 4, "fairness") }
func BenchmarkFleet1ChipBalanced(b *testing.B) { benchFleet(b, 1, "balanced") }
func BenchmarkFleet4ChipBalanced(b *testing.B) { benchFleet(b, 4, "balanced") }
