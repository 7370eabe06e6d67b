package cloudsim

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
)

func suiteCircuits() []*circuit.Circuit {
	names := []string{"bv_n3", "toffoli_3", "peres_3", "3_17_13", "4mod5-v1_22"}
	out := make([]*circuit.Circuit, len(names))
	for i, n := range names {
		out[i] = nisqbench.MustGet(n)
	}
	return out
}

// runOne runs the jobs on a fleet of one and returns that chip's trace.
func runOne(t *testing.T, d *arch.Device, jobs []Job, p Policy) (*Metrics, []BatchRecord) {
	t.Helper()
	m, traces, err := Run([]*arch.Device{d}, jobs, p)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return m, traces[d.Name]
}

func TestPoissonArrivalsDeterministicAndMonotonic(t *testing.T) {
	a := PoissonArrivals(suiteCircuits(), 30, 10, 7)
	b := PoissonArrivals(suiteCircuits(), 30, 10, 7)
	if len(a) != 30 {
		t.Fatalf("jobs = %d", len(a))
	}
	prev := 0.0
	for i := range a {
		if a[i].Arrival != b[i].Arrival {
			t.Fatal("same seed must give same arrivals")
		}
		if a[i].Arrival < prev {
			t.Fatal("arrivals must be nondecreasing")
		}
		prev = a[i].Arrival
		if a[i].Circ == nil {
			t.Fatal("nil circuit")
		}
	}
	c := PoissonArrivals(suiteCircuits(), 30, 10, 8)
	if c[5].Arrival == a[5].Arrival {
		t.Fatal("different seeds must differ")
	}
	// Mean inter-arrival roughly matches.
	mean := a[len(a)-1].Arrival / float64(len(a))
	if mean < 3 || mean > 30 {
		t.Fatalf("mean gap %v wildly off target 10", mean)
	}
}

func TestRunEmpty(t *testing.T) {
	d := arch.IBMQ16(0)
	m, recs := runOne(t, d, nil, QuCloud)
	if len(recs) != 0 || m.Batches != 0 {
		t.Fatalf("empty run: %v %v", m, recs)
	}
}

func TestRunServesEveryJobOnce(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := PoissonArrivals(suiteCircuits(), 12, 5, 3)
	for _, policy := range []Policy{FIFOSeparate, FIFOPairs, QuCloud} {
		m, recs := runOne(t, d, jobs, policy)
		seen := map[int]bool{}
		for _, r := range recs {
			for _, id := range r.JobIDs {
				if seen[id] {
					t.Fatalf("%s: job %d served twice", policy, id)
				}
				seen[id] = true
			}
			if r.Finish <= r.Start {
				t.Fatalf("%s: batch with non-positive service time", policy)
			}
		}
		if len(seen) != len(jobs) {
			t.Fatalf("%s: served %d of %d jobs", policy, len(seen), len(jobs))
		}
		if m.Batches != len(recs) {
			t.Fatalf("%s: metrics batches %d != records %d", policy, m.Batches, len(recs))
		}
	}
}

func TestBatchesDoNotOverlapInTime(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := PoissonArrivals(suiteCircuits(), 10, 2, 5)
	_, recs := runOne(t, d, jobs, QuCloud)
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Finish-1e-9 {
			t.Fatalf("batch %d starts at %v before batch %d finishes at %v",
				i, recs[i].Start, i-1, recs[i-1].Finish)
		}
	}
}

func TestQuCloudBeatsSeparateOnThroughput(t *testing.T) {
	// With a saturated queue (all jobs arrive at once), co-location
	// must improve makespan, wait time, and utilization.
	d := arch.IBMQ16(0)
	var jobs []Job
	circs := suiteCircuits()
	for i := 0; i < 15; i++ {
		jobs = append(jobs, Job{ID: i, Circ: circs[i%len(circs)], Arrival: 0})
	}
	sep, _ := runOne(t, d, jobs, FIFOSeparate)
	qc, _ := runOne(t, d, jobs, QuCloud)
	if qc.Makespan >= sep.Makespan {
		t.Fatalf("qucloud makespan %v >= separate %v", qc.Makespan, sep.Makespan)
	}
	if qc.AvgWait >= sep.AvgWait {
		t.Fatalf("qucloud wait %v >= separate %v", qc.AvgWait, sep.AvgWait)
	}
	if qc.ThroughputPerHour <= sep.ThroughputPerHour {
		t.Fatalf("qucloud throughput %v <= separate %v", qc.ThroughputPerHour, sep.ThroughputPerHour)
	}
	if qc.QubitUtilization <= sep.QubitUtilization {
		t.Fatalf("qucloud utilization %v <= separate %v", qc.QubitUtilization, sep.QubitUtilization)
	}
	if sep.TRF != 1 {
		t.Fatalf("separate TRF = %v", sep.TRF)
	}
	if qc.TRF <= 1 {
		t.Fatalf("qucloud TRF = %v", qc.TRF)
	}
}

func TestIdleBackendWaitsForArrivals(t *testing.T) {
	d := arch.IBMQ16(0)
	// One early job, one very late job: the second batch must start at
	// its arrival, not at the first batch's finish.
	jobs := []Job{
		{ID: 0, Circ: nisqbench.MustGet("bv_n3"), Arrival: 0},
		{ID: 1, Circ: nisqbench.MustGet("bv_n3"), Arrival: 1e6},
	}
	_, recs := runOne(t, d, jobs, QuCloud)
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if math.Abs(recs[1].Start-1e6) > 1e-6 {
		t.Fatalf("second batch starts at %v, want 1e6", recs[1].Start)
	}
}

func TestPolicyStrings(t *testing.T) {
	if FIFOSeparate.String() != "fifo-separate" || FIFOPairs.String() != "fifo-pairs" || QuCloud.String() != "qucloud" {
		t.Fatal("policy strings")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must still format")
	}
}

// TestCloudServiceFigures pins the queue figures EXPERIMENTS.md quotes
// for examples/cloudservice: its nine circuits arriving as a Poisson
// stream of 60 jobs at a 4 s mean gap on IBMQ16 day 0.
func TestCloudServiceFigures(t *testing.T) {
	var circs []*circuit.Circuit
	for _, name := range []string{"bv_n3", "bv_n4", "peres_3", "toffoli_3",
		"fredkin_3", "3_17_13", "4mod5-v1_22", "mod5mils_65", "alu-v0_27"} {
		circs = append(circs, nisqbench.MustGet(name))
	}
	jobs := PoissonArrivals(circs, 60, 4, 2026)
	for _, c := range []struct {
		policy   Policy
		batches  int
		trf      float64
		makespan float64 // minutes
	}{
		{FIFOSeparate, 60, 1.00, 10.1},
		{FIFOPairs, 31, 1.94, 5.2},
		{QuCloud, 28, 2.14, 5.0},
	} {
		m, _ := runOne(t, arch.IBMQ16(0), jobs, c.policy)
		if m.Batches != c.batches {
			t.Errorf("%s: batches = %d, want %d", c.policy, m.Batches, c.batches)
		}
		if math.Abs(m.TRF-c.trf) > 0.005 {
			t.Errorf("%s: TRF = %.3f, want %.2f", c.policy, m.TRF, c.trf)
		}
		if math.Abs(m.Makespan/60-c.makespan) > 0.05 {
			t.Errorf("%s: makespan = %.3f min, want %.1f ± 0.05", c.policy, m.Makespan/60, c.makespan)
		}
	}
}
