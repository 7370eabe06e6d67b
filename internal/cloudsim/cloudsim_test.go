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
	m, recs, err := Run(d, nil, QuCloud)
	if err != nil || len(recs) != 0 || m.Batches != 0 {
		t.Fatalf("empty run: %v %v %v", m, recs, err)
	}
}

func TestRunServesEveryJobOnce(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := PoissonArrivals(suiteCircuits(), 12, 5, 3)
	for _, policy := range []Policy{FIFOSeparate, FIFOPairs, QuCloud} {
		m, recs, err := Run(d, jobs, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
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
	_, recs, err := Run(d, jobs, QuCloud)
	if err != nil {
		t.Fatal(err)
	}
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
	run := func(p Policy) *Metrics {
		m, _, err := Run(d, jobs, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sep := run(FIFOSeparate)
	qc := run(QuCloud)
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
	_, recs, err := Run(d, jobs, QuCloud)
	if err != nil {
		t.Fatal(err)
	}
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
