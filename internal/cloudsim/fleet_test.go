package cloudsim

import (
	"testing"

	"repro/internal/arch"
)

func saturatedJobs(n int) []Job {
	circs := suiteCircuits()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Circ: circs[i%len(circs)], Arrival: 0}
	}
	return jobs
}

func TestFleetValidation(t *testing.T) {
	if _, _, err := Run(nil, saturatedJobs(2), QuCloud); err == nil {
		t.Fatal("empty fleet must error")
	}
	d := arch.IBMQ16(0)
	if _, _, err := Run([]*arch.Device{d, d}, saturatedJobs(2), QuCloud); err == nil {
		t.Fatal("duplicate device names must error")
	}
	m, traces, err := Run([]*arch.Device{d}, nil, QuCloud)
	if err != nil || len(traces) != 0 || m.Batches != 0 {
		t.Fatalf("empty jobs: %v %v %v", m, traces, err)
	}
}

func TestFleetServesEveryJobOnce(t *testing.T) {
	d1 := arch.IBMQ16(0)
	d2 := arch.Tokyo(1)
	jobs := saturatedJobs(14)
	m, traces, err := Run([]*arch.Device{d1, d2}, jobs, QuCloud)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for dev, recs := range traces {
		for _, r := range recs {
			for _, id := range r.JobIDs {
				if seen[id] {
					t.Fatalf("job %d served twice", id)
				}
				seen[id] = true
				total++
			}
		}
		if m.PerDevice[dev] == 0 && len(recs) > 0 {
			t.Fatalf("device %s completed jobs but reports 0", dev)
		}
	}
	if total != len(jobs) {
		t.Fatalf("served %d of %d", total, len(jobs))
	}
	// Both backends should have participated under a saturated queue.
	if m.PerDevice[d1.Name] == 0 || m.PerDevice[d2.Name] == 0 {
		t.Fatalf("load not spread: %v", m.PerDevice)
	}
}

func TestFleetBeatsSingleBackendOnMakespan(t *testing.T) {
	jobs := saturatedJobs(16)
	single, _ := runOne(t, arch.IBMQ16(0), jobs, QuCloud)
	second := arch.IBMQ16(5)
	second.Name = "ibmq16-b"
	fleet, _, err := Run([]*arch.Device{arch.IBMQ16(0), second}, jobs, QuCloud)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Makespan >= single.Makespan {
		t.Fatalf("fleet makespan %v >= single-backend %v", fleet.Makespan, single.Makespan)
	}
	if fleet.AvgWait >= single.AvgWait {
		t.Fatalf("fleet wait %v >= single-backend %v", fleet.AvgWait, single.AvgWait)
	}
}

func TestFleetBackendsDoNotOverlapPerDevice(t *testing.T) {
	jobs := saturatedJobs(10)
	_, traces, err := Run([]*arch.Device{arch.IBMQ16(0), arch.Tokyo(2)}, jobs, QuCloud)
	if err != nil {
		t.Fatal(err)
	}
	for dev, recs := range traces {
		for i := 1; i < len(recs); i++ {
			if recs[i].Start < recs[i-1].Finish-1e-9 {
				t.Fatalf("%s: overlapping batches", dev)
			}
		}
	}
}
