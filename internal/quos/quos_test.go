package quos

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/sched"
)

func queueOf(names ...string) []sched.Job {
	jobs := make([]sched.Job, len(names))
	for i, n := range names {
		jobs[i] = sched.Job{ID: i, Circ: nisqbench.MustGet(n)}
	}
	return jobs
}

func TestRunEmpty(t *testing.T) {
	d := arch.IBMQ16(0)
	res, err := Run(d, nil, DefaultConfig(), 1)
	if err != nil || len(res.Reports) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
}

func TestRunProcessesEveryJobOnce(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := queueOf("bv_n3", "toffoli_3", "peres_3", "3_17_13", "alu-v0_27", "bv_n4")
	res, err := Run(d, jobs, DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range res.Reports {
		for _, id := range r.JobIDs {
			if seen[id] {
				t.Fatalf("job %d executed twice", id)
			}
			seen[id] = true
		}
		if r.EpsilonAfter < minEpsilon || r.EpsilonAfter > maxEpsilon {
			t.Fatalf("epsilon %v escaped bounds", r.EpsilonAfter)
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("executed %d of %d jobs", len(seen), len(jobs))
	}
	if res.TRF < 1 || res.TRF > float64(sched.DefaultConfig().MaxColocate) {
		t.Fatalf("TRF = %v", res.TRF)
	}
	if res.AvgPST <= 0 || res.AvgPST > 1 {
		t.Fatalf("avg PST = %v", res.AvgPST)
	}
}

func TestEpsilonBacksOffUnderBadFidelity(t *testing.T) {
	// A chip whose links are terrible outside one small island: the
	// scheduler's EPST is computed from the same calibration, so force
	// disagreement by making the simulator's crosstalk/idle channels
	// (invisible to EPST) dominate via deep co-located programs.
	d := arch.IBMQ16(0)
	deep := circuit.New("deep", 3)
	for i := 0; i < 120; i++ {
		deep.CX(0, 1)
		deep.CX(1, 2)
	}
	deep.MeasureAll()
	var jobs []sched.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, sched.Job{ID: i, Circ: deep.Clone()})
	}
	cfg := DefaultConfig()
	cfg.Target = 0.02 // strict: any real loss triggers back-off
	res, err := Run(d, jobs, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	anyViolation := false
	for _, r := range res.Reports {
		if r.Violated {
			anyViolation = true
		}
	}
	if anyViolation && res.FinalEpsilon >= cfg.InitialEpsilon {
		t.Fatalf("violations occurred but epsilon rose: %v", res.FinalEpsilon)
	}
	t.Logf("final epsilon %v, violations %v", res.FinalEpsilon, anyViolation)
}

func TestEpsilonGrowsWhenColocationIsSafe(t *testing.T) {
	// Tiny shallow programs on a good chip: co-location is nearly
	// free, so a generous target lets epsilon probe upward.
	d := arch.IBMQ16(0)
	var jobs []sched.Job
	names := []string{"bv_n3", "bv_n4", "bv_n3", "bv_n4", "bv_n3", "bv_n4"}
	for i, n := range names {
		jobs = append(jobs, sched.Job{ID: i, Circ: nisqbench.MustGet(n)})
	}
	cfg := DefaultConfig()
	cfg.Target = 0.5 // lenient
	res, err := Run(d, jobs, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for _, r := range res.Reports {
		if len(r.JobIDs) > 1 && !r.Violated {
			grew = true
		}
	}
	if grew && res.FinalEpsilon < cfg.InitialEpsilon {
		t.Fatalf("safe co-locations should not shrink epsilon: %v", res.FinalEpsilon)
	}
}
