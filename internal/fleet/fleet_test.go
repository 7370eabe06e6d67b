package fleet

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/fp"
)

// testFleet is a synthetic 3-chip fleet with deliberately skewed
// calibrations and load:
//
//   - "alder":  small (5q), pristine calibration, short queue
//   - "birch":  mid (16q), mediocre calibration, empty and idle
//   - "cedar":  large (27q), noisy calibration, long busy queue but
//     barely any cumulative work per qubit
func testFleet() []Candidate {
	return []Candidate{
		{
			Chip: Chip{Name: "alder", Qubits: 5, MeanCNOTErr: 0.005, MeanReadoutErr: 0.01},
			Load: Load{QueueDepth: 2, Busy: true, EWMAServiceSeconds: 1.5, Dispatched: 40},
		},
		{
			Chip: Chip{Name: "birch", Qubits: 16, MeanCNOTErr: 0.02, MeanReadoutErr: 0.04},
			Load: Load{QueueDepth: 0, Busy: false, EWMAServiceSeconds: 2.0, Dispatched: 8},
		},
		{
			Chip: Chip{Name: "cedar", Qubits: 27, MeanCNOTErr: 0.06, MeanReadoutErr: 0.09},
			Load: Load{QueueDepth: 6, Busy: true, EWMAServiceSeconds: 3.0, Dispatched: 3},
		},
	}
}

func mustPolicy(t *testing.T, name string) Policy {
	t.Helper()
	p, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPolicyScoring pins each policy's choice on the skewed fleet.
func TestPolicyScoring(t *testing.T) {
	small := Job{Qubits: 3, CNOTs: 10, Gate1s: 12}
	wide := Job{Qubits: 20, CNOTs: 30, Gate1s: 40}
	cases := []struct {
		policy string
		job    Job
		want   string
		reason string
	}{
		// birch is idle; alder has ~4.5s of queue, cedar ~21s.
		{"speed", small, "birch", "idle chip beats queued ones"},
		// alder's calibration dominates regardless of its queue.
		{"fidelity", small, "alder", "lowest error rates win"},
		// per-qubit load: alder 42/5=8.4, birch 8/16=0.5, cedar 9/27=0.33.
		{"fairness", small, "cedar", "least cumulative work per qubit"},
		// balanced: alder's fidelity edge (~0.1 in log domain) loses to
		// its 0.45 wait penalty; birch is idle and nearly as clean.
		{"balanced", small, "birch", "good calibration with no queue"},
		// only cedar can hold 20 qubits, whatever the policy says.
		{"speed", wide, "cedar", "capacity filter"},
		{"fidelity", wide, "cedar", "capacity filter"},
		{"fairness", wide, "cedar", "capacity filter"},
		{"balanced", wide, "cedar", "capacity filter"},
	}
	for _, tc := range cases {
		cands := testFleet()
		got := Pick(mustPolicy(t, tc.policy), cands, tc.job)
		if got < 0 {
			t.Fatalf("%s/%dq: no chip picked (%s)", tc.policy, tc.job.Qubits, tc.reason)
		}
		if name := cands[got].Chip.Name; name != tc.want {
			t.Errorf("%s/%dq: picked %s, want %s (%s)", tc.policy, tc.job.Qubits, name, tc.want, tc.reason)
		}
	}
}

// TestPickOrderIndependence permutes the candidate slice: the chosen
// chip (by name) must never depend on candidate order.
func TestPickOrderIndependence(t *testing.T) {
	job := Job{Qubits: 3, CNOTs: 8, Gate1s: 8}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, name := range Names() {
		p := mustPolicy(t, name)
		base := testFleet()
		want := base[Pick(p, base, job)].Chip.Name
		for _, perm := range perms {
			shuffled := make([]Candidate, len(perm))
			for i, src := range perm {
				shuffled[i] = base[src]
			}
			got := Pick(p, shuffled, job)
			if shuffled[got].Chip.Name != want {
				t.Fatalf("%s: order %v picked %s, want %s", name, perm, shuffled[got].Chip.Name, want)
			}
		}
	}
}

// TestPickTieBreaksOnName gives two identical chips different names:
// the lexicographically smaller one must win from either position.
func TestPickTieBreaksOnName(t *testing.T) {
	chip := Chip{Qubits: 16, MeanCNOTErr: 0.01, MeanReadoutErr: 0.02}
	load := Load{QueueDepth: 1, EWMAServiceSeconds: 2}
	a, b := Candidate{Chip: chip, Load: load}, Candidate{Chip: chip, Load: load}
	a.Chip.Name, b.Chip.Name = "zeta", "alpha"
	job := Job{Qubits: 4, CNOTs: 5, Gate1s: 5}
	for _, name := range Names() {
		p := mustPolicy(t, name)
		for _, cands := range [][]Candidate{{a, b}, {b, a}} {
			got := Pick(p, cands, job)
			if cands[got].Chip.Name != "alpha" {
				t.Fatalf("%s: tie broke to %s, want alpha", name, cands[got].Chip.Name)
			}
		}
	}
}

// TestPickBreakerFiltering: open-breaker chips are skipped while any
// healthy chip fits, but remain eligible when every fitting chip is
// open, and a job too wide for every chip yields -1.
func TestPickBreakerFiltering(t *testing.T) {
	p := mustPolicy(t, "speed")
	cands := testFleet()
	job := Job{Qubits: 3}

	// birch (the speed winner) trips: the pick must move on.
	cands[1].Load.BreakerOpen = true
	if got := Pick(p, cands, job); cands[got].Chip.Name != "alder" {
		t.Fatalf("open breaker not avoided: picked %s", cands[got].Chip.Name)
	}
	// Everything trips: the best open chip still takes the job.
	for i := range cands {
		cands[i].Load.BreakerOpen = true
	}
	if got := Pick(p, cands, job); cands[got].Chip.Name != "birch" {
		t.Fatalf("all-open fleet: picked %s, want birch", cands[got].Chip.Name)
	}
	// A 40-qubit job fits nowhere.
	if got := Pick(p, testFleet(), Job{Qubits: 40}); got != -1 {
		t.Fatalf("oversized job picked chip %d, want -1", got)
	}
	if got := Pick(p, nil, job); got != -1 {
		t.Fatalf("empty fleet picked %d, want -1", got)
	}
}

// TestPickSkipsNaNScores: a candidate whose score is NaN must be
// disqualified, not silently win or lose a comparison.
func TestPickSkipsNaNScores(t *testing.T) {
	cands := []Candidate{
		{Chip: Chip{Name: "bad", Qubits: 8, MeanCNOTErr: math.NaN()}},
		{Chip: Chip{Name: "good", Qubits: 8, MeanCNOTErr: 0.01, MeanReadoutErr: 0.01}},
	}
	got := Pick(mustPolicy(t, "fidelity"), cands, Job{Qubits: 2, CNOTs: 3})
	if got != 1 {
		t.Fatalf("NaN-scored candidate not skipped: got %d", got)
	}
}

func TestNamesAndNew(t *testing.T) {
	want := []string{"balanced", "fairness", "fidelity", "speed"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, n := range want {
		p, err := New(n)
		if err != nil || p.Name() != n {
			t.Fatalf("New(%q) = %v, %v", n, p, err)
		}
	}
	if _, err := New("nosuch"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// TestChipOf checks the calibration summary against a real device.
func TestChipOf(t *testing.T) {
	d := arch.IBMQ16(3)
	c := ChipOf(d)
	if c.Name != d.Name || c.Qubits != d.NumQubits() {
		t.Fatalf("ChipOf identity mismatch: %+v", c)
	}
	if !fp.Eq(c.MeanCNOTErr, d.AvgCNOTErr()) {
		t.Fatalf("MeanCNOTErr = %v, want %v", c.MeanCNOTErr, d.AvgCNOTErr())
	}
	sum := 0.0
	for _, r := range d.ReadoutErr {
		sum += r
	}
	if !fp.Eq(c.MeanReadoutErr, sum/float64(d.NumQubits())) {
		t.Fatalf("MeanReadoutErr = %v", c.MeanReadoutErr)
	}
	if c.MeanCNOTErr <= 0 || c.MeanReadoutErr <= 0 {
		t.Fatalf("calibration summary should be positive: %+v", c)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("fresh EWMA: %v", e.Value())
	}
	e.Observe(4)
	if !fp.Eq(e.Value(), 4) {
		t.Fatalf("first sample should seed the value, got %v", e.Value())
	}
	e.Observe(8)
	if !fp.Eq(e.Value(), 6) {
		t.Fatalf("0.5-EWMA of 4,8 = %v, want 6", e.Value())
	}
	e.Observe(math.NaN())
	e.Observe(math.Inf(1))
	if !fp.Eq(e.Value(), 6) {
		t.Fatalf("non-finite samples must be ignored: %v", e.Value())
	}
	// Out-of-range alpha falls back to the default rather than wedging.
	bad := NewEWMA(-1)
	bad.Observe(10)
	bad.Observe(0)
	if v := bad.Value(); v <= 0 || v >= 10 {
		t.Fatalf("defaulted alpha should smooth, got %v", v)
	}
}

// TestWaitEstimate pins the unit prior: with no service-time history
// the estimate is the queue depth itself.
func TestWaitEstimate(t *testing.T) {
	if got := waitEstimate(Load{QueueDepth: 3}); !fp.Eq(got, 3) {
		t.Fatalf("no-history wait = %v, want 3", got)
	}
	if got := waitEstimate(Load{QueueDepth: 2, Busy: true, EWMAServiceSeconds: 1.5}); !fp.Eq(got, 4.5) {
		t.Fatalf("wait = %v, want 4.5", got)
	}
}
