package sched

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/community"
	"repro/internal/nisqbench"
)

// tableIQueue is every Table I program that fits the device (tiny, then
// small, then large, each by name) with IDs in queue order.
func tableIQueue(d *arch.Device) []Job {
	var jobs []Job
	for _, class := range []nisqbench.SizeClass{nisqbench.Tiny, nisqbench.Small, nisqbench.Large} {
		for _, name := range nisqbench.ByClass(class) {
			if c := nisqbench.MustGet(name); c.NumQubits <= d.NumQubits() {
				jobs = append(jobs, Job{ID: len(jobs), Circ: c})
			}
		}
	}
	return jobs
}

// TestScheduleMatchesRecordedBatches pins Schedule, now a loop over
// Next, to the batches the whole-queue implementation it replaced
// produced (recorded from the parent commit).
func TestScheduleMatchesRecordedBatches(t *testing.T) {
	for _, tc := range []struct {
		dev  *arch.Device
		want [][]int
	}{
		{arch.IBMQ16(0), [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 14}, {13, 16},
			{15}, {17}, {18}, {19}, {20}, {21}, {22}, {23}}},
		{arch.IBMQ50(0), [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}, {12, 13, 14},
			{15, 16, 19}, {17, 20, 21}, {18, 23, 24}, {22, 25}}},
	} {
		cfg := DefaultConfig()
		cfg.Omega = community.KneeOmega(tc.dev)
		batches, err := Schedule(tc.dev, tableIQueue(tc.dev), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.dev.Name, err)
		}
		got := make([][]int, len(batches))
		for i, b := range batches {
			got[i] = b.JobIDs
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: batches %v, want %v", tc.dev.Name, got, tc.want)
		}
	}
}

// TestNextIsScheduleHead: on random Table I queues, for several ε, Next
// returns exactly Schedule's first batch.
func TestNextIsScheduleHead(t *testing.T) {
	d := arch.IBMQ16(0)
	pool := tableIQueue(d)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		queue := make([]Job, 3+rng.Intn(12))
		for i := range queue {
			queue[i] = Job{ID: i, Circ: pool[rng.Intn(len(pool))].Circ}
		}
		for _, eps := range []float64{0, 0.05, 0.15, 0.4} {
			cfg := DefaultConfig()
			cfg.Epsilon = eps
			batches, err := Schedule(d, queue, cfg)
			if err != nil {
				t.Fatal(err)
			}
			head, err := Next(d, queue, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(head, batches[0]) {
				t.Fatalf("trial %d eps %v: Next = %v, Schedule[0] = %v", trial, eps, head, batches[0])
			}
		}
	}
}

func arrivalsAtZero(jobs []Job) []Arrival {
	out := make([]Arrival, len(jobs))
	for i, j := range jobs {
		out[i].Item = &Item{Job: j}
	}
	return out
}

// TestRunColocationFallback is the regression test for Kernel.Run's
// fallback: when the compile step rejects every co-located batch, the
// head runs alone, the tail is claimed again, and every job is served
// exactly once — so TRF is jobs ÷ executions.
func TestRunColocationFallback(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := tinyQueue()
	k := NewKernel([]*arch.Device{d}, nil, DefaultConfig())
	served := map[int]int{}
	var order []int
	rejected, executions := 0, 0
	exec := func(_ int, batch []*Item, _ float64) (float64, error) {
		if len(batch) > 1 {
			rejected++
			return 0, errors.New("no joint compilation")
		}
		executions++
		served[batch[0].ID]++
		order = append(order, batch[0].ID)
		return 1, nil
	}
	if err := k.Run(arrivalsAtZero(jobs), exec); err != nil {
		t.Fatal(err)
	}
	if rejected == 0 {
		t.Fatal("the scheduler never co-located: the fallback was not exercised")
	}
	for _, j := range jobs {
		if served[j.ID] != 1 {
			t.Fatalf("job %d served %d times", j.ID, served[j.ID])
		}
	}
	if executions != len(jobs) {
		t.Fatalf("TRF = %d jobs / %d executions, want 1", len(jobs), executions)
	}
	// A requeued tail goes back to its old position: with every
	// co-location rejected the jobs run in plain queue order.
	for i, id := range order {
		if id != jobs[i].ID {
			t.Fatalf("service order %v is not queue order", order)
		}
	}
	if k.Len() != 0 {
		t.Fatalf("%d items left queued", k.Len())
	}
}

// TestRunFailsOnUnrunnableHead: an exec error on a job running alone
// ends the run with that error instead of looping.
func TestRunFailsOnUnrunnableHead(t *testing.T) {
	k := NewKernel([]*arch.Device{arch.IBMQ16(0)}, nil, DefaultConfig())
	boom := errors.New("boom")
	err := k.Run(arrivalsAtZero(tinyQueue()[:3]), func(int, []*Item, float64) (float64, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	big := Job{ID: 9, Circ: nisqbench.MustGet("qft_16")}
	if err := k.Run(arrivalsAtZero([]Job{big}), nil); err == nil {
		t.Fatal("a job no chip fits must end the run")
	}
}

// TestKernelMigrateAndFailHead covers the two ways an item leaves a
// chip's queue other than a claim.
func TestKernelMigrateAndFailHead(t *testing.T) {
	a, b := arch.IBMQ16(0), arch.Tokyo(1)
	k := NewKernel([]*arch.Device{a, b}, nil, DefaultConfig())
	items := arrivalsAtZero(tinyQueue())
	for _, ar := range items {
		if !k.Submit(ar.Item) {
			t.Fatal("submit refused")
		}
	}
	on := func(chip int) int { return k.Candidate(chip).Load.QueueDepth }
	if on(0) == 0 || on(1) == 0 || on(0)+on(1) != len(items) {
		t.Fatalf("dispatch did not spread: %d + %d of %d", on(0), on(1), len(items))
	}
	was := on(0)
	k.SetAvailable(0, false)
	moved := k.Migrate(0)
	if len(moved) != was || on(0) != 0 || on(1) != len(items) {
		t.Fatalf("migrate moved %d of %d; depths %d, %d", len(moved), was, on(0), on(1))
	}
	for _, it := range moved {
		if it.Chip != 1 {
			t.Fatalf("job %d migrated to chip %d", it.ID, it.Chip)
		}
	}
	if k.FailHead(0) != nil {
		t.Fatal("FailHead on an empty chip returned an item")
	}
	head := k.FailHead(1)
	if head == nil || head.ID != 0 || k.Len() != len(items)-1 {
		t.Fatalf("FailHead = %+v with %d left", head, k.Len())
	}
	if got := len(k.Drain()); got != len(items)-1 || k.Len() != 0 || on(1) != 0 {
		t.Fatalf("drain returned %d, left %d queued (depth %d)", got, k.Len(), on(1))
	}
}

// TestKernelFairShareVirtualTime saturates four flows weighted 4:2:1:1
// — each kept topped up to its weighted share of the queue, as the
// daemon's admission caps keep a saturating tenant — and checks that
// claims follow the weights: Jain's index over weight-normalised claim
// counts, every flow backlogged throughout (one program, london +
// ibmq16, lookahead 8). Through the daemon the same property needs
// minutes of wall time to show; the kernel shows it in virtual time.
func TestKernelFairShareVirtualTime(t *testing.T) {
	const (
		total = 2400
		share = 4 // queued items per unit of weight
	)
	weights := []float64{4, 2, 1, 1}
	flows := make([]*Flow, len(weights))
	for i, w := range weights {
		flows[i] = NewFlow(w)
	}
	circ := nisqbench.MustGet("bv_n3")
	cfg := DefaultConfig()
	cfg.Lookahead = 8
	k := NewKernel([]*arch.Device{arch.London(), arch.IBMQ16(0)}, nil, cfg)
	claims := make([]float64, len(weights))
	submitted, now := 0, 0.0
	for submitted < total {
		for f, flow := range flows {
			for flow.Queued() < share*int(weights[f]) {
				if !k.Submit(&Item{Job: Job{ID: submitted, Circ: circ}, Flow: flow, Owner: f}) {
					t.Fatal("submit refused")
				}
				submitted++
			}
		}
		for chip := 0; chip < 2; chip++ {
			batch, err := k.Claim(chip, now, Next)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range batch {
				claims[it.Owner.(int)]++
			}
			now++
			k.Done(chip, now, true)
		}
	}
	sum, sumSq := 0.0, 0.0
	for i, c := range claims {
		x := c / weights[i]
		sum += x
		sumSq += x * x
	}
	jain := sum * sum / (float64(len(claims)) * sumSq)
	t.Logf("claims %v of %d submitted, Jain %.4f", claims, submitted, jain)
	if jain < 0.99 {
		t.Fatalf("Jain index %.4f < 0.99 over weight-normalised claims %v", jain, claims)
	}
}
