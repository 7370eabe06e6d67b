package service

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/nisqbench"
	"repro/internal/sched"
)

// TestWallAndVirtualClockAgree is the guard on "one scheduler kernel,
// two clocks": the same backlog — two chips, two tenants weighted 2:1,
// 64 Table I jobs, all submitted before anything runs — goes through
// the daemon (workers on wall time, under the service lock) and through
// sched.Kernel.Run (virtual time, single-threaded). Every job must land
// on the same chip and every chip must execute the same sequence of
// batches.
func TestWallAndVirtualClockAgree(t *testing.T) {
	devices := []*arch.Device{arch.IBMQ16(0), arch.Tokyo(0)}
	weights := map[string]float64{"heavy": 2, "light": 1}
	names := append(nisqbench.ByClass(nisqbench.Tiny), nisqbench.ByClass(nisqbench.Small)...)
	type submission struct {
		tenant string
		name   string
	}
	var backlog []submission
	for i := 0; i < 64; i++ {
		tenant := "heavy" // equal demand, unequal weights: fair queueing reorders the backlog
		if i%2 == 1 {
			tenant = "light"
		}
		backlog = append(backlog, submission{tenant, names[i%len(names)]})
	}

	cfg := DefaultConfig()
	cfg.Trials = 16
	cfg.TraceDepth = 2 * len(backlog) // keep every batch record
	cfg.Tenants = []Tenant{
		{ID: "heavy", Key: "k-heavy", Weight: weights["heavy"], MaxQueued: len(backlog)},
		{ID: "light", Key: "k-light", Weight: weights["light"], MaxQueued: len(backlog)},
	}
	svc, err := New(devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range backlog {
		if _, _, err := svc.SubmitJob(nisqbench.MustGet(sub.name), SubmitOptions{Tenant: sub.tenant}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wallChip := map[int]string{}
	for _, rec := range svc.Jobs() {
		if rec.State != StateDone {
			t.Fatalf("job %d ended %s: %s", rec.Seq, rec.State, rec.Error)
		}
		wallChip[rec.Seq] = rec.Backend
	}
	wallBatches := map[string][][]int{}
	for _, b := range svc.Backends() {
		for _, r := range b.RecentBatches {
			wallBatches[b.Name] = append(wallBatches[b.Name], r.JobIDs)
		}
	}

	k := sched.NewKernel(devices, nil, sched.Config{
		Epsilon: cfg.Epsilon, Lookahead: cfg.Lookahead, MaxColocate: cfg.MaxColocate,
	})
	flows := map[string]*sched.Flow{}
	for tenant, w := range weights {
		flows[tenant] = sched.NewFlow(w)
	}
	arrivals := make([]sched.Arrival, len(backlog))
	for i, sub := range backlog {
		arrivals[i].Item = &sched.Item{
			Job:  sched.Job{ID: i, Circ: nisqbench.MustGet(sub.name)},
			Flow: flows[sub.tenant],
		}
	}
	comps := make([]*core.Compiler, len(devices))
	for i, d := range devices {
		comps[i] = core.NewCompiler(d)
		comps[i].Attempts = cfg.Attempts
	}
	virtualBatches := map[string][][]int{}
	err = k.Run(arrivals, func(chip int, batch []*sched.Item, _ float64) (float64, error) {
		if _, err := comps[chip].Compile(sched.Programs(batch), core.StrategyFor(len(batch))); err != nil {
			return 0, err
		}
		name := devices[chip].Name
		virtualBatches[name] = append(virtualBatches[name], sched.IDs(batch))
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, a := range arrivals {
		if got, want := wallChip[a.Item.ID], devices[a.Item.Chip].Name; got != want {
			t.Errorf("job %d: daemon ran it on %s, virtual clock on %s", a.Item.ID, got, want)
		}
	}
	if !reflect.DeepEqual(wallBatches, virtualBatches) {
		t.Errorf("per-chip batch sequences differ:\n daemon  %v\n virtual %v", wallBatches, virtualBatches)
	}
	colocated := 0
	for _, seq := range virtualBatches {
		for _, b := range seq {
			if len(b) > 1 {
				colocated++
			}
		}
	}
	if len(virtualBatches) != len(devices) || colocated == 0 {
		t.Fatalf("backlog did not exercise both chips and co-location: %v", virtualBatches)
	}
}
