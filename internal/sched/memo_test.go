package sched

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/core"
)

// TestNextAndCompileShareDevice runs two schedulers and a compiler on
// one device at once, as the daemon's workers do: all three read and
// fill the device's CDAP region memo, so under -race this catches
// unguarded memo state. Every answer must equal the one a fresh device
// gives alone.
func TestNextAndCompileShareDevice(t *testing.T) {
	const seed = 7
	jobs := tinyQueue()
	d, ref := arch.IBMQ16(seed), arch.IBMQ16(seed)
	cfg := DefaultConfig()
	cfg.Omega = community.KneeOmega(d) // the compiler's ω: one tree, one memo

	windows := [][]Job{jobs, jobs[3:]}
	want := make([]Batch, len(windows))
	for i, w := range windows {
		b, err := Next(ref, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	byID := map[int]*circuit.Circuit{}
	for _, j := range jobs {
		byID[j.ID] = j.Circ
	}
	var progs []*circuit.Circuit
	for _, id := range want[0].JobIDs {
		progs = append(progs, byID[id])
	}
	strats := []core.Strategy{core.CDAPXSwap, core.Separate}
	wantRes := make([]*core.Result, len(strats))
	for i, s := range strats {
		res, err := core.NewCompiler(ref).Compile(progs, s)
		if err != nil {
			t.Fatal(err)
		}
		wantRes[i] = res
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i, w := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				b, err := Next(d, w, cfg)
				if err == nil && !reflect.DeepEqual(b, want[i]) {
					err = fmt.Errorf("window %d round %d: batch %v, want %v", i, r, b.JobIDs, want[i].JobIDs)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		comp := core.NewCompiler(d)
		comp.Workers = 2
		for i, s := range strats {
			res, err := comp.Compile(progs, s)
			if err == nil && (res.CNOTs != wantRes[i].CNOTs || res.Depth != wantRes[i].Depth || !reflect.DeepEqual(res.Initial, wantRes[i].Initial)) {
				err = fmt.Errorf("%v compile: %d CNOTs depth %d, want %d / %d", s, res.CNOTs, res.Depth, wantRes[i].CNOTs, wantRes[i].Depth)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(want[0].JobIDs) < 2 {
		t.Fatalf("head batch %v is solo; the compile exercised no co-location", want[0].JobIDs)
	}
}

// BenchmarkNextWindow times one claim's scheduling, sched.Next over a
// 10-job Table I window on IBMQ16: cold runs on a retired CDAP region
// memo (InvalidateArtifacts each iteration, the tree rebuilt outside the
// timer), warm on the memo the previous iteration filled.
func BenchmarkNextWindow(b *testing.B) {
	jobs := tinyQueue()
	cfg := DefaultConfig()
	b.Run("cold", func(b *testing.B) {
		d := arch.IBMQ16(1)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d.InvalidateArtifacts()
			community.BuildCached(d, cfg.Omega)
			b.StartTimer()
			if _, err := Next(d, jobs, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		d := arch.IBMQ16(1)
		if _, err := Next(d, jobs, cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Next(d, jobs, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
