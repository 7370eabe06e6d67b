package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

func TestShardSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for s := 0; s < 64; s++ {
			v := shardSeed(seed, s)
			if v != shardSeed(seed, s) {
				t.Fatalf("shardSeed(%d,%d) is not deterministic", seed, s)
			}
			if v == seed {
				t.Fatalf("shardSeed(%d,%d) collides with the raw seed reserved for the reference run", seed, s)
			}
			if seen[v] {
				t.Fatalf("shardSeed(%d,%d)=%d collides with an earlier (seed,shard) pair", seed, s, v)
			}
			seen[v] = true
		}
	}
}

func TestShardRangePartitionsTrials(t *testing.T) {
	for _, trials := range []int{1, 100, shardTrials - 1, shardTrials, shardTrials + 1, 3*shardTrials + 17} {
		shards := numShards(trials)
		covered := 0
		prevHi := 0
		for s := 0; s < shards; s++ {
			lo, hi := shardRange(s, trials)
			if lo != prevHi {
				t.Fatalf("trials=%d shard %d starts at %d, want %d (gap/overlap)", trials, s, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("trials=%d shard %d is empty [%d,%d)", trials, s, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != trials || prevHi != trials {
			t.Fatalf("trials=%d: shards cover %d trials ending at %d", trials, covered, prevHi)
		}
	}
}

// pairSchedule routes bv_n3 and 3_17_13 side by side on IBMQ16 — a
// workload big enough that its trials span several shards' worth of
// random draws in every engine.
func pairSchedule(tb testing.TB) (*arch.Device, *router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	d := arch.IBMQ16(0)
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}
	s, err := router.Route(d, progs, [][]int{{0, 1, 2}, {5, 6, 7}}, router.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return d, s, progs
}

// TestSimulateWorkersDifferential is the core determinism guarantee:
// the statevector engine returns byte-identical outcomes no matter how
// many workers execute the shards. The workers fan out over its three
// shards and share the compiled program's checkpoints and measurement
// trees (the race sweep runs it).
func TestSimulateWorkersDifferential(t *testing.T) {
	d, s, progs := pairSchedule(t)
	trials := 2*shardTrials + 100 // 3 shards, last one partial
	want, err := SimulateScheduleCtx(context.Background(), d, s, progs, trials, 7, DefaultNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, err := SimulateScheduleCtx(context.Background(), d, s, progs, trials, 7, DefaultNoise(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d outcome %+v differs from sequential %+v", workers, got, want)
		}
	}
}

// TestSimulateCliffordWorkersDifferential is the tableau engine's
// counterpart on cliffordMix50: the workers fan out, and each hands its
// stream and register on from shard to shard (the race sweep runs it).
func TestSimulateCliffordWorkersDifferential(t *testing.T) {
	d := arch.IBMQ50(0)
	s, progs := cliffordMix50(t, d)
	trials := 3*shardTrials + 1 // 4 shards, last one partial
	want, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, trials, 11, DefaultNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, trials, 11, DefaultNoise(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d outcome %+v differs from sequential %+v", workers, got, want)
		}
	}
}

func benchSimulate(b *testing.B, workers int) {
	d, s, progs := pairSchedule(b)
	noise := DefaultNoise()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateScheduleCtx(context.Background(), d, s, progs, 2*shardTrials, 7, noise, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateSequential(b *testing.B) { benchSimulate(b, 1) }
func BenchmarkSimulateParallel(b *testing.B)   { benchSimulate(b, 0) }

func benchSimulateClifford(b *testing.B, workers int) {
	d := arch.IBMQ16(0)
	prog := circuit.New("ghz", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	s, err := router.Route(d, []*circuit.Circuit{prog}, [][]int{[]int{0, 1, 2, 3}}, router.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	progs := []*circuit.Circuit{prog}
	noise := DefaultNoise()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, 4*shardTrials, 7, noise, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateCliffordSequential(b *testing.B) { benchSimulateClifford(b, 1) }
func BenchmarkSimulateCliffordParallel(b *testing.B)   { benchSimulateClifford(b, 0) }
