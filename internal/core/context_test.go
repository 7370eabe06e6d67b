package core

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// TestCompileContextCanceled: an already-canceled context must fail
// the compilation with the context error instead of hanging or
// returning a bogus result.
func TestCompileContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	comp := NewCompiler(arch.IBMQ16(0))
	for _, s := range Strategies {
		if _, err := comp.CompileContext(ctx, pairWorkload(), s); err == nil {
			t.Fatalf("%s: canceled context should fail compilation", s)
		}
	}
}

// TestSimulateContextCanceled: the simulation variants must honor an
// already-canceled context.
func TestSimulateContextCanceled(t *testing.T) {
	comp := NewCompiler(arch.IBMQ16(0))
	res, err := comp.Compile(pairWorkload(), Separate)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := comp.SimulateContext(ctx, res, 32, 1, sim.DefaultNoise()); err == nil {
		t.Fatal("canceled context should fail simulation")
	}
	if _, err := comp.simulate(ctx, res, 32, 1, sim.DefaultNoise(), sim.SimulateScheduleCliffordCtx); err == nil {
		t.Fatal("canceled context should fail Clifford simulation")
	}
}

// TestContextVariantsMatchPlain: with a live context the ctx variants
// must be bit-identical to the plain API (the PR 3 determinism
// contract extends to context plumbing).
func TestContextVariantsMatchPlain(t *testing.T) {
	d := arch.IBMQ16(0)
	progs := pairWorkload()
	ctx := context.Background()

	plainComp := NewCompiler(d)
	ctxComp := NewCompiler(d)
	plainRes, err := plainComp.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	ctxRes, err := ctxComp.CompileContext(ctx, progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.CNOTs != ctxRes.CNOTs || plainRes.Depth != ctxRes.Depth {
		t.Fatalf("context compile diverged: plain (cnots=%d depth=%d) vs ctx (cnots=%d depth=%d)",
			plainRes.CNOTs, plainRes.Depth, ctxRes.CNOTs, ctxRes.Depth)
	}

	noise := sim.DefaultNoise()
	plainPSTs, err := plainComp.Simulate(plainRes, 64, 3, noise)
	if err != nil {
		t.Fatal(err)
	}
	ctxPSTs, err := ctxComp.SimulateContext(ctx, ctxRes, 64, 3, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainPSTs) != len(ctxPSTs) {
		t.Fatalf("PST count diverged: %d vs %d", len(plainPSTs), len(ctxPSTs))
	}
	for i := range plainPSTs {
		if plainPSTs[i] != ctxPSTs[i] {
			t.Fatalf("PST[%d] diverged: %v vs %v", i, plainPSTs[i], ctxPSTs[i])
		}
	}
}
