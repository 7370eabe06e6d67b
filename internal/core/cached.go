package core

import (
	"context"

	"repro/internal/ccache"
	"repro/internal/circuit"
)

// CacheKey builds the content-addressed cache key for compiling progs
// under strat with this compiler's current configuration. The key
// captures everything the compilation output depends on — the circuit
// structure (names excluded), the device identity and its calibration
// artifact version, the strategy, and every compiler knob that steers
// attempt seeding or routing — so equal fingerprints imply bit-identical
// Results. ApplyCalibration bumps the device's calibration version,
// which retires every key minted before it.
func (c *Compiler) CacheKey(progs []*circuit.Circuit, strat Strategy) ccache.Key {
	attempts := c.Attempts
	if attempts <= 0 {
		attempts = 1 // CompileContext's own normalization
	}
	return ccache.Key{
		Device:       c.Device.Name,
		CalVersion:   c.Device.CalibrationVersion(),
		Strategy:     strat.String(),
		Omega:        c.Omega,
		Attempts:     attempts,
		Traversals:   c.Traversals,
		NoisePenalty: c.NoisePenalty,
		Programs:     progs,
	}
}

// CompileCachedContext is CompileContext behind a compile-result cache:
// a fingerprint hit returns the stored *Result without recompiling, a
// miss compiles and stores, and concurrent identical requests coalesce
// onto one compile (singleflight). A nil cache degrades to a plain
// CompileContext call, so callers thread an optional cache without
// branching.
//
// The returned Result is shared between all callers that hit the same
// key and must be treated as immutable — the compiler pipeline never
// mutates a Result after building it, so sharing is safe. Cached and
// uncached paths are byte-identical: compilation is deterministic in
// (key ingredients), which the cross-path differential tests enforce.
func (c *Compiler) CompileCachedContext(ctx context.Context, cache *ccache.Cache, progs []*circuit.Circuit, strat Strategy) (*Result, ccache.Outcome, error) {
	if cache == nil {
		res, err := c.CompileContext(ctx, progs, strat)
		return res, ccache.OutcomeBypass, err
	}
	v, err, outcome := cache.GetOrCompute(ctx, c.CacheKey(progs, strat).Fingerprint(), func(ctx context.Context) (any, error) {
		return c.CompileContext(ctx, progs, strat)
	})
	if err != nil {
		return nil, outcome, err
	}
	return v.(*Result), outcome, nil
}
