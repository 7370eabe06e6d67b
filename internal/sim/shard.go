package sim

// Trial sharding for the Monte-Carlo driver (monteCarlo in engine.go).
//
// Each simulation's trial budget is split into fixed-size shards and
// every shard draws from a stream (stream.go) seeded, as
// rand.NewSource would be, by a pure function of (caller seed, shard
// index); a worker re-seeds one stream from shard to shard. Shard s
// always covers the same trial range and always draws the same random
// values, so per-shard success counts — and therefore the summed PSTs —
// are identical whether the shards run on one goroutine or sixteen. The
// reduction over shards happens in shard-index order, keeping even float
// aggregation bit-stable (see DESIGN.md, "Shard-seed derivation").
//
// A shard is also each engine's unit of work (register.shard): the
// statevector runs its trials one by one, each drawing at every error
// site; the tableau samples the shard's error lattice first and then
// runs all of its trials at once as Pauli frames, 64 to a word
// (frame.go), so shardTrials also fixes the lattice's extent.

// shardTrials is the number of Monte-Carlo trials per RNG shard. It is
// a determinism constant, not a tuning knob: changing it changes which
// RNG stream each trial draws from and hence every simulated PST.
const shardTrials = 512

// shardSeed derives shard s's RNG seed from the caller's seed with a
// splitmix64-style finalizer, so neighboring (seed, shard) pairs map to
// decorrelated streams. The +2 offset keeps shard 0 off the raw seed
// (reserved for the noiseless reference run, which draws nothing).
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(int64(shard)+2)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// numShards returns how many shards cover the trial budget.
func numShards(trials int) int {
	return (trials + shardTrials - 1) / shardTrials
}

// shardRange returns shard s's half-open trial range [lo, hi).
func shardRange(s, trials int) (lo, hi int) {
	lo = s * shardTrials
	hi = lo + shardTrials
	if hi > trials {
		hi = trials
	}
	return lo, hi
}
