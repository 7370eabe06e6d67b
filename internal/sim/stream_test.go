package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// splitmix is the reference the stream is held to: splitmix64 as
// published, one word at a time, with Float64 and Intn written out
// plainly. It counts the words it yields.
type splitmix struct {
	z uint64
	n int
}

func newSplitmix(seed int64) *splitmix { return &splitmix{z: uint64(seed)} }

func (r *splitmix) word() uint64 {
	r.n++
	r.z += 0x9e3779b97f4a7c15
	z := r.z
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 is the word's top 53 bits scaled into [0, 1).
func (r *splitmix) Float64() float64 { return math.Ldexp(float64(r.word()>>11), -53) }

// Intn keeps the first word x whose product x·n has a low half of at
// least 2^64 mod n, and returns the high half.
func (r *splitmix) Intn(n int) int {
	for {
		hi, lo := bits.Mul64(r.word(), uint64(n))
		if lo >= -uint64(n)%uint64(n) {
			return int(hi)
		}
	}
}

// streamProbs are the probabilities the stream checks draw against:
// threshold's edge cases and rates of the calibrations' order.
var streamProbs = []float64{0, 5e-324, 1e-4, 0.0012, 0.01, 0.05, 0.3, 0.5, 0.99, 1 - 0x1p-53, 1, 2, math.NaN()}

// compareStream runs ops on s and on ref, two bytes per operation: the
// first picks one of Float64, Intn(2), Intn(3), below(threshold(p)),
// miss(threshold(p), n) and hits(threshold(p), n) and a p from
// streamProbs, the second is n. ref answers each with its own Float64
// and Intn; the two must agree on every answer and, after the last, on
// one more word.
func compareStream(ref *splitmix, s *stream, ops []byte) error {
	for k := 0; k+1 < len(ops); k += 2 {
		a, n := ops[k], int(ops[k+1])
		p := streamProbs[int(a/6)%len(streamProbs)]
		switch a % 6 {
		case 0:
			if w, g := ref.Float64(), s.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				return fmt.Errorf("op %d: Float64 %v, reference %v", k/2, g, w)
			}
		case 1, 2:
			m := int(a%6) + 1
			if w, g := ref.Intn(m), s.Intn(m); w != g {
				return fmt.Errorf("op %d: Intn(%d) %d, reference %d", k/2, m, g, w)
			}
		case 3:
			if w, g := ref.Float64() < p, s.below(threshold(p)); w != g {
				return fmt.Errorf("op %d: below(threshold(%v)) %v, reference %v", k/2, p, g, w)
			}
		case 4:
			w := n
			for i := 0; i < n; i++ {
				if ref.Float64() < p {
					w = i
					break
				}
			}
			if g := s.miss(threshold(p), n); g != w {
				return fmt.Errorf("op %d: miss(threshold(%v), %d) %d, reference %d", k/2, p, n, g, w)
			}
		default:
			w := 0
			for range n {
				if ref.Float64() < p {
					w++
				}
			}
			if g := s.hits(threshold(p), n); g != w {
				return fmt.Errorf("op %d: hits(threshold(%v), %d) %d, reference %d", k/2, p, n, g, w)
			}
		}
	}
	if w, g := ref.word(), s.next(); w != g {
		return fmt.Errorf("after %d ops: word %#x, reference %#x", len(ops)/2, g, w)
	}
	return nil
}

// TestSplitmixPublished pins the reference and the stream to the
// published splitmix64 outputs from seed 0.
func TestSplitmixPublished(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	ref, s := newSplitmix(0), newStream(0)
	for i, w := range want {
		if a, b := ref.word(), s.next(); a != w || b != w {
			t.Fatalf("word %d: reference %#x, stream %#x, want %#x", i+1, a, b, w)
		}
	}
}

// TestStreamMatchesReference is the stream's exactness check: seeded
// alike, it answers every draw the way the reference does, over seeds
// at the edges of int64 and runs of operations long enough to refill
// the buffer at least 20 times.
func TestStreamMatchesReference(t *testing.T) {
	seeds := []int64{0, -7, 1<<31 + 5, math.MinInt64, math.MaxInt64}
	cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(1)), Values: func(v []reflect.Value, r *rand.Rand) {
		seed := r.Int63() - r.Int63()
		if len(seeds) > 0 {
			seed, seeds = seeds[0], seeds[1:]
		}
		ops := make([]byte, 3000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		v[0], v[1] = reflect.ValueOf(seed), reflect.ValueOf(ops)
	}}
	check := func(seed int64, ops []byte) bool {
		ref := newSplitmix(seed)
		if err := compareStream(ref, newStream(seed), ops); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if ref.n < 20*streamLen {
			t.Errorf("seed %d: %d draws refill the buffer fewer than 20 times", seed, ref.n)
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestThresholdExact: threshold(p)−1 is the largest top-53-bit value k
// whose Float64 k/2^53 fires against p, at float64's edge cases and
// every error rate of the calibrated devices (with the crosstalk
// multiplier, too). When threshold(p) is 0 nothing fires; when it is
// 2^53 everything does.
func TestThresholdExact(t *testing.T) {
	fires := func(k uint64, p float64) bool { return float64(k)/(1<<53) < p }
	probs := []float64{5e-324, 0x1p-53, 0.0012, 0.5, math.Nextafter(1, 0), 1, 1.3, math.Copysign(0, -1), math.NaN(), DefaultNoise().IdleErrPerLayer}
	for _, d := range []*arch.Device{arch.IBMQ16(0), arch.IBMQ50(0), arch.Tokyo(0)} {
		probs = append(probs, d.Gate1Err...)
		probs = append(probs, d.ReadoutErr...)
		for _, p := range d.CNOTErr {
			probs = append(probs, p, p*(1+DefaultNoise().CrosstalkFactor))
		}
	}
	for _, p := range probs {
		th := threshold(p)
		if th > 1<<53 {
			t.Fatalf("threshold(%v) = %d, above 2^53", p, th)
		}
		if th > 0 && !fires(th-1, p) {
			t.Fatalf("threshold(%v) = %d: %d does not fire", p, th, th-1)
		}
		if th < 1<<53 && fires(th, p) {
			t.Fatalf("threshold(%v) = %d fires", p, th)
		}
	}
}

// TestShardStreamsDisjoint holds the property sharding relies on: no two
// shards of one call share a word. Shard s's word k is mix(z_s + k·γ),
// so shards a and b meet only where k_a − k_b ≡ (z_b − z_a)·γ⁻¹ (mod
// 2^64); that offset lying at least 2^32 from 0 either way keeps every
// shard that draws fewer than 2^32 words clear of the others. Checked
// for shards 0–63 of the seeds the goldens, the examples, the
// experiments, the service's first worker seeds and the benchmark's
// passes use.
func TestShardStreamsDisjoint(t *testing.T) {
	inv := uint64(gamma) // Newton's iteration doubles the correct low bits
	for range 6 {
		inv *= 2 - gamma*inv
	}
	if inv*gamma != 1 {
		t.Fatalf("γ⁻¹ = %#x is no inverse", inv)
	}
	seeds := []int64{1, 3, 7, 99}
	for mi := int64(0); mi < 12; mi++ {
		seeds = append(seeds, 3000+mi) // RunTable3PST
	}
	for w := int64(0); w < 4; w++ {
		for k := int64(1); k <= 16; k++ {
			seeds = append(seeds, 1+w*1_000_003+k) // service workers
		}
	}
	for pass := int64(0); pass < 16; pass++ {
		for input := int64(0); input < 12; input++ {
			seeds = append(seeds, pass*1009+input+1) // the benchmark's mcSeed at seed 0
		}
	}
	const shards, gap = 64, uint64(1 << 32)
	for _, seed := range seeds {
		for a := range shards {
			for b := a + 1; b < shards; b++ {
				d := (uint64(shardSeed(seed, b)) - uint64(shardSeed(seed, a))) * inv
				if d < gap || -d < gap {
					t.Fatalf("seed %d: shards %d and %d start %#x words apart", seed, a, b, d)
				}
			}
		}
	}
}

// FuzzStream holds the stream to the reference on a seed and a sequence
// of operations the fuzzer chooses (compareStream's encoding).
func FuzzStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 1<<10 {
			ops = ops[:1<<10]
		}
		if err := compareStream(newSplitmix(seed), newStream(seed), ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
