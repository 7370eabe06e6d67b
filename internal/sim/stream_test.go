package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// streamProbs are the probabilities the stream checks draw against:
// threshold's edge cases and rates of the calibrations' order.
var streamProbs = []float64{0, 5e-324, 1e-4, 0.0012, 0.01, 0.05, 0.3, 0.5, 0.99, 1 - 0x1p-53, 1, 2, math.NaN()}

// compareStream runs ops on s and on ref, two bytes per operation: the
// first picks one of Float64, Intn(2), Intn(3), below(threshold(p)),
// miss(threshold(p), n) and hits(threshold(p), n) and a p from
// streamProbs, the second is n. ref answers each with its own Float64
// and Intn; the two must agree on every answer and, after the last, on
// one more Int63.
func compareStream(ref *rand.Rand, s *stream, ops []byte) error {
	for k := 0; k+1 < len(ops); k += 2 {
		a, n := ops[k], int(ops[k+1])
		p := streamProbs[int(a/6)%len(streamProbs)]
		switch a % 6 {
		case 0:
			if w, g := ref.Float64(), s.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				return fmt.Errorf("op %d: Float64 %v, math/rand %v", k/2, g, w)
			}
		case 1, 2:
			m := int(a%6) + 1
			if w, g := ref.Intn(m), s.Intn(m); w != g {
				return fmt.Errorf("op %d: Intn(%d) %d, math/rand %d", k/2, m, g, w)
			}
		case 3:
			if w, g := ref.Float64() < p, s.below(threshold(p)); w != g {
				return fmt.Errorf("op %d: below(threshold(%v)) %v, math/rand %v", k/2, p, g, w)
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
				return fmt.Errorf("op %d: miss(threshold(%v), %d) %d, math/rand %d", k/2, p, n, g, w)
			}
		default:
			w := 0
			for range n {
				if ref.Float64() < p {
					w++
				}
			}
			if g := s.hits(threshold(p), n); g != w {
				return fmt.Errorf("op %d: hits(threshold(%v), %d) %d, math/rand %d", k/2, p, n, g, w)
			}
		}
	}
	if w, g := uint64(ref.Int63()), s.int63(); w != g {
		return fmt.Errorf("after %d ops: Int63 %d, math/rand %d", len(ops)/2, g, w)
	}
	return nil
}

// countingSource counts the Int63s a rand.Rand draws from it.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.Source64.Int63()
}

// TestStreamMatchesMathRand is the stream's exactness check: seeded
// alike, it answers every draw the way rand.New(rand.NewSource(seed))
// does, over seeds at the edges of NewSource's seed reduction and long
// enough runs of operations to refill the buffer at least 20 times.
func TestStreamMatchesMathRand(t *testing.T) {
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
		src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		if err := compareStream(rand.New(src), newStream(seed), ops); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if src.n < 20*rngLen {
			t.Errorf("seed %d: %d draws refill the buffer fewer than 20 times", seed, src.n)
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// streamSource serves a stream's words to rand.New, so math/rand's own
// Float64 and Intn run on whatever the stream holds.
type streamSource struct{ s *stream }

func (w streamSource) Int63() int64 { return int64(w.s.int63()) }
func (w streamSource) Seed(int64)   {}

// TestStreamRedrawsLikeMathRand plants the words a seeded stream almost
// never yields — Int63s that Float64 and below draw again, Int31s that
// Intn(3) draws again, the largest of each that they keep, and words with
// the top bit set — across the buffer, the last word included, and holds
// every operation to math/rand's on a copy of the same buffer.
func TestStreamRedrawsLikeMathRand(t *testing.T) {
	planted := []uint64{rejectInt63, 1<<64 - 1, 1<<63 | (rejectInt63 - 1), (1<<31 - 1) << 32, (1<<31-2)<<32 | 7, (1<<31 - 3) << 32, 1 << 63}
	r := rand.New(rand.NewSource(2))
	for c := 0; c < 8; c++ {
		s := newStream(int64(c))
		for i := c; i < rngLen; i += 5 + c {
			s.buf[i] = planted[(i+c)%len(planted)]
		}
		s.buf[rngLen-1] = rejectInt63
		ref := *s
		ops := make([]byte, 2000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		if err := compareStream(rand.New(streamSource{&ref}), s, ops); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
	}
}

// TestThresholdExact: x < threshold(p) exactly when float64(x)/2^63 < p,
// at the threshold and its neighbours and at the largest Int63s Float64
// keeps and draws again, for every error rate of the calibrated devices
// (with the crosstalk multiplier, too) and the edge cases of float64.
func TestThresholdExact(t *testing.T) {
	if got := threshold(math.NaN()); got != 0 {
		t.Fatalf("threshold(NaN) = %d, want 0: Float64() < NaN never holds", got)
	}
	probs := []float64{0, math.Copysign(0, -1), 5e-324, 0.5, 1 - 0x1p-53, 1, 2, math.Inf(1), math.NaN(), DefaultNoise().IdleErrPerLayer}
	for _, d := range []*arch.Device{arch.IBMQ16(0), arch.IBMQ50(0), arch.Tokyo(0)} {
		probs = append(probs, d.Gate1Err...)
		probs = append(probs, d.ReadoutErr...)
		for _, p := range d.CNOTErr {
			probs = append(probs, p, p*(1+DefaultNoise().CrosstalkFactor))
		}
	}
	for _, p := range probs {
		th := threshold(p)
		xs := []uint64{rejectInt63 - 1, rejectInt63}
		for x := th - min(th, 2); x <= th+2 && x <= int63Mask; x++ {
			xs = append(xs, x)
		}
		for _, x := range xs {
			if got, want := x < th, float64(x)/(1<<63) < p; got != want {
				t.Fatalf("p=%v threshold %d: x=%d below it is %v, float64(x)/2^63 < p is %v", p, th, x, got, want)
			}
		}
	}
}

// thresholdBisect is threshold by bisection over all of [0, 2^63]: the
// oracle TestThresholdMatchesBisection holds threshold's one-ulp range
// to.
func thresholdBisect(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	lo, hi := uint64(0), uint64(1<<63) // lo misses; hi fires or is 2^63
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestThresholdMatchesBisection: threshold agrees with a bisection over
// the whole Int63 range on float64 edge cases, on every binade's ends
// and on probabilities drawn across all exponents and mantissas.
func TestThresholdMatchesBisection(t *testing.T) {
	probs := []float64{0, math.Copysign(0, -1), 5e-324, math.SmallestNonzeroFloat64 * 3, 0x1p-1022, 0x1p-63, 0x1p-64, 0x1p-52, 0.5, 1 - 0x1p-53, 1, 1 + 0x1p-52, 2, math.Inf(1), math.Inf(-1), math.NaN(), -0.5}
	for e := -80; e <= 0; e++ {
		v := math.Ldexp(1, e)
		probs = append(probs, v, math.Nextafter(v, 0), math.Nextafter(v, 2))
	}
	check := func(bits uint64) bool {
		p := math.Float64frombits(bits&(1<<52-1) | uint64(1023-bits>>58)<<52) // exponent −63..0
		q := math.Float64frombits(bits >> 2)                                  // anywhere in [0, 2)
		for _, v := range []float64{p, q} {
			if got, want := threshold(v), thresholdBisect(v); got != want {
				t.Errorf("threshold(%v) = %d, bisection %d", v, got, want)
				return false
			}
		}
		return true
	}
	for _, p := range probs {
		if got, want := threshold(p), thresholdBisect(p); got != want {
			t.Errorf("threshold(%v) = %d, bisection %d", p, got, want)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzStream holds the stream to math/rand on a seed and a sequence of
// operations the fuzzer chooses (compareStream's encoding): the
// stream's own seeding against rand.NewSource's, and every draw after.
func FuzzStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 1<<10 {
			ops = ops[:1<<10]
		}
		if err := compareStream(rand.New(rand.NewSource(seed)), newStream(seed), ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// BenchmarkStreamSeed times what a shard pays before its first draw:
// re-seeding its stream, against rand.NewSource's Seed and a 607-word
// fill, the path a stream seeded through a rand.Source takes.
func BenchmarkStreamSeed(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		s := newStream(1)
		for i := 0; i < b.N; i++ {
			s.seed(shardSeed(int64(i), i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1).(rand.Source64)
		var buf [rngLen]uint64
		for i := 0; i < b.N; i++ {
			src.Seed(shardSeed(int64(i), i))
			for j := range buf {
				buf[j] = src.Uint64()
			}
		}
	})
}
