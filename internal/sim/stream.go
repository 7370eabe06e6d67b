package sim

import (
	"math"
	"math/rand"
)

// stream is math/rand's generator with the trial path's draws made
// cheap: the additive lagged-Fibonacci recurrence
// x_n = x_{n-607} + x_{n-273} (mod 2^64) that rand.NewSource implements,
// value for value, but read from a buffer of the next 607 outputs that
// two straight loops refill, with no interface call per draw. Float64
// and Intn return what rand.Rand's do from the same seed, draw for draw;
// below, miss and hits answer Float64() < p from an integer threshold:
// miss scans the buffer for the next of a run of such draws that fires,
// and hits counts how many of a run fire. Seeding goes through no
// rand.Source: seed rebuilds rand.NewSource's state from the seed's
// MINSTD words and math/rand's cooked table, recovered once from one
// source's outputs. The trial path of monteCarlo draws from one per
// shard; the joint oracles in oracle_test.go keep drawing from
// *rand.Rand, so the TestCompiledTrialMatchesLegacy* tests prove the two
// streams identical, and TestStreamMatchesMathRand and FuzzStream hold
// the seeding and every draw to rand.NewSource over chosen and fuzzed
// seeds.
type stream struct {
	pos int // next unread word of buf
	buf [rngLen]uint64
}

const (
	rngLen = 607 // the recurrence's long lag: one buffer of outputs
	rngTap = 273 // its short lag
	// rejectInt63 is the least Int63 whose quotient by 2^63 rounds to
	// 1.0: rand.Rand.Float64 draws again, and so do Float64 and below.
	rejectInt63 = 1<<63 - 512
	int63Mask   = 1<<63 - 1
)

// prng is what a leaf noise event draws from — a measurement, an
// injected Pauli, a decay: *stream on the trial path, *rand.Rand in the
// joint oracles and the tests.
type prng interface {
	Float64() float64
	Intn(n int) int
}

func newStream(seed int64) *stream {
	s := &stream{}
	s.seed(seed)
	return s
}

// minstd is the multiplicative generator x ↦ a·x mod 2^31−1 that
// rand.NewSource seeds with.
const (
	minstdA = 48271
	minstdM = 1<<31 - 1
)

// mulMod is x·c mod M = 2^31−1 for x, c in [1, M), by Mersenne
// reduction: 2^31 ≡ 1, so folding the product's bits above 31 onto the
// low 31 keeps its residue. The first fold leaves at most 2^32 − 2 and
// the second at most M, which would be the residue 0, impossible as M
// is prime: no compare, no branch.
func mulMod(x, c uint64) uint64 {
	z := x * c
	z = z&minstdM + z>>31
	return z&minstdM + z>>31
}

// seedPows holds, per buf index, the powers of a that take a seed to
// the MINSTD states of the source word there: rand.NewSource steps its
// state 20 times, then makes word j of states 21+3j, 22+3j and 23+3j,
// state n being seed·a^n mod M. Word j goes to buf index (333−j) mod
// 607 (see seed).
var seedPows = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for range 20 {
		x = mulMod(x, minstdA)
	}
	for j := range rngLen {
		for k := range 3 {
			x = mulMod(x, minstdA)
			p[(rngLen-rngTap-1-j+rngLen)%rngLen][k] = x
		}
	}
	return p
}()

// seedWords XORs into buf, in buf order, the words rand.NewSource(seed)
// XORs its cooked table with: states w1, w2, w3 make w1<<40 ^ w2<<20 ^
// w3, each one multiply of the seed, independent of the others.
func seedWords(buf *[rngLen]uint64, seed int64) {
	s := seed % minstdM
	if s < 0 {
		s += minstdM
	}
	if s == 0 {
		s = 89482311
	}
	x := uint64(s)
	for i := range buf {
		p := &seedPows[i]
		buf[i] ^= mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
	}
}

// cooked is rand.NewSource's table of cooked values in buf order,
// recovered from the first 607 outputs of one source: run back through
// the recurrence, they give the source's seeded state, whose words are
// the table XORed with seedWords'.
var cooked = func() (c [rngLen]uint64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	for i := range c {
		c[i] = src.Uint64()
	}
	// x_{n-607} = x_n − x_{n-273}, from n = 606 down: x_{n-273} is still
	// an output for n >= 273, and already recovered at n+334 for the rest.
	for n := rngLen - 1; n >= 0; n-- {
		c[n] -= c[(n+rngLen-rngTap)%rngLen]
	}
	seedWords(&c, seed)
	return c
}()

// seed restarts the stream where rand.NewSource(seed) starts, with no
// rand.Source. The source's seeded state is its 607 words, the seed's
// MINSTD words XOR the cooked table, and its outputs run
// x_n = x_{n-607} + x_{n-273} from them: its nth draw adds words 333−n
// and 606−n (mod 607) and stores the sum over the first, so word v holds
// x_{u-607} for u = (333−v) mod 607. In that order, buf order, the words
// are the 607 values before the first output, and one refill yields the
// first 607 outputs.
func (s *stream) seed(seed int64) {
	s.buf = cooked
	seedWords(&s.buf, seed)
	s.refill()
}

// refill replaces the buffer's outputs x_{m+1..m+607} by the next 607:
// x_{n+607} = x_n + x_{n+334}, the second term still in the buffer for
// the first 273 words and already refilled for the rest.
func (s *stream) refill() {
	b := &s.buf
	for i := 0; i < rngTap; i++ {
		b[i] += b[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		b[i] += b[i-rngTap]
	}
	s.pos = 0
}

// int63 is rand.Rand.Int63.
func (s *stream) int63() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.buf[s.pos] & int63Mask
	s.pos++
	return x
}

// Float64 is rand.Rand.Float64, whose "== 1, draw again" test is the
// integer test below.
func (s *stream) Float64() float64 {
	for {
		if x := s.int63(); x < rejectInt63 {
			return float64(x) / (1 << 63)
		}
	}
}

// Intn is rand.Rand.Intn for 0 < n < 2^31, which is Int31n: a power of
// two masks one Int31, any other n rejects the Int31s above the largest
// multiple of n.
func (s *stream) Intn(n int) int {
	if n&(n-1) == 0 {
		return int(s.int63()>>32) & (n - 1)
	}
	limit := uint64(1<<31 - 1 - (1<<31)%uint64(n))
	v := s.int63() >> 32
	for v > limit {
		v = s.int63() >> 32
	}
	return int(v % uint64(n))
}

// below reports Float64() < p for t = threshold(p), consuming the same
// draws.
func (s *stream) below(t uint64) bool {
	for {
		if x := s.int63(); x < rejectInt63 {
			return x < t
		}
	}
}

// miss makes up to n of below(t)'s draws, stopping after the first that
// fires, and returns how many missed before it: n when none fired.
func (s *stream) miss(t uint64, n int) int {
	// Every accepted draw is below rejectInt63, so a larger t fires alike;
	// then one unsigned compare, x-t < span, finds the draws that neither
	// fire nor are drawn again.
	t = min(t, rejectInt63)
	span := rejectInt63 - t
	for i := 0; i < n; {
		if s.pos == rngLen {
			s.refill()
		}
		w := s.buf[s.pos:min(rngLen, s.pos+n-i)]
		j := 0
		for j < len(w) && w[j]&int63Mask-t < span {
			j++
		}
		s.pos += j
		i += j
		if j == len(w) {
			continue
		}
		s.pos++
		if w[j]&int63Mask < t {
			return i
		}
	}
	return n
}

// hits makes n of below(t)'s draws and returns how many fired: one
// pass over the buffer per run of words, counting with no branch on a
// word, then one more for the words drawn again.
func (s *stream) hits(t uint64, n int) int {
	t = min(t, rejectInt63)
	h := 0
	for n > 0 {
		if s.pos == rngLen {
			s.refill()
		}
		w := s.buf[s.pos:min(rngLen, s.pos+n)]
		redraw := uint64(0)
		for _, x := range w {
			x &= int63Mask
			h += int((x - t) >> 63)
			redraw += (rejectInt63 - 1 - x) >> 63
		}
		s.pos += len(w)
		n -= len(w) - int(redraw)
	}
	return h
}

// threshold is the least Int63 value x with float64(x)/2^63 >= p, or
// 2^63 when there is none: x < threshold(p) exactly when the Float64
// that x makes is below p. Float64() < p is never true when p is NaN or
// not positive, which is 0 here; a bare bisection would keep its upper
// end for NaN and fire every time.
//
// Dividing by 2^63 is exact, so the test is float64(x) >= P for
// P = p·2^63. Every x from ⌈P⌉ up passes; an x below P passes only when
// it rounds up to P, within one ulp u of it, so everything up to
// ⌈P⌉ − u − 1 ≤ P − u fails, and bisection is left a range of u + 1.
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p > 1:
		return 1 << 63 // float64(x)/2^63 is at most 1
	}
	P := p * (1 << 63)
	hi := uint64(math.Ceil(P)) // fires, or is 2^63
	u := max(1, uint64(math.Nextafter(P, math.Inf(1))-P))
	lo := hi - min(hi, u+1) // misses: 0 misses as p > 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if float64(mid) >= P {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
