package sim

import "math/rand"

// stream is math/rand's generator with the trial path's draws made
// cheap: the additive lagged-Fibonacci recurrence
// x_n = x_{n-607} + x_{n-273} (mod 2^64) that rand.NewSource implements,
// value for value, but read from a buffer of the next 607 outputs that
// two straight loops refill, with no interface call per draw. Float64
// and Intn return what rand.Rand's do from the same seed, draw for draw;
// below and miss answer Float64() < p from an integer threshold, and
// miss scans the buffer for the next of a run of such draws that fires.
// The trial path of monteCarlo draws from one per shard; the joint
// oracles in oracle_test.go keep drawing from *rand.Rand, so the
// TestCompiledTrialMatchesLegacy* tests prove the two streams identical.
type stream struct {
	// src seeds the stream: its first rngLen outputs fill buf, so the
	// source's seeding (and its table of cooked values) is the only
	// copy there is.
	src rand.Source64
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
	s := &stream{src: rand.NewSource(seed).(rand.Source64)}
	s.fill()
	return s
}

// seed restarts the stream where rand.NewSource(seed) starts.
func (s *stream) seed(seed int64) {
	s.src.Seed(seed)
	s.fill()
}

func (s *stream) fill() {
	for i := range s.buf {
		s.buf[i] = s.src.Uint64()
	}
	s.pos = 0
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

// threshold is the least Int63 value x with float64(x)/2^63 >= p, or
// 2^63 when there is none: x < threshold(p) exactly when the Float64
// that x makes is below p. Float64() < p is never true when p is NaN or
// not positive, which is 0 here; a bare bisection would keep its upper
// end for NaN and fire every time.
func threshold(p float64) uint64 {
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
