package sim

import (
	"math"
	"math/bits"
)

// stream is splitmix64 over a counter (Steele, Lea & Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014): word k of a
// stream seeded with z, counting from 1, is mix(z + k·γ). The words are
// read from a buffer that one loop refills, so miss and hits scan
// slices; the buffer's length changes no output. Float64 is a word's top
// 53 bits over 2^53, Intn is Lemire's multiply-shift, and below, miss and
// hits answer Float64() < p from an integer threshold: below asks it
// once, miss scans for the next of a run of such draws that fires, and
// hits counts how many of a run fire. The trial path of monteCarlo draws
// from one stream per shard; TestStreamMatchesReference and FuzzStream
// hold every draw to a one-word-at-a-time splitmix64 in the tests.
type stream struct {
	ctr uint64 // z + k·γ for the last word k generated
	pos int    // next unread word of buf
	buf [streamLen]uint64
}

const (
	streamLen = 256                // words per refill
	gamma     = 0x9e3779b97f4a7c15 // splitmix64's counter step, odd
	float53   = 1 << 53            // Float64's resolution: 2^53 values in [0, 1)
)

// mix is splitmix64's finalizer: a bijection of the 64-bit words.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// prng is what a leaf noise event draws from — a measurement, an
// injected Pauli, a decay: *stream on the trial path, the tests' own
// generators in the joint oracles.
type prng interface {
	Float64() float64
	Intn(n int) int
}

func newStream(seed int64) *stream {
	s := &stream{}
	s.seed(seed)
	return s
}

// seed restarts the stream at word 1 of seed's counter; the first draw
// fills the buffer.
func (s *stream) seed(seed int64) {
	s.ctr = uint64(seed)
	s.pos = streamLen
}

// refill replaces the buffer by the next streamLen words.
func (s *stream) refill() {
	z := s.ctr
	for i := range s.buf {
		z += gamma
		s.buf[i] = mix(z)
	}
	s.ctr = z
	s.pos = 0
}

// next is the stream's next word.
func (s *stream) next() uint64 {
	if s.pos == streamLen {
		s.refill()
	}
	x := s.buf[s.pos]
	s.pos++
	return x
}

// Float64 is a draw uniform over the multiples of 2^-53 in [0, 1).
func (s *stream) Float64() float64 {
	return float64(s.next()>>11) / float53
}

// Intn is a draw uniform over [0, n) for n > 0: the high word of x·n,
// drawing again when x falls in the 2^64 mod n values that would favour
// the low results (Lemire, "Fast random integer generation in an
// interval", ACM TOMACS 2019). A power of two never draws again.
func (s *stream) Intn(n int) int {
	hi, lo := bits.Mul64(s.next(), uint64(n))
	if lo < uint64(n) {
		for reject := -uint64(n) % uint64(n); lo < reject; {
			hi, lo = bits.Mul64(s.next(), uint64(n))
		}
	}
	return int(hi)
}

// below reports Float64() < p for t = threshold(p), consuming the same
// word.
func (s *stream) below(t uint64) bool {
	return s.next()>>11 < t
}

// miss makes up to n of below(t)'s draws, stopping after the first that
// fires, and returns how many missed before it: n when none fired.
func (s *stream) miss(t uint64, n int) int {
	for i := 0; i < n; {
		if s.pos == streamLen {
			s.refill()
		}
		w := s.buf[s.pos:min(streamLen, s.pos+n-i)]
		for j, x := range w {
			if x>>11 < t {
				s.pos += j + 1
				return i + j
			}
		}
		s.pos += len(w)
		i += len(w)
	}
	return n
}

// hits makes n of below(t)'s draws and returns how many fired: one pass
// over the buffer per run of words, counting the sign bit of (x>>11) − t
// with no branch on a word.
func (s *stream) hits(t uint64, n int) int {
	h := 0
	for n > 0 {
		if s.pos == streamLen {
			s.refill()
		}
		w := s.buf[s.pos:min(streamLen, s.pos+n)]
		for _, x := range w {
			h += int((x>>11 - t) >> 63)
		}
		s.pos += len(w)
		n -= len(w)
	}
	return h
}

// threshold is ⌈p·2^53⌉ clamped to [0, 2^53]: a word's top 53 bits k
// fall below it exactly when Float64's k/2^53 is below p, because
// scaling by 2^53 is exact and k is an integer. NaN and p ≤ 0 give 0,
// which nothing falls below.
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return float53
	}
	return uint64(math.Ceil(p * float53))
}
