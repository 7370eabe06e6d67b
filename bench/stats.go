package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// harness reports it: with fewer, the value is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietTime estimates what a repeated, deterministic computation costs on a
// quiet machine: the first quartile (nearest rank) of its wall times.
// Interference from other tenants of the host only ever adds time, and comes
// and goes over seconds, so the low quartile of ten passes is far steadier
// between runs than their median, while still needing a quarter of the
// passes to agree.
func quietTime(xs []float64) float64 {
	v, _ := percentile(xs, 0.25)
	return v
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean returns the geometric mean of the positive values in xs, or 0
// when there are none.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// maxOf returns the largest value in xs, or 0 for no samples.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// rankOf is the nearest-rank index (1-based) of the p-quantile among n
// samples; the small slack keeps 0.9*100 from rounding up to rank 91.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and how
// many samples lie beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	rank := rankOf(p, len(xs))
	return sorted(xs)[rank-1], len(xs) - rank
}

// tailPercentile returns the wanted percentile when at least minBeyond
// samples lie beyond it, and otherwise the highest percentile that has,
// never below the median: a p90 over 30 samples is reported as the p66 it
// can support. used is the percentile actually reported.
func tailPercentile(xs []float64, want float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	rank := rankOf(want, n)
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if 2*rank <= n {
		return median(xs), 0.5
	}
	return sorted(xs)[rank-1], float64(rank) / float64(n)
}

// tailMean is the mean of the samples beyond the nearest-rank p-quantile
// (the slowest 1-p share), or of all of them when none lie beyond.
func tailMean(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := rankOf(p, len(s))
	if rank == len(s) {
		rank = 0
	}
	return mean(s[rank:])
}

// spreadShare is the distance between the first and third quartile of xs as
// a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (exclusive method), the rule the acceptance
// check applies to ten runs. It needs at least two samples.
func spreadShare(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med <= 0 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs((q(3) - q(1)) / med)
}

// arrivalSchedule returns n due times over [0, window): a Poisson process
// conditioned on its count, which is n sorted uniform draws. Fixing the
// count keeps the offered rate identical for every seed while the gaps stay
// exponential-like.
func arrivalSchedule(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// lateness is how long after its due time a request was actually sent; a
// generator running ahead of schedule is not late.
func lateness(due, sent time.Duration) time.Duration {
	if sent <= due {
		return 0
	}
	return sent - due
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
