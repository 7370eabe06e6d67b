// Package fp holds the repository's floating-point comparison
// predicates. Fidelity scores (EPST, PST), modularity values, and
// calibration error rates are all float64; comparing them with == is
// exact to the last bit and silently nondeterministic across
// refactorings that reassociate arithmetic. Every package compares
// through these helpers; the floateq lint check enforces it.
package fp

import "math"

// Tol is the default comparison tolerance: two values within
// Tol × max(1, |a|, |b|) of each other are considered equal. 1e-9 sits
// far below any physically meaningful fidelity or modularity
// difference (calibration error rates are ~1e-3) while staying far
// above accumulated float64 rounding noise (~1e-15 per operation).
const Tol = 1e-9

// Eq reports whether a and b are equal within Tol, relative to the
// larger magnitude (absolute near zero). NaN compares unequal to
// everything, including itself; equal infinities compare equal.
func Eq(a, b float64) bool {
	//lint:ignore floateq exact fast path; the epsilon helpers must bottom out somewhere
	if a == b {
		return true // also catches equal infinities
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
		return false // unequal infinities; NaN equals nothing
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= Tol*scale
}

// Zero reports whether x is within Tol of zero.
func Zero(x float64) bool {
	return math.Abs(x) <= Tol
}
