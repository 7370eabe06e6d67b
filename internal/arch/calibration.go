package arch

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Calibration is a snapshot of a device's error rates, analogous to one
// day of IBM backend calibration data. It is decoupled from Device so
// multi-day series (Figure 9) can be generated once and re-applied.
type Calibration struct {
	// CNOTErr maps each coupling edge to its CNOT error rate.
	CNOTErr map[graph.Edge]float64
	// ReadoutErr and Gate1Err are per-qubit error rates.
	ReadoutErr []float64
	Gate1Err   []float64
	// Crosstalk is the optional pairwise conditional-error matrix
	// E(victim|aggressor); nil means the day's calibration did not
	// characterize crosstalk and the device falls back to its scalar
	// model. GenerateCalibration leaves it nil (so existing seeds stay
	// byte-identical); pair it with GenerateCrosstalk.
	Crosstalk CrosstalkMatrix
}

// Realistic IBMQ16-Melbourne-like calibration ranges. The paper's
// simulated IBMQ50 draws each attribute "within the range of its maximum
// and minimum value on IBMQ16 using a uniform random model"; we use the
// same model for every synthetic calibration in this repository.
const (
	// MinCNOTErr and MaxCNOTErr bound per-link CNOT error rates.
	MinCNOTErr = 0.012
	MaxCNOTErr = 0.12
	// MinReadoutErr and MaxReadoutErr bound per-qubit readout error.
	MinReadoutErr = 0.015
	MaxReadoutErr = 0.12
	// MinGate1Err and MaxGate1Err bound per-qubit 1q-gate error.
	MinGate1Err = 0.0005
	MaxGate1Err = 0.005
)

// GenerateCalibration produces a deterministic synthetic calibration for
// the device from the given seed, drawing each attribute uniformly
// within the Melbourne-like ranges above. A fraction of links is made
// distinctly "weak" (top of the error range) so the variation-aware
// mapping policies have real structure to exploit, mirroring the
// highlighted weak links in the paper's Figure 5.
func GenerateCalibration(d *Device, seed int64) Calibration {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	n := d.NumQubits()
	cal := Calibration{
		CNOTErr:    make(map[graph.Edge]float64, len(d.CNOTErr)),
		ReadoutErr: make([]float64, n),
		Gate1Err:   make([]float64, n),
	}
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

	// Iterate edges in sorted order so generation is reproducible
	// regardless of map iteration order.
	edges := d.Coupling.Edges()
	for _, e := range edges {
		err := uniform(MinCNOTErr, MaxCNOTErr*0.6)
		if rng.Float64() < 0.15 { // weak link
			err = uniform(MaxCNOTErr*0.6, MaxCNOTErr)
		}
		cal.CNOTErr[e] = err
	}
	for q := 0; q < n; q++ {
		cal.ReadoutErr[q] = uniform(MinReadoutErr, MaxReadoutErr*0.7)
		if rng.Float64() < 0.12 { // weak qubit
			cal.ReadoutErr[q] = uniform(MaxReadoutErr*0.7, MaxReadoutErr)
		}
		cal.Gate1Err[q] = uniform(MinGate1Err, MaxGate1Err)
	}
	return cal
}

// ApplyCalibration installs cal onto d, replacing its error data. It
// panics if cal's shape does not match the device.
func ApplyCalibration(d *Device, cal Calibration) {
	if len(cal.ReadoutErr) != d.NumQubits() || len(cal.Gate1Err) != d.NumQubits() {
		panic(fmt.Sprintf("arch: calibration shape mismatch for %s", d.Name))
	}
	for e := range d.CNOTErr {
		v, ok := cal.CNOTErr[e]
		if !ok {
			panic(fmt.Sprintf("arch: calibration missing edge %v for %s", e, d.Name))
		}
		d.CNOTErr[e] = v
	}
	copy(d.ReadoutErr, cal.ReadoutErr)
	copy(d.Gate1Err, cal.Gate1Err)
	// The matrix is part of the calibration: a day without one clears
	// any previous day's (conditional rates are meaningless against
	// fresh base rates).
	d.Crosstalk = cal.Crosstalk.Clone()
	d.InvalidateArtifacts()
}

// CalibrationSeries returns `days` successive calibrations for the
// device, seeded deterministically from base. It models the daily IBM
// recalibration cycle used by the Figure 9 omega sweep (21 days in the
// paper).
func CalibrationSeries(d *Device, base int64, days int) []Calibration {
	out := make([]Calibration, days)
	for i := 0; i < days; i++ {
		out[i] = GenerateCalibration(d, base+int64(i)*131)
	}
	return out
}

// WeakLinks returns the coupling edges whose CNOT error rate is at or
// above the given threshold, sorted by edge order. Used by examples to
// highlight unreliable regions as in Figure 5.
func (d *Device) WeakLinks(threshold float64) []graph.Edge {
	var out []graph.Edge
	for e, err := range d.CNOTErr {
		if err >= threshold {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// DriftSeries returns `days` successive calibrations where each day is
// the previous day perturbed by a small relative drift (each value
// multiplied by a factor uniform in [1-drift, 1+drift], clamped to the
// global ranges). Unlike CalibrationSeries' independent draws, this
// models the day-to-day autocorrelation of real backends and is used by
// the hierarchy-tree staleness experiment.
func DriftSeries(d *Device, base int64, days int, drift float64) []Calibration {
	if days <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(base*40503 + 7))
	out := make([]Calibration, days)
	out[0] = GenerateCalibration(d, base)
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	perturb := func(v float64) float64 {
		return v * (1 + drift*(2*rng.Float64()-1))
	}
	for t := 1; t < days; t++ {
		prev := out[t-1]
		cal := Calibration{
			CNOTErr:    make(map[graph.Edge]float64, len(prev.CNOTErr)),
			ReadoutErr: make([]float64, len(prev.ReadoutErr)),
			Gate1Err:   make([]float64, len(prev.Gate1Err)),
		}
		// Iterate edges in sorted order for determinism.
		for _, e := range d.Coupling.Edges() {
			cal.CNOTErr[e] = clamp(perturb(prev.CNOTErr[e]), MinCNOTErr, MaxCNOTErr)
		}
		for q := range prev.ReadoutErr {
			cal.ReadoutErr[q] = clamp(perturb(prev.ReadoutErr[q]), MinReadoutErr, MaxReadoutErr)
			cal.Gate1Err[q] = clamp(perturb(prev.Gate1Err[q]), MinGate1Err, MaxGate1Err)
		}
		out[t] = cal
	}
	return out
}
