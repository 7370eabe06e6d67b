// Package arch models NISQ quantum chips: coupling maps (which pairs of
// physical qubits support a CNOT) plus calibration data (per-link CNOT
// error, per-qubit single-qubit-gate and readout error). It ships the
// device topologies the paper evaluates on — IBM Q16 Melbourne, a
// simulated 50-qubit chip, and the 5-qubit IBM Q London used in the
// hierarchy-tree example — together with a seeded synthetic calibration
// generator standing in for the IBMQ daily calibration API.
package arch

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/fp"
	"repro/internal/graph"
)

// Device is a quantum chip: a coupling graph over physical qubits with
// calibration data attached. All error rates are probabilities in [0, 1).
type Device struct {
	// Name identifies the chip (e.g. "ibmq16").
	Name string
	// Coupling is the undirected coupling graph; an edge {u,v} means a
	// CNOT can be applied directly between physical qubits u and v.
	Coupling *graph.Graph
	// CNOTErr maps each coupling edge to its CNOT (two-qubit gate)
	// error rate.
	CNOTErr map[graph.Edge]float64
	// ReadoutErr[q] is the probability that measuring qubit q reports
	// the wrong classical bit.
	ReadoutErr []float64
	// Gate1Err[q] is the error rate of single-qubit gates on qubit q.
	Gate1Err []float64
	// Crosstalk is the optional pairwise crosstalk calibration
	// E(victim|aggressor) from (simulated) Simultaneous Randomized
	// Benchmarking; nil when the chip has not been characterized, in
	// which case every consumer falls back to its scalar crosstalk
	// model (see crosstalk.go).
	Crosstalk CrosstalkMatrix

	hopsOnce sync.Once
	hops     [][]int // lazily computed all-pairs hop distances

	artMu      sync.Mutex
	calVersion uint64                    // guarded by d.artMu
	artifacts  map[artifactKey]*artifact // guarded by d.artMu
}

// artifactKey identifies one derived artifact in the device cache: the
// calibration version it was computed from, a kind tag (e.g.
// "community/tree"), and one numeric parameter (0 when the artifact
// takes none).
type artifactKey struct {
	version uint64
	kind    string
	param   float64
}

// artifact is one cache slot; once guards the single build so
// concurrent requesters of the same key share one computation.
type artifact struct {
	once sync.Once
	val  any
}

// CalibrationVersion returns the device's calibration version counter;
// ApplyCalibration and InvalidateArtifacts bump it, retiring every
// cached artifact derived from older error data.
func (d *Device) CalibrationVersion() uint64 {
	d.artMu.Lock()
	defer d.artMu.Unlock()
	return d.calVersion
}

// Artifact returns the derived artifact for (kind, param) under the
// current calibration version, invoking build at most once per key even
// under concurrent callers. The returned value is shared: callers must
// treat it as immutable. Distinct keys build concurrently; only the
// map bookkeeping is serialized.
func (d *Device) Artifact(kind string, param float64, build func() any) any {
	d.artMu.Lock()
	if d.artifacts == nil {
		d.artifacts = map[artifactKey]*artifact{}
	}
	key := artifactKey{version: d.calVersion, kind: kind, param: param}
	a, ok := d.artifacts[key]
	if !ok {
		a = &artifact{}
		d.artifacts[key] = a
	}
	d.artMu.Unlock()
	a.once.Do(func() { a.val = build() })
	return a.val
}

// InvalidateArtifacts drops every cached derived artifact by bumping
// the calibration version. Call it after mutating the device's error
// data in place; ApplyCalibration does so automatically. Artifact
// values already handed out stay valid for their callers — they are
// simply rebuilt on next request.
func (d *Device) InvalidateArtifacts() {
	d.artMu.Lock()
	defer d.artMu.Unlock()
	d.calVersion++
	d.artifacts = map[artifactKey]*artifact{}
}

// NumQubits returns the number of physical qubits on the device.
func (d *Device) NumQubits() int { return d.Coupling.N() }

// Validate checks internal consistency: every coupling edge has a CNOT
// error entry, per-qubit slices have the right length, and all error
// rates lie in [0, 1).
func (d *Device) Validate() error {
	n := d.Coupling.N()
	if len(d.ReadoutErr) != n {
		return fmt.Errorf("arch: device %s: ReadoutErr has %d entries, want %d", d.Name, len(d.ReadoutErr), n)
	}
	if len(d.Gate1Err) != n {
		return fmt.Errorf("arch: device %s: Gate1Err has %d entries, want %d", d.Name, len(d.Gate1Err), n)
	}
	for _, e := range d.Coupling.Edges() {
		err, ok := d.CNOTErr[e]
		if !ok {
			return fmt.Errorf("arch: device %s: edge %v has no CNOT error entry", d.Name, e)
		}
		if err < 0 || err >= 1 {
			return fmt.Errorf("arch: device %s: edge %v CNOT error %v out of [0,1)", d.Name, e, err)
		}
	}
	for q := 0; q < n; q++ {
		if d.ReadoutErr[q] < 0 || d.ReadoutErr[q] >= 1 {
			return fmt.Errorf("arch: device %s: qubit %d readout error %v out of [0,1)", d.Name, q, d.ReadoutErr[q])
		}
		if d.Gate1Err[q] < 0 || d.Gate1Err[q] >= 1 {
			return fmt.Errorf("arch: device %s: qubit %d 1q error %v out of [0,1)", d.Name, q, d.Gate1Err[q])
		}
	}
	return validateCrosstalk(d, d.Crosstalk)
}

// CNOTError returns the CNOT error rate of the link {u, v}. It panics if
// the link does not exist (callers must respect the coupling map).
func (d *Device) CNOTError(u, v int) float64 {
	e := graph.NewEdge(u, v)
	err, ok := d.CNOTErr[e]
	if !ok {
		panic(fmt.Sprintf("arch: device %s has no link %v", d.Name, e))
	}
	return err
}

// CNOTReliability returns 1 - CNOTError(u, v).
func (d *Device) CNOTReliability(u, v int) float64 { return 1 - d.CNOTError(u, v) }

// Hops returns the all-pairs hop-distance matrix of the coupling graph,
// computing and caching it on first use (safe for concurrent callers).
// The returned matrix is shared; callers must not modify it.
func (d *Device) Hops() [][]int {
	d.hopsOnce.Do(func() {
		d.hops = d.Coupling.AllPairsHops()
	})
	return d.hops
}

// AvgCNOTErr returns the mean CNOT error over all links. The sum runs
// in sorted edge order: float addition is not associative, so summing
// in map-iteration order made the last ULP of the mean vary between
// processes — enough to flip a score-tied dispatch decision.
func (d *Device) AvgCNOTErr() float64 {
	if len(d.CNOTErr) == 0 {
		return 0
	}
	edges := make([]graph.Edge, 0, len(d.CNOTErr))
	for e := range d.CNOTErr {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	sum := 0.0
	for _, e := range edges {
		sum += d.CNOTErr[e]
	}
	return sum / float64(len(d.CNOTErr))
}

// RegionFidelity scores how robust a set of physical qubits is: the mean
// of the link reliabilities of all internal coupling edges and the
// readout reliabilities of all qubits in the region. Higher is better.
// CDAP uses it to choose among candidate hierarchy-tree nodes; a region
// with no internal structure scores on readout alone.
func (d *Device) RegionFidelity(qubits []int) float64 {
	if len(qubits) == 0 {
		return 0
	}
	sum, cnt := 0.0, 0
	for _, q := range qubits {
		sum += 1 - d.ReadoutErr[q]
		cnt++
	}
	for _, e := range d.Coupling.InducedEdges(qubits) {
		sum += 1 - d.CNOTErr[e]
		cnt++
	}
	return sum / float64(cnt)
}

// EPST is the Estimated Probability of a Successful Trial (Equation 4)
// of a program with the given gate counts when allocated to region:
// r2q^cnots * r1q^gate1s * rro^qubits, where the r's are the mean
// reliabilities over the region's internal links and qubits. A region
// with no internal links scores r2q = 1 (no CNOT can run there anyway).
//
// busy lists links other programs keep busy concurrently. When the
// device carries a pairwise crosstalk matrix and busy is non-empty, each
// internal link contributes its worst conditional error over the busy
// aggressors (Worst2qErrUnder) instead of its base error, so a region
// whose boundary is hostile to an already-placed neighbor scores lower.
// Otherwise the base errors are read directly.
func (d *Device) EPST(region []int, cnots, gate1s, qubits int, busy []graph.Edge) float64 {
	if len(region) == 0 {
		return 0
	}
	underXtalk := len(d.Crosstalk) > 0 && len(busy) > 0
	r2q := 1.0
	if edges := d.Coupling.InducedEdges(region); len(edges) > 0 {
		sum := 0.0
		for _, e := range edges {
			e2q := d.CNOTErr[e]
			if underXtalk {
				e2q = d.Worst2qErrUnder(e, busy)
			}
			sum += 1 - e2q
		}
		r2q = sum / float64(len(edges))
	}
	var r1q, rro float64
	for _, q := range region {
		r1q += 1 - d.Gate1Err[q]
		rro += 1 - d.ReadoutErr[q]
	}
	r1q /= float64(len(region))
	rro /= float64(len(region))
	return math.Pow(r2q, float64(cnots)) * math.Pow(r1q, float64(gate1s)) * math.Pow(rro, float64(qubits))
}

// Utility returns the FRP utility of qubit q restricted to free qubits:
// (number of links from q to free qubits) / (sum of the CNOT error rates
// of those links). Das et al. use it to pick partition roots and grow
// regions; a qubit with no free links has utility 0.
func (d *Device) Utility(q int, free []bool) float64 {
	links, errSum := 0, 0.0
	for _, nb := range d.Coupling.Neighbors(q) {
		if free == nil || free[nb] {
			links++
			errSum += d.CNOTError(q, nb)
		}
	}
	if links == 0 || fp.Zero(errSum) {
		return 0
	}
	return float64(links) / errSum
}

// newDevice assembles a Device from an edge list, leaving calibration
// zeroed for the caller to fill.
func newDevice(name string, n int, edges [][2]int) *Device {
	g := graph.New(n)
	cerr := make(map[graph.Edge]float64, len(edges))
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
		cerr[graph.NewEdge(e[0], e[1])] = 0
	}
	return &Device{
		Name:       name,
		Coupling:   g,
		CNOTErr:    cerr,
		ReadoutErr: make([]float64, n),
		Gate1Err:   make([]float64, n),
	}
}
