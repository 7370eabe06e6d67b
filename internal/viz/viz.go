// Package viz renders text diagnostics for devices and compiled
// schedules: calibration reports with error-rate bars and per-qubit
// schedule timelines. The CLI tools use it for human inspection; tests
// use it to pin rendering behaviour.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// CalibrationReport renders the device's error rates: one bar per qubit
// (readout error) and one per link (CNOT error), worst first, with weak
// elements flagged. Bars are scaled to the worst observed rate.
func CalibrationReport(d *arch.Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "device %s: %d qubits, %d links\n", d.Name, d.NumQubits(), d.Coupling.M())

	maxRO := 0.0
	for _, e := range d.ReadoutErr {
		if e > maxRO {
			maxRO = e
		}
	}
	b.WriteString("\nreadout error per qubit:\n")
	type qerr struct {
		q int
		e float64
	}
	qs := make([]qerr, d.NumQubits())
	for q := range qs {
		qs[q] = qerr{q, d.ReadoutErr[q]}
	}
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].e > qs[j].e })
	for _, qe := range qs {
		fmt.Fprintf(&b, "  Q%-3d %6.2f%% %s\n", qe.q, qe.e*100, bar(qe.e, maxRO))
	}

	maxCX := 0.0
	for _, e := range d.CNOTErr {
		if e > maxCX {
			maxCX = e
		}
	}
	b.WriteString("\nCNOT error per link (worst first):\n")
	type lerr struct {
		u, v int
		e    float64
	}
	var ls []lerr
	for _, ed := range d.Coupling.Edges() {
		ls = append(ls, lerr{ed.U, ed.V, d.CNOTErr[ed]})
	}
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].e > ls[j].e })
	for _, le := range ls {
		flag := ""
		if le.e >= 0.07 {
			flag = "  <- weak"
		}
		fmt.Fprintf(&b, "  Q%d-Q%-3d %6.2f%% %s%s\n", le.u, le.v, le.e*100, bar(le.e, maxCX), flag)
	}
	return b.String()
}

func bar(v, max float64) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * 30)
	return strings.Repeat("#", n)
}

// Timeline renders a compiled schedule as per-qubit lanes over ASAP
// layers: '.' idle, lowercase letters for 1q gates, 'C'/'T' for CNOT
// control/target, 'S' for SWAP halves, 'M' for measurement. Only active
// qubits get lanes; output is truncated at maxLayers columns (0 means
// no limit).
func Timeline(s *router.Schedule, maxLayers int) string {
	// ASAP layering (measure ops pinned to the final layer).
	level := map[int]int{}
	type cell struct {
		q     int
		layer int
		ch    byte
	}
	var cells []cell
	activeSet := map[int]bool{}
	maxLevel := 0
	place := func(qubits []int, cost int, chars []byte) {
		start := 0
		for _, q := range qubits {
			activeSet[q] = true
			if level[q] > start {
				start = level[q]
			}
		}
		for i, q := range qubits {
			for k := 0; k < cost; k++ {
				cells = append(cells, cell{q, start + k, chars[i]})
			}
			level[q] = start + cost
		}
		if start+cost > maxLevel {
			maxLevel = start + cost
		}
	}
	var measures []router.Op
	for _, op := range s.Ops {
		g := op.Gate
		switch {
		case g.IsBarrier():
		case g.IsMeasure():
			measures = append(measures, op)
		case g.Name == circuit.GateSWAP:
			place(g.Qubits, 3, []byte{'S', 'S'})
		case g.IsTwoQubit():
			place(g.Qubits, 1, []byte{'C', 'T'})
		default:
			ch := byte('u')
			if len(g.Name) > 0 {
				ch = g.Name[0]
			}
			place(g.Qubits, 1, []byte{ch})
		}
	}
	for _, op := range measures {
		q := op.Gate.Qubits[0]
		activeSet[q] = true
		cells = append(cells, cell{q, maxLevel, 'M'})
	}
	width := maxLevel + 1
	if maxLayers > 0 && width > maxLayers {
		width = maxLayers
	}

	var active []int
	for q := range activeSet {
		active = append(active, q)
	}
	sort.Ints(active)
	lanes := map[int][]byte{}
	for _, q := range active {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		lanes[q] = lane
	}
	for _, c := range cells {
		if c.layer < width {
			lanes[c.q][c.layer] = c.ch
		}
	}
	var b strings.Builder
	for _, q := range active {
		fmt.Fprintf(&b, "Q%-3d |%s|\n", q, lanes[q])
	}
	if maxLayers > 0 && maxLevel+1 > maxLayers {
		fmt.Fprintf(&b, "(%d of %d layers shown)\n", maxLayers, maxLevel+1)
	}
	return b.String()
}
