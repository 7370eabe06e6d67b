package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

// Golden PSTs: the other determinism tests compare two runs of the same
// tree (worker counts, GOMAXPROCS, compiled vs oracle); these literals
// pin the absolute values across commits, so a refactor of the driver,
// the lowering or an engine that shifts one RNG draw or one float
// expression fails here. Each literal is the Float64bits of every PST
// and the Correct strings, recorded on the tree before the three drivers
// were merged and checked in a clean clone of that commit. The noisy
// clifford lines were re-recorded once, when the tableau engine moved to
// sampling contract v2 (frame.go; TestLatticeAgreesWithV1 holds the new
// estimates to the old contract's within Monte-Carlo error); ghz40's
// default and matrix lines came out equal to their v1 values, 10 of 700
// trials either way.

// goldenTrials spans two shards, the second partial.
const goldenTrials = 700

// adjacentPair16 co-locates two programs on neighbouring IBMQ16 regions
// so same-layer CNOTs are crosstalk-adjacent; d may carry a matrix.
func adjacentPair16(tb testing.TB, d *arch.Device) (*router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}
	s, err := router.Route(d, progs, [][]int{{0, 1, 2}, {3, 4, 5}}, router.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return s, progs
}

// cliffordMix50 routes four Clifford programs (28 logical qubits) on
// IBMQ50 under X-SWAP: past the statevector limit, tableau only.
func cliffordMix50(tb testing.TB, d *arch.Device) (*router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	progs := []*circuit.Circuit{
		nisqbench.MustGet("bv_n10"),
		nisqbench.GHZ(8),
		nisqbench.BernsteinVazirani(6),
		nisqbench.GHZ(4),
	}
	initial, err := newTestCompiler(d)(progs)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := router.Route(d, progs, initial, router.XSWAPOptions())
	if err != nil {
		tb.Fatal(err)
	}
	if n := len(layerize(s).active); n < 25 {
		tb.Fatalf("fixture has %d active qubits, want >= 25", n)
	}
	return s, progs
}

// ghz40 routes a 40-qubit GHZ on IBMQ50 under X-SWAP: one entangled
// component of 80 tableau rows, so every column spans two words. The
// chain starts laid out boustrophedon over the grid's first four rows,
// so only the row turns need SWAPs.
func ghz40(tb testing.TB, d *arch.Device) (*router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	progs := []*circuit.Circuit{nisqbench.GHZ(40)}
	chain := make([]int, 40)
	for l := range chain {
		r, c := l/10, l%10
		if r%2 == 1 {
			c = 9 - c
		}
		chain[l] = r*10 + c
	}
	s, err := router.Route(d, progs, [][]int{chain}, router.XSWAPOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return s, progs
}

// corners16 is a Clifford pair both engines accept that walks the two
// places they differ by design — a CZ firing next to another program's
// two-qubit gate (no crosstalk on the statevector side) and a barrier
// (busy for the statevector idle channel only) — plus every Clifford
// gate name the lowering knows. Analytic ESPs are pinned on it too.
func corners16(tb testing.TB, d *arch.Device) (*router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	a := circuit.New("a", 3).H(0).CZ(0, 1).S(1).Y(2).CX(1, 2).Sdg(0).SWAP(0, 1).MeasureAll()
	b := circuit.New("b", 2).X(0).CZ(0, 1).H(1).CX(0, 1).Z(0).CZ(0, 1).MeasureAll()
	progs := []*circuit.Circuit{a, b}
	s, err := router.Route(d, progs, [][]int{{0, 1, 2}, {3, 4}}, router.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	// The router consumes barriers, so one is spliced into the schedule.
	mid := len(s.Ops) / 2
	barrier := router.Op{Gate: circuit.Gate{Name: circuit.GateBarrier, Qubits: []int{0, 1, 2}}}
	s.Ops = append(s.Ops[:mid:mid], append([]router.Op{barrier}, s.Ops[mid:]...)...)
	return s, progs
}

func goldenLine(o *Outcome) string {
	var parts []string
	for _, v := range o.PST {
		parts = append(parts, fmt.Sprintf("%016x", math.Float64bits(v)))
	}
	return strings.Join(append(parts, o.Correct...), " ")
}

// goldenPST maps engine/fixture/noise-variant to its recorded line.
var goldenPST = map[string]string{
	"clifford/corners16/default":      "3fdbfa2608c6f2d6 3fdcb564efe89823 001 10",
	"clifford/corners16/matrix":       "3fdbb3ee721a54d9 3fdd130463796aca 001 10",
	"clifford/corners16/noiseless":    "3fe03a83a83a83a8 3fde898231bcb565 001 10",
	"clifford/corners16/xtalk":        "3fd9b101767dce43 3fdeb851eb851eb8 001 10",
	"clifford/ghz40/default":          "3f8d41d41d41d41d 0000000000000000000000000000000000000000",
	"clifford/ghz40/matrix":           "3f8d41d41d41d41d 0000000000000000000000000000000000000000",
	"clifford/ghz40/noiseless":        "3fe069536202ecfc 0000000000000000000000000000000000000000",
	"clifford/ghz40/xtalk":            "3f7d41d41d41d41d 0000000000000000000000000000000000000000",
	"clifford/mix50/default":          "3fb64efe898231bd 3fc130463796ac9e 3fc9f7390d2a6c40 3fd1d41d41d41d42 1111111110 00000000 111110 0000",
	"clifford/mix50/matrix":           "3fb2a6c405d9f739 3fc593bfa2608c6f 3fc9c869536202ed 3fd02ecfb9c86953 1111111110 00000000 111110 0000",
	"clifford/mix50/noiseless":        "3ff0000000000000 3fe03a83a83a83a8 3ff0000000000000 3fde898231bcb565 1111111110 00000000 111110 0000",
	"clifford/mix50/xtalk":            "3fb01767dce434aa 3fc4d880bb3ee722 3fc44c118de5ab27 3fcfa2608c6f2d59 1111111110 00000000 111110 0000",
	"esp/corners16/default":           "3fe7d36276687073 3fea3842ab021e44",
	"esp/corners16/matrix":            "3fe76d4dce8a3056 3fea2b5557d296d6",
	"esp/corners16/noiseless":         "3fe806ddc38f4231 3fea70ea3f13eef3",
	"esp/corners16/xtalk":             "3fe7b144e32e463f 3fea12b7878b5fdb",
	"esp/pair16/default":              "3fe09f6e66704996 3fd5136d9b565276",
	"esp/pair16/matrix":               "3fe058361d6ded58 3fd5090983fc9c1c",
	"esp/pair16/noiseless":            "3fe344b0f83eb39d 3fd6161850f99a04",
	"esp/pair16/xtalk":                "3fde200fdc88e93f 3fd46d6da31910e3",
	"statevector/corners16/default":   "3fdc9dfd13046379 3fda6c405d9f7391 001 10",
	"statevector/corners16/matrix":    "3fdbe2be2be2be2c 3fdb6db6db6db6db 001 10",
	"statevector/corners16/noiseless": "3fe130463796ac9e 3fe069536202ecfc 001 10",
	"statevector/corners16/xtalk":     "3fdb851eb851eb85 3fd999999999999a 001 10",
	"statevector/pair16/default":      "3fe428f5c28f5c29 3fdbfa2608c6f2d6 110 111",
	"statevector/pair16/matrix":       "3fe41d41d41d41d4 3fdeb851eb851eb8 110 111",
	"statevector/pair16/noiseless":    "3ff0000000000000 3ff0000000000000 110 111",
	"statevector/pair16/xtalk":        "3fe202ecfb9c8695 3fdde5ab277f44c1 110 111",
}

type goldenFixture func(testing.TB, *arch.Device) (*router.Schedule, []*circuit.Circuit)

// goldenVariant is a noise model with the 16- and 50-qubit chips it runs
// on.
type goldenVariant struct {
	name     string
	d16, d50 *arch.Device
	noise    NoiseModel
}

func goldenVariants(t *testing.T) []goldenVariant {
	xtalk := NoiseModel{Enabled: true, IdleErrPerLayer: 0.002, CrosstalkFactor: 0.5, Readout: true}
	matrix50 := arch.IBMQ50(0)
	matrix50.Crosstalk = arch.GenerateHostileCrosstalk(matrix50, 5, 0.3, 3, 5)
	return []goldenVariant{
		{"noiseless", arch.IBMQ16(0), arch.IBMQ50(0), NoiseModel{}},
		{"default", arch.IBMQ16(0), arch.IBMQ50(0), DefaultNoise()},
		{"xtalk", arch.IBMQ16(0), arch.IBMQ50(0), xtalk},
		{"matrix", matrixDevice16(t, 11), matrix50, DefaultNoise()},
	}
}

// goldenCases are the engine/fixture pairs every variant runs.
var goldenCases = []struct {
	engine, fixture string
	fx              goldenFixture
	chip50          bool
}{
	{"statevector", "pair16", adjacentPair16, false},
	{"statevector", "corners16", corners16, false},
	{"clifford", "corners16", corners16, false},
	{"clifford", "mix50", cliffordMix50, true},
	{"clifford", "ghz40", ghz40, true},
	{"esp", "pair16", adjacentPair16, false},
	{"esp", "corners16", corners16, false},
}

func TestGoldenPST(t *testing.T) {
	ctx := context.Background()
	for _, v := range goldenVariants(t) {
		for _, c := range goldenCases {
			d := v.d16
			if c.chip50 {
				d = v.d50
			}
			s, progs := c.fx(t, d)
			name := c.engine + "/" + c.fixture + "/" + v.name
			for _, workers := range []int{1, 0} {
				var line string
				var err error
				switch c.engine {
				case "esp":
					var e *ESP
					if e, err = AnalyticESP(d, s, len(progs), v.noise.IdleErrPerLayer); err == nil {
						line = goldenLine(&Outcome{PST: e.PerProgram})
					}
				case "statevector":
					var o *Outcome
					if o, err = SimulateScheduleCtx(ctx, d, s, progs, goldenTrials, 3, v.noise, workers); err == nil {
						line = goldenLine(o)
					}
				case "clifford":
					var o *Outcome
					if o, err = SimulateScheduleCliffordCtx(ctx, d, s, progs, goldenTrials, 3, v.noise, workers); err == nil {
						line = goldenLine(o)
					}
				}
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if line != goldenPST[name] {
					t.Errorf("workers=%d\n%q: %q,\nwant %q", workers, name, line, goldenPST[name])
				}
			}
		}
	}
}
