// Command qucompile compiles one or more quantum programs onto a
// simulated NISQ chip under any of the paper's six strategies and
// reports mapping, SWAP, CNOT, depth, and estimated-fidelity numbers.
//
// Programs are named Table I benchmarks or OpenQASM 2.0 files:
//
//	qucompile -chip ibmq16 -strategy cdap+xswap bv_n4 toffoli_3
//	qucompile -chip ibmq50 -strategy sabre -qasm prog1.qasm -qasm prog2.qasm
//	qucompile -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	qucloud "repro"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	var (
		chip     = flag.String("chip", "ibmq16", "target chip ("+strings.Join(arch.StandardDevices(), ",")+")")
		seed     = flag.Int64("seed", 0, "calibration seed (the synthetic 'calibration day')")
		strategy = flag.String("strategy", "cdap+xswap", "separate, sabre, baseline, cdap+xswap, cdap, xswap")
		trials   = flag.Int("trials", 2000, "Monte-Carlo trials for PST estimation (0 to skip)")
		attempts = flag.Int("attempts", 5, "compilation attempts; best (fewest CNOTs) wins")
		list     = flag.Bool("list", false, "list available benchmark programs and exit")
		emit     = flag.Bool("qasm-out", false, "print the compiled physical circuit as OpenQASM")
		timeline = flag.Bool("timeline", false, "print a per-qubit ASCII timeline of the schedule")
		calib    = flag.Bool("calibration", false, "print the chip's calibration report and exit")
		chipFile = flag.String("chip-file", "", "load the chip from a JSON DeviceSpec file instead of -chip")
		export   = flag.String("export-chip", "", "write the chip (topology + calibration) as JSON to this file and exit")
	)
	var qasmFiles multiFlag
	flag.Var(&qasmFiles, "qasm", "OpenQASM 2.0 file to compile (repeatable)")
	flag.Parse()

	if *list {
		for _, name := range nisqbench.Names() {
			c := nisqbench.MustGet(name)
			cl, _ := nisqbench.Class(name)
			fmt.Printf("%-16s %-6s %2d qubits %4d CNOTs depth %4d\n",
				name, cl, c.NumQubits, c.RawCNOTCount(), c.Depth())
		}
		return
	}

	var d *arch.Device
	var err error
	if *chipFile != "" {
		f, ferr := os.Open(*chipFile)
		if ferr != nil {
			fatal(ferr)
		}
		d, err = arch.LoadDevice(f)
		f.Close()
	} else {
		d, err = arch.ByName(*chip, *seed)
	}
	if err != nil {
		fatal(err)
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal(err)
		}
		err = arch.SaveDevice(f, d)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d qubits, %d links)\n", *export, d.NumQubits(), d.Coupling.M())
		return
	}
	if *calib {
		fmt.Print(viz.CalibrationReport(d))
		return
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	var progs []*circuit.Circuit
	for _, name := range flag.Args() {
		c, err := nisqbench.Get(name)
		if err != nil {
			fatal(err)
		}
		progs = append(progs, c)
	}
	for _, path := range qasmFiles {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		c, err := circuit.ParseQASM(path, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		progs = append(progs, c)
	}
	if len(progs) == 0 {
		fatal(fmt.Errorf("no programs given; pass benchmark names or -qasm files (-list shows benchmarks)"))
	}

	comp := qucloud.NewCompiler(d)
	comp.Attempts = *attempts
	res, err := comp.Compile(progs, strat)
	if err != nil {
		fatal(err)
	}
	if err := res.Validate(); err != nil {
		fatal(fmt.Errorf("internal error: invalid schedule: %w", err))
	}

	fmt.Printf("chip %s (%d qubits), strategy %s\n", d.Name, d.NumQubits(), strat)
	fmt.Printf("post-compilation: %d CNOTs, depth %d, %d SWAPs (%d inter-program)\n",
		res.CNOTs, res.Depth, res.Swaps, res.InterSwaps)
	for i, p := range progs {
		fmt.Printf("  program %d %-16s %d qubits, %d CNOTs\n", i, p.Name, p.NumQubits, p.RawCNOTCount())
	}
	if *trials > 0 {
		psts, err := comp.Simulate(res, *trials, *seed+99, sim.DefaultNoise())
		if err != nil {
			fatal(err)
		}
		for i, pst := range psts {
			fmt.Printf("  program %d PST = %.1f%% (%d trials)\n", i, pst*100, *trials)
		}
	}
	if *timeline {
		for i, s := range res.Schedules {
			if len(res.Schedules) > 1 {
				fmt.Printf("\nschedule %d:\n", i)
			} else {
				fmt.Println()
			}
			fmt.Print(viz.Timeline(s, 120))
		}
	}
	if *emit {
		for _, s := range res.Schedules {
			fmt.Print(circuit.QASMString(s.PhysicalCircuit()))
		}
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func parseStrategy(s string) (qucloud.Strategy, error) {
	switch strings.ToLower(s) {
	case "separate":
		return qucloud.Separate, nil
	case "sabre":
		return qucloud.SABRE, nil
	case "baseline", "frp":
		return qucloud.Baseline, nil
	case "cdap+xswap", "qucloud":
		return qucloud.CDAPXSwap, nil
	case "cdap":
		return qucloud.CDAPOnly, nil
	case "xswap":
		return qucloud.XSwapOnly, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qucompile:", err)
	os.Exit(1)
}
