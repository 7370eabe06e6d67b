// Command quexp regenerates the tables and figures of the paper's
// evaluation section, and the repository's extensions, as text tables:
// `quexp -exp <name>` runs one, and `quexp -h` lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	qucloud "repro"
	"repro/internal/arch"
	"repro/internal/community"
	"repro/internal/pool"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses a quexp command line (without the program name) and prints
// the experiments it selects to stdout.
func run(args []string) error {
	fs := flag.NewFlagSet("quexp", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 0, "calibration seed")
		trials   = fs.Int("trials", 2000, "Monte-Carlo trials per PST estimate (table3pst)")
		days     = fs.Int("days", 21, "calibration days for the fig9 sweep")
		parallel = fs.Int("parallel", 0, "worker goroutines for compile/simulate fan-out (0 = GOMAXPROCS, 1 = sequential); results are identical at every setting")
	)
	// The experiments, in the order -exp all runs them.
	exps := []struct {
		name, what string
		f          func() error
	}{
		{"table2", "Table II: exact PST on IBMQ16", func() error { return table2(*seed) }},
		{"table3", "Table III: compilation overheads on IBMQ50", func() error { return table3(*seed) }},
		{"table3pst", "Table III mixes: PST on IBMQ50 (minutes)", func() error { return table3PST(*seed, *trials) }},
		{"fig8", "Figure 8: IBM Q London dendrogram", fig8},
		{"fig9", "Figure 9: omega sweep + knee (both chips)", func() error { return fig9(*seed, *days) }},
		{"fig14", "Figure 14: scheduler PST / TRF", func() error { return fig14(*seed) }},
		{"scale", "overheads and compile time across chip sizes", func() error { return scale(*seed) }},
		{"clifford", "exact PST of a Clifford mix on IBMQ50", func() error { return clifford(*seed) }},
		{"staleness", "hierarchy-tree reuse under calibration drift", func() error { return staleness(*seed) }},
		{"crosstalk", "SRB-matrix-aware vs blind co-location", func() error { return crosstalk(*seed) }},
	}
	usage, names := "experiment, one of:", []string{"all"}
	for _, e := range exps {
		usage += fmt.Sprintf("\n  %-10s %s", e.name, e.what)
		names = append(names, e.name)
	}
	exp := fs.String("exp", "all", usage+"\n  all        every experiment above but table3pst")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits, so Parse returns no error
	if !slices.Contains(names, *exp) {
		return fmt.Errorf("quexp: unknown experiment %q; valid: %s", *exp, strings.Join(names, ", "))
	}
	if *parallel > 0 {
		pool.SetDefault(*parallel)
	}
	for _, e := range exps {
		// table3pst simulates 16-qubit components for minutes: by name only.
		if *exp != e.name && (*exp != "all" || e.name == "table3pst") {
			continue
		}
		if err := e.f(); err != nil {
			return fmt.Errorf("quexp %s: %w", e.name, err)
		}
	}
	return nil
}

func crosstalk(seed int64) error {
	fmt.Printf("== Extension: crosstalk-aware co-location on adversarial IBMQ16 (day %d, exact PST)\n\n", seed)
	rows, err := qucloud.RunCrosstalkAware(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-40s %10s %10s %8s %9s %9s\n", "mix", "aware(%)", "blind(%)", "delta", "hostileA", "hostileB")
	var sumA, sumB float64
	for _, r := range rows {
		fmt.Printf("%-40s %10.1f %10.1f %+8.1f %9d %9d\n", strings.Join(r.Programs, "+"), r.AwarePST, r.BlindPST, r.Delta(), r.AwareHostile, r.BlindHostile)
		sumA += r.AwarePST
		sumB += r.BlindPST
	}
	n := float64(len(rows))
	fmt.Printf("%-40s %10.1f %10.1f %+8.1f\n", "mean", sumA/n, sumB/n, (sumA-sumB)/n)
	fmt.Println()
	return nil
}

func clifford(seed int64) error {
	fmt.Printf("== Extension: exact per-program PST on IBMQ50 (Clifford workload, day %d)\n\n", seed)
	rows, err := qucloud.RunCliffordFidelity(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %8s %8s | per-program PST (%%)\n", "strategy", "avg PST", "CNOTs", "depth")
	for _, r := range rows {
		fmt.Printf("%-12s %8.1f %8d %8d |", r.Strategy, r.Avg, r.CNOTs, r.Depth)
		for _, p := range r.PST {
			fmt.Printf(" %5.1f", p)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func staleness(seed int64) error {
	fmt.Println("== Extension: hierarchy-tree staleness under calibration drift (8% daily)")
	ratios, err := qucloud.RunTreeStaleness(seed, 8, 0.08)
	if err != nil {
		return err
	}
	fmt.Println()
	for day, r := range ratios {
		fmt.Printf("  tree %d day(s) old: EPST ratio vs fresh tree = %.4f\n", day+1, r)
	}
	fmt.Println()
	return nil
}

func scale(seed int64) error {
	fmt.Printf("== Scalability: 3_17_13 + alu-v0_27 across chip sizes (day %d)\n\n", seed)
	rows, err := qucloud.RunScale(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %6s", "chip", "qubits")
	for _, s := range qucloud.ScaleStrategies {
		fmt.Printf(" | %s (CNOTs/depth/ms)", s)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s %6d", r.Device, r.Qubits)
		for _, s := range qucloud.ScaleStrategies {
			fmt.Printf(" | %5d/%-5d %8.1fms   ", r.CNOTs[s], r.Depth[s], r.CompileMS[s])
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func table2(seed int64) error {
	fmt.Printf("== Table II: exact PST (%%) of two-program workloads on IBMQ16 (calibration day %d)\n\n", seed)
	rows, err := qucloud.RunTable2(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-14s", "W1", "W2")
	for _, s := range qucloud.Strategies {
		fmt.Printf(" | %-11s", s)
	}
	fmt.Println()
	sums := [2]map[qucloud.Strategy]float64{{}, {}} // tiny, small
	for i, r := range rows {
		fmt.Printf("%-10s %-14s", r.W1, r.W2)
		for _, s := range qucloud.Strategies {
			fmt.Printf(" | %4.1f %4.1f ", r.PST[s][0], r.PST[s][1])
			sums[i/5][s] += r.Avg(s) / 5
		}
		fmt.Println()
		if idx := i / 5; i%5 == 4 {
			fmt.Printf("%-25s", [2]string{"tiny avg", "small avg"}[idx])
			for _, s := range qucloud.Strategies {
				fmt.Printf(" |   %5.1f   ", sums[idx][s])
			}
			fmt.Println()
		}
	}
	fmt.Println()
	return nil
}

func table3(seed int64) error {
	fmt.Printf("== Table III: compilation overheads of 4-program workloads on IBMQ50 (calibration day %d)\n\n", seed)
	rows, err := qucloud.RunTable3(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s", "Mix")
	for _, s := range qucloud.Table3Strategies {
		fmt.Printf(" | %-12s", s)
	}
	fmt.Println("   (CNOTs/depth)")
	cnots, depth := map[qucloud.Strategy]int{}, map[qucloud.Strategy]int{}
	for _, r := range rows {
		fmt.Printf("%-8s", r.Mix)
		for _, s := range qucloud.Table3Strategies {
			fmt.Printf(" | %5d/%-6d", r.CNOTs[s], r.Depth[s])
			cnots[s] += r.CNOTs[s]
			depth[s] += r.Depth[s]
		}
		fmt.Println()
	}
	fmt.Printf("%-8s", "total")
	for _, s := range qucloud.Table3Strategies {
		fmt.Printf(" | %5d/%-6d", cnots[s], depth[s])
	}
	fmt.Println()
	base := float64(cnots[qucloud.Baseline])
	qc := float64(cnots[qucloud.CDAPXSwap])
	sab := float64(cnots[qucloud.SABRE])
	fmt.Printf("\nCDAP+X-SWAP vs Baseline: %+.1f%% CNOTs; vs SABRE: %+.1f%% CNOTs\n\n",
		(qc-base)/base*100, (qc-sab)/sab*100)
	return nil
}

func table3PST(seed int64, trials int) error {
	fmt.Printf("== Table III mixes: PST on IBMQ50, statevector engine (calibration day %d, %d trials)\n\n", seed, trials)
	all := make([]int, len(qucloud.Table3Mixes))
	for i := range all {
		all[i] = i
	}
	rows, err := qucloud.RunTable3PST(seed, trials, all)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s", "Mix")
	for _, s := range qucloud.Table3PSTStrategies {
		fmt.Printf(" | %-12s %-23s", s, "avg  per-program PST(%)")
	}
	fmt.Println(" | sim(s)")
	sum := map[qucloud.Strategy]float64{}
	for _, r := range rows {
		fmt.Printf("%-8s", r.Mix)
		for _, s := range qucloud.Table3PSTStrategies {
			fmt.Printf(" | %12.1f", r.Avg(s))
			for _, p := range r.PST[s] {
				fmt.Printf(" %5.1f", p)
			}
			sum[s] += r.Avg(s)
		}
		fmt.Printf(" | %6.2f\n", r.SimSeconds)
	}
	fmt.Printf("%-8s", "mean")
	for _, s := range qucloud.Table3PSTStrategies {
		fmt.Printf(" | %12.1f %23s", sum[s]/float64(len(rows)), "")
	}
	fmt.Println()
	fmt.Println()
	return nil
}

func fig8() error {
	fmt.Println("== Figure 8: hierarchy tree (dendrogram) of IBM Q London, omega = 0.95")
	d := arch.London()
	tree := community.Build(d, 0.95)
	fmt.Println()
	fmt.Print(tree.Dendrogram())
	fmt.Println()
	return nil
}

func fig9(seed int64, days int) error {
	for _, tc := range []struct {
		name string
		dev  *arch.Device
	}{
		{"IBMQ16", arch.IBMQ16(seed)},
		{"IBMQ50", arch.IBMQ50(seed)},
	} {
		fmt.Printf("== Figure 9: avg redundant qubits vs omega on %s (%d days)\n\n", tc.name, days)
		res := qucloud.RunFig9(tc.dev, days, 0.05)
		for i, w := range res.Omegas {
			marker := ""
			if i == res.KneeIndex {
				marker = "   <- knee solution"
			}
			fmt.Printf("  omega %.2f  avg redundant %.3f%s\n", w, res.AvgRedundant[i], marker)
		}
		fmt.Printf("\nknee omega = %.2f (paper: 0.95 on IBMQ16, 0.40 on IBMQ50)\n\n", res.KneeOmega())
	}
	return nil
}

func fig14(seed int64) error {
	fmt.Printf("== Figure 14: task-scheduler fidelity/throughput trade-off (day %d, exact PST)\n\n", seed)
	points, err := qucloud.RunFig14(seed, []float64{0.05, 0.10, 0.15, 0.20})
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %8s %8s\n", "config", "PST(%)", "TRF")
	for _, p := range points {
		fmt.Printf("%-10s %8.1f %8.3f\n", p.Label, p.AvgPST, p.TRF)
	}
	fmt.Println()
	return nil
}
