// Command qusched simulates the QuCloud cloud service: a queue of
// compilation jobs is batched by the EPST scheduler (Algorithm 4), each
// batch is compiled with CDAP+X-SWAP, and the resulting fidelity and
// throughput are reported.
//
//	qusched -eps 0.15 -jobs bv_n3,toffoli_3,3_17_13,alu-v0_27
//	qusched -eps 0.10            # default queue: tiny+small suite x2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	qucloud "repro"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/nisqbench"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qusched:", err)
		os.Exit(1)
	}
}

// run owns the whole command so tests can drive it with an argument
// list and capture its report from w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("qusched", flag.ContinueOnError)
	cfg := sched.DefaultConfig()
	fs.Float64Var(&cfg.Epsilon, "eps", cfg.Epsilon, "EPST violation threshold")
	fs.IntVar(&cfg.Lookahead, "lookahead", cfg.Lookahead, "scheduler lookahead N")
	fs.IntVar(&cfg.MaxColocate, "max-colocate", cfg.MaxColocate, "max programs per batch")
	var (
		chip     = fs.String("chip", "ibmq16", "target chip ("+strings.Join(arch.StandardDevices(), ",")+")")
		seed     = fs.Int64("seed", 0, "calibration seed")
		trials   = fs.Int("trials", 1000, "Monte-Carlo trials per batch")
		jobNames = fs.String("jobs", "", "comma-separated benchmark names (default: tiny+small suite x2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	d, err := arch.ByName(*chip, *seed)
	if err != nil {
		return err
	}

	var jobs []sched.Job
	if *jobNames == "" {
		jobs = qucloud.Fig14Queue(2)
	} else {
		for i, name := range strings.Split(*jobNames, ",") {
			c, err := nisqbench.Get(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			jobs = append(jobs, sched.Job{ID: i, Circ: c})
		}
	}
	byID := map[int]*circuit.Circuit{}
	for _, j := range jobs {
		byID[j.ID] = j.Circ
	}

	comp := qucloud.NewCompiler(d)
	comp.Attempts = 2
	cfg.Omega = comp.Omega
	batches, err := sched.Schedule(d, jobs, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "chip %s, %d jobs -> %d batches (eps=%.2f, N=%d)\n\n",
		d.Name, len(jobs), len(batches), cfg.Epsilon, cfg.Lookahead)
	noise := sim.DefaultNoise()
	totalPST, count := 0.0, 0
	for bi, b := range batches {
		progs := make([]*circuit.Circuit, len(b.JobIDs))
		names := make([]string, len(b.JobIDs))
		for i, id := range b.JobIDs {
			progs[i] = byID[id]
			names[i] = progs[i].Name
		}
		res, err := comp.Compile(progs, core.StrategyFor(len(progs)))
		if err != nil {
			res, err = comp.Compile(progs, qucloud.Separate)
			if err != nil {
				return err
			}
		}
		psts, err := comp.Simulate(res, *trials, *seed+int64(bi), noise)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "batch %2d (%s): %s\n", bi, res.Strategy, strings.Join(names, " + "))
		for i, pst := range psts {
			fmt.Fprintf(w, "    %-16s PST %5.1f%%\n", names[i], pst*100)
			totalPST += pst * 100
			count++
		}
	}
	fmt.Fprintf(w, "\navg PST %.1f%%, TRF %.3f\n", totalPST/float64(count), sched.TRF(len(jobs), batches))
	return nil
}
