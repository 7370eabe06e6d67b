// Cloudservice: simulate a day of a quantum cloud backend. Jobs arrive
// as a Poisson stream (the paper reports >120 queued jobs/day on IBMQ
// Vigo); we compare three service policies — separate execution,
// unconditional pairing, and the QuCloud EPST scheduler — on waiting
// time, throughput, and qubit utilization.
//
//	go run ./examples/cloudservice
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cloudsim"
	"repro/internal/nisqbench"
)

func main() {
	device := arch.IBMQ16(0)

	// A realistic mix of tiny and small programs, 60 jobs arriving
	// with a 4-second mean gap — an oversubscribed backend (one batch
	// takes ~10 s to execute 8024 shots, so a queue builds up).
	var circs []*circuit.Circuit
	for _, name := range []string{"bv_n3", "bv_n4", "peres_3", "toffoli_3",
		"fredkin_3", "3_17_13", "4mod5-v1_22", "mod5mils_65", "alu-v0_27"} {
		circs = append(circs, nisqbench.MustGet(name))
	}
	jobs := cloudsim.PoissonArrivals(circs, 60, 4, 2026)
	fmt.Printf("backend %s: %d jobs over %.1f minutes of arrivals\n\n",
		device.Name, len(jobs), jobs[len(jobs)-1].Arrival/60)

	fmt.Printf("%-15s %9s %9s %10s %8s %6s %6s\n",
		"policy", "makespan", "avg wait", "jobs/hour", "util(%)", "TRF", "batches")
	for _, policy := range []cloudsim.Policy{cloudsim.FIFOSeparate, cloudsim.FIFOPairs, cloudsim.QuCloud} {
		m, _, err := cloudsim.Run([]*arch.Device{device}, jobs, policy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %8.1fm %8.1fm %10.1f %8.1f %6.2f %6d\n",
			policy, m.Makespan/60, m.AvgWait/60, m.ThroughputPerHour,
			m.QubitUtilization*100, m.TRF, m.Batches)
	}

	fmt.Println("\nThe QuCloud policy reduces waiting time and raises utilization by")
	fmt.Println("co-locating jobs whose estimated fidelity loss stays under epsilon;")
	fmt.Println("unconditional pairing gets similar throughput but sacrifices fidelity")
	fmt.Println("(compare the scheduler evaluation in examples/cloudscheduler).")
}
