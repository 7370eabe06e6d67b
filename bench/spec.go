package main

import (
	"encoding/json"
	"strings"
)

// This file is the benchmark's definition: its workloads, its end-to-end
// metrics with their regression bounds, and its per-layer metrics with the
// written prediction of which end-to-end metric each should move.
// BENCHMARK.json at the root of the repository is generated from these
// tables (`-print-spec`) and a test keeps the two equal.

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 15

// Workload names.
const (
	wlMix50  = "mix50_compile"
	wlPair16 = "pair16_sim"
	wlCliff  = "cliff50_sim"
	wlDrain  = "svc_drain"
	wlOpen   = "svc_open"
)

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wlMix50, "Table III 4-program mixes compiled on IBMQ50 with CDAP+X-SWAP, best of 5: router and partition do all the work, sim and service none; Mix_5 is the tail"},
	{wlPair16, "Table II pairs on IBMQ16, compiled in set-up, then 8024-trial statevector Monte-Carlo passes: the paper's PST experiment; the sim statevector path does all the work"},
	{wlCliff, "three 4-program Clifford mixes on IBMQ50, compiled in set-up, then 8024-trial packed-tableau passes: the sim layer's other engine, untouched by statevector changes"},
	{wlDrain, "in-process daemon, 2 backends, 2 tenants, WAL on: a backlog of Table I jobs posted before Start, then drained; saturated EPST batching, cold compile cache, joint simulation"},
	{wlOpen, "same daemon under an open-loop Poisson stream at 30 jobs/s, half the knee: solo batches, warm compile cache, so HTTP, admission, WAL, claim and lookup are the path"},
}

// metricDef defines one metric. Bound applies to end-to-end metrics only;
// Layer and Moves to per-layer metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

// End-to-end metric names. Every workload reports every one of them; what
// an "operation" and a "unit of work" are is fixed per workload (README.md).
const (
	mSetup    = "setup_s"
	mOpMid    = "op_ms_mid"
	mOpTail   = "op_ms_tail"
	mWork     = "work_per_s"
	mPST      = "pst_avg"
	mCNOTs    = "cnots_total"
	mDepth    = "depth_total"
	mTRF      = "trf"
	lower     = "lower"
	higher    = "higher"
	unitCount = "count"
	unitRatio = "ratio"
)

var endToEndDefs = []metricDef{
	{Name: mSetup, Unit: "s", Better: lower, Bound: 0.25},
	{Name: mOpMid, Unit: "ms", Better: lower, Bound: 0.25},
	{Name: mOpTail, Unit: "ms", Better: lower, Bound: 0.25},
	{Name: mWork, Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: mPST, Unit: unitRatio, Better: higher, Bound: 0.02},
	{Name: mCNOTs, Unit: unitCount, Better: lower, Bound: 0.01},
	{Name: mDepth, Unit: unitCount, Better: lower, Bound: 0.01},
	{Name: mTRF, Unit: unitRatio, Better: higher, Bound: 0.02},
}

// Predictions shared by several per-layer metrics: the end-to-end metric a
// change to the layer should move and where, then where it should not.
const (
	movesSubmit  = "op_ms_mid on svc_open (submit path); none on mix50_compile"
	movesCache   = "op_ms_mid on svc_open (hit path); work_per_s on svc_drain only if the ratio rises; none on mix50_compile"
	movesSetup   = "setup_s on every workload"
	movesPart    = "op_ms_mid on mix50_compile; none on cliff50_sim"
	movesRouter  = "op_ms_mid and, through Mix_5, op_ms_tail on mix50_compile; cnots_total must not move; none on pair16_sim and cliff50_sim"
	movesCore    = "op_ms_mid on mix50_compile"
	movesSV      = "work_per_s on pair16_sim, work_per_s on svc_drain, op_ms_mid on svc_open; none on cliff50_sim"
	movesCliff   = "work_per_s on cliff50_sim; none on pair16_sim"
	movesSimAny  = "work_per_s on pair16_sim or cliff50_sim, whichever engine ran"
	movesSched   = "work_per_s on svc_drain and, because claim runs it under the service lock, op_ms_tail on svc_open; none on the offline workloads"
	movesWAL     = "op_ms_mid on svc_open (append on the submit path); replay is the same layer read back, so a group-commit or fsync change reports both"
	movesQueue   = "op_ms_tail on svc_open"
	movesExec    = "work_per_s on svc_drain; op_ms_mid on svc_open"
	movesInfo    = "none: describes the run"
	movesLoadgen = "none: load generator health; a run with lateness_ms_p99 above 20 ms is invalid"
)

var perLayerDefs = []metricDef{
	{Name: "circuit.parse_us", Unit: "us", Better: lower, Layer: "circuit", Moves: movesSubmit},
	{Name: "circuit.qasm_write_us", Unit: "us", Better: lower, Layer: "circuit", Moves: movesSubmit},

	{Name: "ccache.fingerprint_us", Unit: "us", Better: lower, Layer: "ccache", Moves: movesCache},
	{Name: "ccache.hit_us", Unit: "us", Better: lower, Layer: "ccache", Moves: movesCache},
	{Name: "ccache.hit_ratio", Unit: unitRatio, Better: higher, Layer: "ccache", Moves: movesCache},
	{Name: "ccache.evictions", Unit: unitCount, Better: lower, Layer: "ccache", Moves: movesCache},
	{Name: "ccache.coalesced", Unit: unitCount, Better: higher, Layer: "ccache", Moves: movesCache},

	{Name: "community.build_ms", Unit: "ms", Better: lower, Layer: "community", Moves: movesSetup},

	{Name: "partition.cdap_ms", Unit: "ms", Better: lower, Layer: "partition", Moves: movesPart},
	{Name: "partition.share", Unit: unitRatio, Better: lower, Layer: "partition", Moves: movesPart},

	{Name: "router.traversal_ms", Unit: "ms", Better: lower, Layer: "router", Moves: movesRouter},
	{Name: "router.route_ms", Unit: "ms", Better: lower, Layer: "router", Moves: movesRouter},
	{Name: "router.share", Unit: unitRatio, Better: lower, Layer: "router", Moves: movesRouter},
	{Name: "router.swaps_total", Unit: unitCount, Better: lower, Layer: "router", Moves: movesRouter},
	{Name: "router.inter_swaps_total", Unit: unitCount, Better: lower, Layer: "router", Moves: movesRouter},

	{Name: "core.compile_ms", Unit: "ms", Better: lower, Layer: "core", Moves: movesCore},
	{Name: "core.untraced_share", Unit: unitRatio, Better: lower, Layer: "core", Moves: movesCore},
	{Name: "core.parallel_speedup", Unit: unitRatio, Better: higher, Layer: "core", Moves: movesCore},

	{Name: "sim.sv_us_per_trial", Unit: "us", Better: lower, Layer: "sim", Moves: movesSV},
	{Name: "sim.sv_active_qubits_mean", Unit: unitCount, Better: lower, Layer: "sim", Moves: movesSV},
	{Name: "sim.cliff_us_per_trial", Unit: "us", Better: lower, Layer: "sim", Moves: movesCliff},
	{Name: "sim.cliff_qubits_mean", Unit: unitCount, Better: lower, Layer: "sim", Moves: movesCliff},
	{Name: "sim.share", Unit: unitRatio, Better: lower, Layer: "sim", Moves: movesSimAny},
	{Name: "sim.esp_us", Unit: "us", Better: lower, Layer: "sim", Moves: movesSimAny},
	{Name: "sim.parallel_speedup", Unit: unitRatio, Better: higher, Layer: "sim", Moves: movesSimAny},
	{Name: "sim.ideal_check_ms", Unit: "ms", Better: lower, Layer: "sim", Moves: movesInfo},

	{Name: "sched.schedule_ms", Unit: "ms", Better: lower, Layer: "sched", Moves: movesSched},
	{Name: "sched.batches_per_call", Unit: unitCount, Better: lower, Layer: "sched", Moves: movesSched},
	{Name: "sched.used_batch_share", Unit: unitRatio, Better: higher, Layer: "sched", Moves: movesSched},
	{Name: "sched.coepst_us", Unit: "us", Better: lower, Layer: "sched", Moves: movesSched},
	{Name: "sched.sepepst_us", Unit: "us", Better: lower, Layer: "sched", Moves: movesSched},

	{Name: "fleet.pick_us", Unit: "us", Better: lower, Layer: "fleet", Moves: movesSubmit},

	{Name: "wal.append_us", Unit: "us", Better: lower, Layer: "wal", Moves: movesWAL},
	{Name: "wal.bytes_per_job", Unit: "bytes", Better: lower, Layer: "wal", Moves: movesWAL},
	{Name: "wal.replay_ms", Unit: "ms", Better: lower, Layer: "wal", Moves: movesWAL},
	{Name: "wal.replay_records", Unit: unitCount, Better: lower, Layer: "wal", Moves: movesWAL},

	{Name: "service.http_submit_us_p50", Unit: "us", Better: lower, Layer: "service", Moves: movesSubmit},
	{Name: "service.admit_us_p50", Unit: "us", Better: lower, Layer: "service", Moves: movesSubmit},
	{Name: "service.http_get_us_p50", Unit: "us", Better: lower, Layer: "service", Moves: movesInfo},
	{Name: "service.queue_ms_p50", Unit: "ms", Better: lower, Layer: "service", Moves: movesQueue},
	{Name: "service.queue_ms_p90", Unit: "ms", Better: lower, Layer: "service", Moves: movesQueue},
	{Name: "service.claim_ms_p50", Unit: "ms", Better: lower, Layer: "service", Moves: movesQueue},
	{Name: "service.exec_ms_p50", Unit: "ms", Better: lower, Layer: "service", Moves: movesExec},
	{Name: "service.exec_ms_p90", Unit: "ms", Better: lower, Layer: "service", Moves: movesExec},
	{Name: "service.compile_ms_mean", Unit: "ms", Better: lower, Layer: "service", Moves: movesExec},
	{Name: "service.sim_ms_mean", Unit: "ms", Better: lower, Layer: "service", Moves: movesExec},
	{Name: "service.batch_size_mean", Unit: unitCount, Better: higher, Layer: "service", Moves: "trf on svc_drain, to which it must be equal"},
	{Name: "service.colocated_share", Unit: unitRatio, Better: higher, Layer: "service", Moves: "trf on svc_drain"},
	{Name: "service.batches", Unit: unitCount, Better: lower, Layer: "service", Moves: "trf on svc_drain"},
	{Name: "service.fallback_batches", Unit: unitCount, Better: lower, Layer: "service", Moves: movesExec},
	{Name: "service.retries", Unit: unitCount, Better: lower, Layer: "service", Moves: movesExec},
	{Name: "service.rejected", Unit: unitCount, Better: lower, Layer: "service", Moves: movesInfo},
	{Name: "service.sched_errors", Unit: unitCount, Better: lower, Layer: "service", Moves: movesInfo},
	{Name: "service.shutdown_ms", Unit: "ms", Better: lower, Layer: "service", Moves: "work_per_s on svc_drain"},

	{Name: "loadgen.sent", Unit: unitCount, Better: higher, Layer: "loadgen", Moves: movesLoadgen},
	{Name: "loadgen.ok", Unit: unitCount, Better: higher, Layer: "loadgen", Moves: movesLoadgen},
	{Name: "loadgen.failed", Unit: unitCount, Better: lower, Layer: "loadgen", Moves: movesLoadgen},
	{Name: "loadgen.missed_share", Unit: unitRatio, Better: lower, Layer: "loadgen", Moves: "work_per_s on svc_open"},
	{Name: "loadgen.lateness_ms_p99", Unit: "ms", Better: lower, Layer: "loadgen", Moves: movesLoadgen},
	{Name: "loadgen.observe_lag_ms_p50", Unit: "ms", Better: lower, Layer: "loadgen", Moves: movesLoadgen},
	{Name: "loadgen.submit_ms_p50", Unit: "ms", Better: lower, Layer: "loadgen", Moves: movesSubmit},
	{Name: "loadgen.submit_ms_p95", Unit: "ms", Better: lower, Layer: "loadgen", Moves: movesSched},
	{Name: "loadgen.job_ms_p95", Unit: "ms", Better: lower, Layer: "loadgen", Moves: movesQueue},
	{Name: "loadgen.job_ms_p99", Unit: "ms", Better: lower, Layer: "loadgen", Moves: movesQueue},
	{Name: "loadgen.accounted_share", Unit: unitRatio, Better: higher, Layer: "loadgen", Moves: movesInfo},

	{Name: "proc.alloc_mb", Unit: "MB", Better: lower, Layer: "proc", Moves: movesInfo},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: lower, Layer: "proc", Moves: movesInfo},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower, Layer: "proc", Moves: movesInfo},
	{Name: "proc.cpu_s", Unit: "s", Better: lower, Layer: "proc", Moves: movesInfo},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower, Layer: "trace", Moves: movesInfo},
	{Name: "trace.spans", Unit: unitCount, Better: lower, Layer: "trace", Moves: movesInfo},
}

// benchmarkJSON renders the tables above in BENCHMARK.json's schema.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}
