package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wal"
)

// traceSvc is the traced run of a service workload: a short untraced run,
// then an equally short run on a fresh daemon whose every job is turned into
// spans (HTTP round trips timed by the load generator; queue, claim and exec
// stages rebuilt from the job's event timestamps), then the layer probes:
// the public functions the daemon calls on its submit and claim paths, run
// on this workload's own jobs inside spans.
func traceSvc(o runOpts, res *runResult, env *svcEnv, timed func(env *svcEnv, seconds float64, tl *tally) (*svcOut, error), tl *tally, baseline int) (*runResult, error) {
	third := o.seconds / 3
	plain, err := timed(env, third, tl)
	if err != nil {
		return nil, err
	}
	if err := finishSvc(o, res, env, plain, tl, baseline); err != nil {
		return nil, err
	}
	env.close()

	tr := newTracer()
	tenv, err := setupSvc(o.seed, o.smoke, tr)
	if err != nil {
		return nil, err
	}
	defer tenv.close()
	for _, d := range tenv.devs {
		s := tr.begin("Build", "community", "setup", -1)
		community.Build(d, core.NewCompiler(d).Omega)
		tr.end(s)
	}
	before := sampleProc()
	out, err := timed(tenv, third, tl)
	if err != nil {
		return nil, err
	}
	after := sampleProc()
	if err := finishSvc(o, res, tenv, out, tl, baseline); err != nil {
		return nil, err
	}
	jobSpans(tr, out)
	batchCounts, err := probeLayers(tr, tenv, out, tl)
	if err != nil {
		return nil, err
	}

	m := res.Metrics
	svcLayerMetrics(m, tr, out)
	probeMetrics(m, tr, batchCounts)
	procMetrics(m, before, after)
	if o.workload == wlDrain {
		// Primary timing of the drain: wall per job.
		a, b := plain.wall.Seconds()/float64(len(plain.jobs)), out.wall.Seconds()/float64(len(out.jobs))
		m["trace.overhead_pct"] = 100 * (b - a) / a
	} else if a := median(jobLatencies(plain)); a > 0 {
		m["trace.overhead_pct"] = 100 * (median(jobLatencies(out)) - a) / a
	}
	if share := m["loadgen.accounted_share"]; o.workload == wlOpen && math.Abs(share-1) > 0.1 {
		tl.fail("the stage spans account for %.3f of the job latency, want within a tenth of all of it", share)
	}
	if late := m["loadgen.lateness_ms_p99"]; late > ms(latenessLimit) {
		tl.fail("load generator ran %v ms late at p99 (limit %v): the run is invalid", late, latenessLimit)
	}
	tl.finish(res)
	return res, finishTrace(o, res, tr)
}

// jobSpans turns every observed job into spans: a root from due time to the
// terminal observation, and under it the submit round trip with its
// admission part, the queue, claim and exec stages, and the observer's lag.
func jobSpans(tr *tracer, out *svcOut) {
	for _, j := range out.jobs {
		if j.refused {
			continue
		}
		end := j.observed
		fin, finOK := j.finished()
		if end.IsZero() {
			end = fin
		}
		if end.IsZero() {
			continue
		}
		root := tr.add("job", "loadgen", j.id, -1, j.due, end)
		if j.sent.After(j.due) {
			tr.add("send_delay", "loadgen", j.id, root, j.due, j.sent)
		}
		tr.add("http_submit", "service", j.id, root, j.sent, j.acked)
		queued, okQ := j.stage(service.StateQueued)
		if okQ && queued.After(j.sent) {
			// The part of the submit round trip the job itself waits for:
			// parse, admission and the WAL append happen before it queues.
			tr.add("admit", "service", j.id, root, j.sent, queued)
		}
		batched, okB := j.stage(service.StateBatched)
		compiling, okC := j.stage(service.StateCompiling)
		if okQ && okB {
			// A backlogged job only starts to wait for a worker once
			// service has begun.
			if queued.Before(j.due) {
				queued = j.due
			}
			tr.add("queue", "service", j.id, root, queued, batched)
		}
		if okB && okC {
			tr.add("claim", "service", j.id, root, batched, compiling)
		}
		if okC && finOK {
			tr.add("exec", "service", j.id, root, compiling, fin)
		}
		if finOK && !j.observed.IsZero() {
			tr.add("observe_lag", "loadgen", j.id, root, fin, j.observed)
		}
	}
}

// spanDurations returns the duration in ms of every span recorded under
// layer.name.
func spanDurations(tr *tracer, layer, name string) []float64 {
	var xs []float64
	for _, s := range tr.spans {
		if s.Layer == layer && s.Name == name {
			xs = append(xs, ms(s.End-s.Start))
		}
	}
	return xs
}

// histMeanMS is the mean, in ms, of the observations a /metrics histogram
// (in seconds) gained between two snapshots.
func histMeanMS(after, before service.HistogramSnapshot) float64 {
	n := after.Count - before.Count
	if n <= 0 {
		return 0
	}
	return 1000 * (after.Sum - before.Sum) / float64(n)
}

// svcLayerMetrics derives the service, ccache, wal and loadgen metrics of a
// traced service run from its spans, its /metrics deltas and its WAL.
func svcLayerMetrics(m map[string]float64, tr *tracer, out *svcOut) {
	queue := spanDurations(tr, "service", "queue")
	claim := spanDurations(tr, "service", "claim")
	exec := spanDurations(tr, "service", "exec")
	submit := spanDurations(tr, "service", "http_submit")
	admit := spanDurations(tr, "service", "admit")
	lag := spanDurations(tr, "loadgen", "observe_lag")
	m["service.http_submit_us_p50"] = 1000 * median(submit)
	m["service.admit_us_p50"] = 1000 * median(admit)
	var gets []float64
	for _, d := range out.getDur {
		gets = append(gets, us(d))
	}
	m["service.http_get_us_p50"] = median(gets)
	m["service.queue_ms_p50"] = median(queue)
	m["service.queue_ms_p90"], _ = tailPercentile(queue, 0.90)
	m["service.claim_ms_p50"] = median(claim)
	m["service.exec_ms_p50"] = median(exec)
	m["service.exec_ms_p90"], _ = tailPercentile(exec, 0.90)

	a, b := out.snap, out.base
	m["service.compile_ms_mean"] = histMeanMS(a.LatencySeconds.Compile, b.LatencySeconds.Compile)
	m["service.sim_ms_mean"] = histMeanMS(a.LatencySeconds.Execute, b.LatencySeconds.Execute)
	if n := a.BatchSize.Count - b.BatchSize.Count; n > 0 {
		m["service.batch_size_mean"] = (a.BatchSize.Sum - b.BatchSize.Sum) / float64(n)
	}
	if n := a.Jobs.Completed - b.Jobs.Completed; n > 0 {
		m["service.colocated_share"] = float64(a.Batches.ColocatedJobs-b.Batches.ColocatedJobs) / float64(n)
	}
	m["service.batches"] = float64(a.Batches.Executed - b.Batches.Executed)
	m["service.fallback_batches"] = float64(a.Robustness.FallbackBatches - b.Robustness.FallbackBatches)
	m["service.retries"] = float64(a.Robustness.BatchRetries - b.Robustness.BatchRetries)
	m["service.rejected"] = float64(a.Jobs.Rejected - b.Jobs.Rejected)
	m["service.sched_errors"] = float64(a.Robustness.SchedulerErrors - b.Robustness.SchedulerErrors)
	m["service.shutdown_ms"] = ms(out.shutdown)

	hits, misses, coalesced := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses, a.Cache.Coalesced-b.Cache.Coalesced
	if total := hits + misses + coalesced; total > 0 {
		m["ccache.hit_ratio"] = float64(hits) / float64(total)
	}
	m["ccache.evictions"] = float64(a.Cache.Evictions - b.Cache.Evictions)
	m["ccache.coalesced"] = float64(coalesced)

	m["wal.replay_ms"] = ms(out.walStats.replay)
	m["wal.replay_records"] = float64(out.walStats.records)
	if n := a.Jobs.Accepted; n > 0 {
		m["wal.bytes_per_job"] = float64(out.walStats.bytes) / float64(n)
	}

	var late, submitDue []float64
	sent, done, failed, missed := 0, 0, 0, 0
	for _, j := range out.jobs {
		sent++
		late = append(late, ms(lateness(0, j.sent.Sub(j.due))))
		if !j.refused {
			submitDue = append(submitDue, ms(j.acked.Sub(j.due)))
		}
		ok := j.rec.State == service.StateDone
		if ok {
			done++
		} else {
			failed++
		}
		if !ok || j.observed.IsZero() || j.observed.Sub(j.due) > latencyLimit {
			missed++
		}
	}
	lat := jobLatencies(out)
	m["loadgen.sent"] = float64(sent)
	m["loadgen.ok"] = float64(done)
	m["loadgen.failed"] = float64(failed)
	m["loadgen.observe_lag_ms_p50"] = median(lag)
	m["loadgen.job_ms_p95"], _ = tailPercentile(lat, 0.95)
	m["loadgen.job_ms_p99"], _ = tailPercentile(lat, 0.99)
	if len(lag) > 0 {
		// Open loop only: the drain has no schedule to be late for, no
		// observer and no latency limit.
		m["loadgen.missed_share"] = float64(missed) / float64(sent)
		m["loadgen.lateness_ms_p99"], _ = tailPercentile(late, 0.99)
		m["loadgen.submit_ms_p50"] = median(submitDue)
		m["loadgen.submit_ms_p95"], _ = tailPercentile(submitDue, 0.95)
		if sum(lat) > 0 {
			// The submit round trip overlaps the stages after admission
			// (the daemon queues, and often finishes, a job before its
			// 202 is read), so only its admission part is summed.
			delay := spanDurations(tr, "loadgen", "send_delay")
			stages := sum(delay) + sum(admit) + sum(queue) + sum(claim) + sum(exec) + sum(lag)
			m["loadgen.accounted_share"] = stages / sum(lat)
		}
	}
}

// probeReps is how many times each layer probe visits every input.
const probeReps = 20

// probeLayers calls, inside spans, the public functions the daemon runs on
// its submit and claim paths, on this run's own job sources and queue
// windows, and fills the circuit, ccache, sched, fleet and wal timings.
func probeLayers(tr *tracer, env *svcEnv, out *svcOut, tl *tally) (batchCounts []int, err error) {
	dev := env.devs[0]
	comp := core.NewCompiler(dev)
	cache := ccache.New(1024)
	ctx := context.Background()
	policy, err := fleet.New("balanced")
	if err != nil {
		return nil, err
	}
	cands := make([]fleet.Candidate, len(env.devs))
	for d := range env.devs {
		cands[d] = fleet.Candidate{Chip: fleet.ChipOf(env.devs[d])}
	}
	for rep := 0; rep < probeReps; rep++ {
		for i := range env.sources {
			src := &env.sources[i]
			s := tr.begin("ParseQASMString", "circuit", src.name, -1)
			_, err := circuit.ParseQASMString(src.name, src.qasm)
			tr.end(s)
			if err != nil {
				tl.fail("probe: parse %s: %v", src.name, err)
			}
			s = tr.begin("QASMString", "circuit", src.name, -1)
			_ = circuit.QASMString(src.circ)
			tr.end(s)

			progs := []*circuit.Circuit{src.circ}
			s = tr.begin("Fingerprint", "ccache", src.name, -1)
			key := comp.CacheKey(progs, core.Separate).Fingerprint()
			tr.end(s)
			compute := func(context.Context) (any, error) { return src.name, nil }
			if rep == 0 {
				cache.GetOrCompute(ctx, key, compute) // store; the timed lookups below all hit
			}
			s = tr.begin("GetOrCompute.hit", "ccache", src.name, -1)
			_, _, outcome := cache.GetOrCompute(ctx, key, compute)
			tr.end(s)
			if outcome != ccache.OutcomeHit {
				tl.fail("probe: warm lookup of %s was a %s", src.name, outcome)
			}

			job := fleet.Job{Qubits: src.circ.NumQubits, CNOTs: src.circ.RawCNOTCount(), Gate1s: src.circ.Gate1Count()}
			s = tr.begin("Pick", "fleet", src.name, -1)
			picked := fleet.Pick(policy, cands, job)
			tr.end(s)
			if picked < 0 {
				tl.fail("probe: fleet.Pick placed %s nowhere", src.name)
			}
		}
	}

	// The EPST scheduler over each lookahead window of the job stream, with
	// the configuration a worker's claim uses.
	cfg := service.DefaultConfig()
	scfg := sched.Config{Epsilon: cfg.Epsilon, Lookahead: cfg.Lookahead, MaxColocate: cfg.MaxColocate, Omega: comp.Omega}
	tree := comp.Tree()
	for lo := 0; lo+cfg.Lookahead <= len(out.jobs); lo += cfg.Lookahead {
		window := make([]sched.Job, cfg.Lookahead)
		for i := range window {
			window[i] = sched.Job{ID: lo + i, Circ: out.jobs[lo+i].job.src.circ}
		}
		op := fmt.Sprintf("window-%d", lo)
		s := tr.begin("Schedule", "sched", op, -1)
		batches, err := sched.Schedule(dev, window, scfg)
		tr.end(s)
		if err != nil || len(batches) == 0 {
			tl.fail("probe: Schedule over jobs %d..%d: %d batches, %v", lo, lo+cfg.Lookahead, len(batches), err)
			continue
		}
		batchCounts = append(batchCounts, len(batches))
		trio := []*circuit.Circuit{window[0].Circ, window[1].Circ, window[2].Circ}
		s = tr.begin("ColocatedEPST", "sched", op, -1)
		_, err = sched.ColocatedEPST(dev, tree, trio)
		tr.end(s)
		// No feasible region for three programs is an answer, not a fault:
		// the scheduler then leaves the third job for a later batch.
		if err != nil && !errors.Is(err, partition.ErrNoRegion) {
			tl.fail("probe: ColocatedEPST: %v", err)
		}
		s = tr.begin("SeparateEPST", "sched", op, -1)
		_, err = sched.SeparateEPST(dev, tree, trio[0])
		tr.end(s)
		if err != nil {
			tl.fail("probe: SeparateEPST: %v", err)
		}
	}

	// The WAL: this run's own submit and terminal records appended to a
	// scratch log.
	dir, err := os.MkdirTemp("", "qubench-walprobe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	for _, j := range out.jobs {
		recs := []wal.Record{
			{Type: wal.TypeSubmit, ID: j.id, Seq: j.seq, Tenant: j.rec.Tenant, Name: j.job.src.name, QASM: j.job.src.qasm, SubmittedUnixNano: j.sent.UnixNano(), Arrival: j.rec.ArrivalSeconds},
			{Type: wal.TypeDone, ID: j.id, Backend: j.rec.Backend, PST: j.rec.PST, WaitSeconds: j.rec.WaitSeconds, ServiceSeconds: j.rec.ServiceSeconds},
		}
		for _, rec := range recs {
			s := tr.begin("Append", "wal", j.id, -1)
			aerr := log.Append(rec)
			tr.end(s)
			if aerr != nil {
				tl.fail("probe: wal append: %v", aerr)
			}
		}
	}
	return batchCounts, nil
}

// probeMetrics fills the metrics the probes measured. batchCounts holds,
// per Schedule call, how many batches the scheduler computed; the worker
// keeps only the first.
func probeMetrics(m map[string]float64, tr *tracer, batchCounts []int) {
	st := summarize(tr.spans)
	m["circuit.parse_us"] = us(st.meanSelf("circuit.ParseQASMString"))
	m["circuit.qasm_write_us"] = us(st.meanSelf("circuit.QASMString"))
	m["ccache.fingerprint_us"] = us(st.meanSelf("ccache.Fingerprint"))
	m["ccache.hit_us"] = us(st.meanSelf("ccache.GetOrCompute.hit"))
	m["fleet.pick_us"] = us(st.meanSelf("fleet.Pick"))
	m["sched.schedule_ms"] = ms(st.meanSelf("sched.Schedule"))
	m["sched.coepst_us"] = us(st.meanSelf("sched.ColocatedEPST"))
	m["sched.sepepst_us"] = us(st.meanSelf("sched.SeparateEPST"))
	m["wal.append_us"] = us(st.meanSelf("wal.Append"))
	m["community.build_ms"] = ms(st.meanSelf("community.Build"))
	var per, used []float64
	for _, n := range batchCounts {
		per = append(per, float64(n))
		used = append(used, 1/float64(n))
	}
	m["sched.batches_per_call"] = mean(per)
	m["sched.used_batch_share"] = mean(used)
}
