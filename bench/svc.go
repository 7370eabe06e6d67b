package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/nisqbench"
	"repro/internal/service"
	"repro/internal/wal"
)

// Sizing of the two service workloads. The drain backlog and the open-loop
// window scale with --seconds so that one run measures for about that long
// on the reference box.
const (
	// drainJobsPerSecond sizes the backlog: the unmodified daemon drains
	// the fixed job order at 10 to 11 jobs a second on the 2-core reference
	// box.
	drainJobsPerSecond = 32.0 / 3
	// drainOrderSeed fixes svc_drain's job order for every --seed. Which
	// jobs share a lookahead window decides which 3-program batches form,
	// and a batch of three 5-qubit programs costs a 2^15 statevector where
	// three 3-qubit ones cost 2^9: with a seed-shuffled order the same 200
	// jobs drained at 10.4 to 12.8 jobs/s. --seed still moves every
	// Monte-Carlo seed of the drain; svc_open carries the order variation.
	drainOrderSeed = 0
	// openRate is the fixed offered load of svc_open in jobs per second,
	// half the knee: probes held p50 near 4 ms up to 40 jobs/s, showed a
	// 1.5 s p99 at 60 and collapsed at 80.
	openRate = 30.0
	// latencyLimit is the job latency beyond which svc_open counts a job
	// as missed.
	latencyLimit = 100 * time.Millisecond
	// pollTick is how often the observer polls outstanding jobs: the
	// resolution of every job latency svc_open reports.
	pollTick = time.Millisecond
	// observeDeadline is how long after the last job was due the observer
	// keeps polling before it counts the rest as unobserved.
	observeDeadline = 5 * time.Second
	// svcTailPercentile is the percentile op_ms_tail reports for the
	// service workloads. Over six seeds of svc_open p80 moved by a tenth
	// like p50 did, p90 by a fifth and p95 by two thirds, so p80 is the
	// highest one a bound can hold; p95 and p99 are printed by the traced
	// run as loadgen.job_ms_p95/p99.
	svcTailPercentile = 0.80
	// latenessLimit invalidates an open-loop run whose generator fell
	// behind its own schedule.
	latenessLimit = 20 * time.Millisecond
)

// svcTenants is the tenant table of both service workloads: two tenants,
// fair-queueing weight 2:1, two of every three jobs from the heavier one.
var svcTenants = []service.Tenant{
	{ID: "tenant-a", Key: "key-a", Weight: 2},
	{ID: "tenant-b", Key: "key-b", Weight: 1},
}

// svcSource is one Table I program as a tenant would submit it.
type svcSource struct {
	name string
	qasm string
	circ *circuit.Circuit
}

// svcJob is one submission of the generated load.
type svcJob struct {
	src *svcSource
	key string // tenant API key
}

// svcEnv is a constructed, not yet started daemon behind an HTTP server.
type svcEnv struct {
	devs    []*arch.Device
	sources []svcSource
	svc     *service.Service
	srv     *httptest.Server
	dir     string // data dir holding the WAL
}

// setupSvc builds the backends, the job sources and the daemon: DefaultConfig
// with the WAL on in a fresh temp dir, a queue large enough for the whole
// backlog, unbounded job history and batch traces deep enough to read every
// executed batch back.
func setupSvc(seed int64, smoke bool, tr *tracer) (*svcEnv, error) {
	root := tr.begin("setup", "harness", "setup", -1)
	defer tr.end(root)
	env := &svcEnv{}
	for _, name := range []string{"ibmq16", "tokyo"} {
		d, err := arch.ByName(name, calDay)
		if err != nil {
			return nil, err
		}
		env.devs = append(env.devs, d)
	}
	names := append(nisqbench.ByClass(nisqbench.Tiny), nisqbench.ByClass(nisqbench.Small)...)
	if smoke {
		names = nisqbench.ByClass(nisqbench.Tiny)
	}
	for _, name := range names {
		c, err := nisqbench.Get(name)
		if err != nil {
			return nil, err
		}
		env.sources = append(env.sources, svcSource{name: name, qasm: circuit.QASMString(c), circ: c})
	}
	dir, err := os.MkdirTemp("", "qubench-wal-")
	if err != nil {
		return nil, err
	}
	env.dir = dir
	cfg := service.DefaultConfig()
	cfg.QueueSize = 1024
	cfg.MaxJobHistory = -1
	cfg.TraceDepth = 1 << 16
	cfg.DataDir = dir
	cfg.Tenants = svcTenants
	cfg.Seed = seed + 1 // base of every worker's Monte-Carlo seeds
	if env.svc, err = service.New(env.devs, cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env.srv = httptest.NewServer(env.svc.Handler())
	// The workers build these lazily on their first batch; build them now
	// so the timed phase starts from a finished set-up.
	for _, d := range env.devs {
		core.NewCompiler(d).Tree()
		d.Hops()
	}
	return env, nil
}

// stop shuts the daemon down if the run has not already and closes the
// listener; the data dir stays for the WAL replay check.
func (e *svcEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = e.svc.Shutdown(ctx) // idempotent; a failed drain has already failed the run
	e.srv.Close()
}

// close stops the daemon and removes the data dir.
func (e *svcEnv) close() {
	e.stop()
	os.RemoveAll(e.dir)
}

// svcJobs generates n jobs: blocks in which every source appears once, in a
// seed-shuffled order, so every lookahead window sees the same program mix
// whatever the seed and only the order inside it varies.
func svcJobs(sources []svcSource, seed int64, n int) []svcJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]svcJob, 0, n)
	for len(jobs) < n {
		for _, i := range rng.Perm(len(sources)) {
			if len(jobs) == n {
				break
			}
			key := svcTenants[0].Key
			if len(jobs)%3 == 2 {
				key = svcTenants[1].Key
			}
			jobs = append(jobs, svcJob{src: &sources[i], key: key})
		}
	}
	return jobs
}

// apiClient is one HTTP connection to the daemon.
type apiClient struct {
	hc   *http.Client
	base string
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   time.Minute,
	}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *apiClient) do(method, path, key string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON GETs path and decodes a 200 body into v.
func (c *apiClient) getJSON(path, key string, v any) error {
	status, data, err := c.do(http.MethodGet, path, key, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// submit POSTs one job and returns the admitted record.
func (c *apiClient) submit(j svcJob) (service.JobRecord, error) {
	var rec service.JobRecord
	body, err := json.Marshal(service.SubmitRequest{Name: j.src.name, QASM: j.src.qasm})
	if err != nil {
		return rec, err
	}
	status, data, err := c.do(http.MethodPost, "/v1/jobs", j.key, body)
	if err != nil {
		return rec, err
	}
	if status != http.StatusAccepted {
		return rec, fmt.Errorf("POST /v1/jobs: status %d: %s", status, strings.TrimSpace(string(data)))
	}
	return rec, json.Unmarshal(data, &rec)
}

// events reads a terminal job's whole lifecycle from the SSE endpoint, which
// replays the history and closes after the terminal event.
func (c *apiClient) events(id, key string) ([]service.JobEvent, error) {
	status, data, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/events", key, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET events %s: status %d", id, status)
	}
	var out []service.JobEvent
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.JobEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// jobObs is everything the load generator learned about one job.
type jobObs struct {
	job      svcJob
	id       string
	seq      int
	due      time.Time // when the request was due (== sent for the drain)
	sent     time.Time
	acked    time.Time // 202 received
	observed time.Time // first poll that saw a terminal state (open loop)
	rec      service.JobRecord
	events   []service.JobEvent
	refused  bool
}

// stage returns the instant of the first event in the given state.
func (j *jobObs) stage(s service.State) (time.Time, bool) {
	for _, ev := range j.events {
		if ev.State == s {
			return ev.At, true
		}
	}
	return time.Time{}, false
}

// finished is when the daemon marked the job terminal.
func (j *jobObs) finished() (time.Time, bool) {
	if n := len(j.events); n > 0 && j.events[n-1].State.Terminal() {
		return j.events[n-1].At, true
	}
	return time.Time{}, false
}

// svcOut is one service run, reduced.
type svcOut struct {
	jobs     []*jobObs
	wall     time.Duration // drain: Start -> Shutdown returned; open: send window
	snap     service.MetricsSnapshot
	base     service.MetricsSnapshot // /metrics before the timed phase
	batches  []cloudsim.BatchRecord  // executed batches holding timed jobs
	shutdown time.Duration           // last job done -> Shutdown returned
	getDur   []time.Duration         // GET /v1/jobs/{id} round trips
	walStats walStats
}

type walStats struct {
	records, pending, terminal int
	bytes                      int64
	replay                     time.Duration
}

// collect reads back every job's final record and lifecycle, the batch
// traces and /metrics, and applies the per-job output checks: every accepted
// job done with a PST in (0,1].
func collect(c *apiClient, tl *tally, out *svcOut, firstSeq int) error {
	for _, j := range out.jobs {
		if j.refused {
			continue
		}
		start := time.Now()
		err := c.getJSON("/v1/jobs/"+j.id, j.job.key, &j.rec)
		out.getDur = append(out.getDur, time.Since(start))
		if err != nil {
			tl.fail("%s: %v", j.id, err)
			continue
		}
		// The event stream of a job that is not terminal would stay open.
		if j.rec.State.Terminal() {
			if j.events, err = c.events(j.id, j.job.key); err != nil {
				tl.fail("%s: %v", j.id, err)
			}
		}
		if j.rec.State != service.StateDone {
			tl.fail("%s (%s): state %s: %s", j.id, j.job.src.name, j.rec.State, j.rec.Error)
		} else if !(j.rec.PST > 0 && j.rec.PST <= 1) {
			tl.fail("%s (%s): PST %v outside (0,1]", j.id, j.job.src.name, j.rec.PST)
		}
	}
	if err := c.getJSON("/metrics", "", &out.snap); err != nil {
		return err
	}
	var backends []service.BackendStatus
	if err := c.getJSON("/v1/backends", svcTenants[0].Key, &backends); err != nil {
		return err
	}
	for _, b := range backends {
		for _, rec := range b.RecentBatches {
			if len(rec.JobIDs) > 0 && rec.JobIDs[0] >= firstSeq {
				out.batches = append(out.batches, rec)
			}
		}
	}
	sort.Slice(out.batches, func(a, b int) bool { return out.batches[a].JobIDs[0] < out.batches[b].JobIDs[0] })
	return nil
}

// replayWAL reopens the finished run's log the way a restarting daemon
// would and checks it replays to exactly one terminal record per job and
// nothing pending.
func replayWAL(tl *tally, dir string, wantJobs int) (walStats, error) {
	var st walStats
	path := filepath.Join(dir, "wal.jsonl")
	if fi, err := os.Stat(path); err == nil {
		st.bytes = fi.Size()
	}
	start := time.Now()
	log, rep, err := wal.Open(path)
	st.replay = time.Since(start)
	if err != nil {
		return st, err
	}
	defer log.Close()
	pending, terminal := rep.Pending()
	st.records, st.pending, st.terminal = len(rep.Records), len(pending), len(terminal)
	if st.pending != 0 || st.terminal != wantJobs || rep.Skipped != 0 {
		tl.fail("WAL replays to %d terminal, %d pending, %d skipped; want %d, 0, 0", st.terminal, st.pending, rep.Skipped, wantJobs)
	}
	return st, nil
}

// checkQuiet verifies the run left no goroutine behind: the count returns
// to what it was before the daemon and its server existed.
func checkQuiet(tl *tally, baseline int) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		tl.fail("%d goroutines left behind (baseline %d)", n-baseline, baseline)
	}
}

// drain is the timed phase of svc_drain on a fresh environment: post the
// whole backlog over one connection before Start, then time Start ->
// Shutdown.
func drain(env *svcEnv, jobs []svcJob, tl *tally) (*svcOut, error) {
	c := newAPIClient(env.srv.URL)
	defer c.close()
	out := &svcOut{}
	if err := c.getJSON("/metrics", "", &out.base); err != nil {
		return nil, err
	}
	for _, j := range jobs {
		tl.op()
		o := &jobObs{job: j, sent: time.Now()}
		rec, err := c.submit(j)
		o.acked = time.Now()
		if err != nil {
			o.refused = true
			tl.fail("%s: %v", j.src.name, err)
		}
		o.id, o.seq = rec.ID, rec.Seq
		out.jobs = append(out.jobs, o)
	}
	runtime.GC()
	start := time.Now()
	env.svc.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	err := env.svc.Shutdown(ctx)
	end := time.Now()
	out.wall = end.Sub(start)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	for _, o := range out.jobs {
		o.due = start // a backlogged tenant waits from the moment service begins
	}
	if err := collect(c, tl, out, 0); err != nil {
		return nil, err
	}
	last := start
	for _, o := range out.jobs {
		if t, ok := o.finished(); ok && t.After(last) {
			last = t
		}
	}
	out.shutdown = end.Sub(last)
	return out, nil
}

// runDrain is svc_drain.
func runDrain(o runOpts) (*runResult, error) {
	return runSvc(o, func(env *svcEnv, seconds float64, tl *tally) (*svcOut, error) {
		n := 10 * int(math.Round(seconds*drainJobsPerSecond/10))
		if n < 12 {
			n = 12
		}
		return drain(env, svcJobs(env.sources, drainOrderSeed, n), tl)
	})
}

// openLoop is the timed phase of svc_open on a started, warmed daemon: one
// submitter connection sends each job when it is due, whatever happened to
// the earlier ones; one observer connection polls every outstanding job on a
// fixed tick.
func openLoop(env *svcEnv, jobs []svcJob, due []time.Duration, window time.Duration, firstSeq int, tl *tally) (*svcOut, error) {
	sub, obs := newAPIClient(env.srv.URL), newAPIClient(env.srv.URL)
	defer sub.close()
	defer obs.close()
	out := &svcOut{jobs: make([]*jobObs, len(jobs))}
	if err := sub.getJSON("/metrics", "", &out.base); err != nil {
		return nil, err
	}
	runtime.GC()
	accepted := make(chan *jobObs, len(jobs)) // sized to the number of sends
	origin := time.Now().Add(10 * time.Millisecond)
	go func() {
		defer close(accepted)
		for i, j := range jobs {
			o := &jobObs{job: j, due: origin.Add(due[i])}
			out.jobs[i] = o
			time.Sleep(time.Until(o.due))
			o.sent = time.Now()
			rec, err := sub.submit(j)
			o.acked = time.Now()
			if err != nil {
				o.refused = true
				continue
			}
			o.id, o.seq = rec.ID, rec.Seq
			accepted <- o
		}
	}()
	deadline := origin.Add(due[len(due)-1] + observeDeadline)
	var outstanding []*jobObs
	sending := true
	tick := time.NewTicker(pollTick)
	defer tick.Stop()
	for (sending || len(outstanding) > 0) && time.Now().Before(deadline) {
		<-tick.C
	recv:
		for sending {
			select {
			case o, ok := <-accepted:
				if !ok {
					sending = false
					break recv
				}
				outstanding = append(outstanding, o)
			default:
				break recv
			}
		}
		keep := outstanding[:0]
		for _, o := range outstanding {
			var rec service.JobRecord
			if err := obs.getJSON("/v1/jobs/"+o.id, o.job.key, &rec); err == nil && rec.State.Terminal() {
				o.observed = time.Now()
				continue
			}
			keep = append(keep, o)
		}
		outstanding = keep
	}
	for range accepted {
		// The deadline passed mid-send: let the submitter finish so it is
		// not left behind; what it still sends counts as unobserved.
	}
	out.wall = window
	for _, o := range out.jobs {
		tl.op()
		switch {
		case o.refused:
			tl.fail("%s: refused", o.job.src.name)
		case o.observed.IsZero():
			tl.fail("%s (%s): not terminal %v after the last job was due", o.id, o.job.src.name, observeDeadline)
		}
	}
	if err := collect(sub, tl, out, firstSeq); err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := env.svc.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	out.shutdown = time.Since(start)
	return out, nil
}

// warm starts the daemon and pushes every source through it twice, one job
// at a time, so the compile cache and every lazily built artifact are in
// place before timing. It returns how many jobs it used.
func warm(env *svcEnv) (int, error) {
	env.svc.Start()
	c := newAPIClient(env.srv.URL)
	defer c.close()
	n := 0
	for round := 0; round < 2; round++ {
		for i := range env.sources {
			j := svcJob{src: &env.sources[i], key: svcTenants[0].Key}
			rec, err := c.submit(j)
			if err != nil {
				return n, fmt.Errorf("warm-up: %w", err)
			}
			n++
			for deadline := time.Now().Add(time.Minute); ; {
				var cur service.JobRecord
				if err := c.getJSON("/v1/jobs/"+rec.ID, j.key, &cur); err != nil {
					return n, fmt.Errorf("warm-up: %w", err)
				}
				if cur.State.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					return n, fmt.Errorf("warm-up: %s still %s after a minute", rec.ID, cur.State)
				}
				time.Sleep(pollTick)
			}
		}
	}
	return n, nil
}

// runOpen is svc_open.
func runOpen(o runOpts) (*runResult, error) {
	return runSvc(o, func(env *svcEnv, seconds float64, tl *tally) (*svcOut, error) {
		warmed, err := warm(env)
		if err != nil {
			return nil, err
		}
		window := time.Duration(seconds * float64(time.Second))
		n := int(math.Round(seconds * openRate))
		rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
		return openLoop(env, svcJobs(env.sources, o.seed, n), arrivalSchedule(rng, n, window), window, warmed, tl)
	})
}

// jobLatencies returns due -> terminal in ms for every job that finished:
// the observer's first terminal poll for the open loop, the daemon's own
// terminal event for the drain.
func jobLatencies(out *svcOut) []float64 {
	var xs []float64
	for _, j := range out.jobs {
		end := j.observed
		if end.IsZero() {
			if t, ok := j.finished(); ok && j.rec.State == service.StateDone {
				end = t
			}
		}
		if !end.IsZero() {
			xs = append(xs, ms(end.Sub(j.due)))
		}
	}
	return xs
}

// svcFingerprint hashes a service run's outputs: every executed batch's
// composition, CNOTs and depth, and every job's PST bits.
func svcFingerprint(out *svcOut) string {
	var lines []string
	for _, b := range out.batches {
		lines = append(lines, fmt.Sprintf("batch %v %d %d %s", b.JobIDs, b.CNOTs, b.Depth, b.Strategy))
	}
	for _, j := range out.jobs {
		lines = append(lines, fmt.Sprintf("job %d %s %s %016x", j.seq, j.job.src.name, j.rec.Backend, math.Float64bits(j.rec.PST)))
	}
	return fingerprint(lines)
}

// runSvc drives one service workload: set-up, the timed phase, the output
// checks every service run shares, and the metrics of the requested mode.
// The traced run is a shorter timed phase followed by the layer probes.
func runSvc(o runOpts, timed func(env *svcEnv, seconds float64, tl *tally) (*svcOut, error)) (*runResult, error) {
	res := newResult(o, o.workload == wlDrain)
	baseline := runtime.NumGoroutine()
	setups := &setupSampler[*svcEnv]{
		smoke:   o.smoke,
		setup:   func() (*svcEnv, error) { return setupSvc(o.seed, o.smoke, nil) },
		discard: (*svcEnv).close,
	}
	env, err := setups.sample()
	if err != nil {
		return nil, err
	}
	defer env.close()
	var tl tally
	if o.trace {
		return traceSvc(o, res, env, timed, &tl, baseline)
	}
	before := sampleProc()
	out, err := timed(env, o.seconds, &tl)
	if err != nil {
		return nil, err
	}
	after := sampleProc()
	if err := finishSvc(o, res, env, out, &tl, baseline); err != nil {
		return nil, err
	}
	m := res.Metrics
	// One operation is one job: due -> terminal under the open loop.
	lat := jobLatencies(out)
	tail, used := tailPercentile(lat, svcTailPercentile)
	if o.workload == wlDrain {
		// Under the backlog it is the job's time in service (claim ->
		// done, the record's service_seconds): its queue wait there only
		// measures how much backlog was posted ahead of it. Jobs of one
		// batch share one service time, so any single percentile is one
		// batch's wall time; the mean over the slowest fifth averages a
		// dozen batches instead.
		lat = lat[:0]
		for _, j := range out.jobs {
			if j.rec.State == service.StateDone {
				lat = append(lat, 1000*j.rec.ServiceSeconds)
			}
		}
		tail = tailMean(lat, svcTailPercentile)
	}
	done, within, pstSum := 0, 0, 0.0
	for _, j := range out.jobs {
		if j.rec.State != service.StateDone {
			continue
		}
		done++
		pstSum += j.rec.PST
		if !j.observed.IsZero() && j.observed.Sub(j.due) <= latencyLimit {
			within++
		}
	}
	cnots, depth := 0, 0
	for _, b := range out.batches {
		cnots += b.CNOTs
		depth += b.Depth
	}
	if m[mSetup], err = setups.resample(); err != nil {
		return nil, err
	}
	m[mOpMid] = median(lat)
	m[mOpTail] = tail
	if o.workload == wlOpen {
		// Goodput: jobs that met the latency limit, per second of window.
		m[mWork] = float64(within) / out.wall.Seconds()
		res.info("missed_share", 1-float64(within)/float64(len(out.jobs)), unitRatio)
		res.info("poll_tick_ms", ms(pollTick), "ms")
		res.info("latency_limit_ms", ms(latencyLimit), "ms")
	} else {
		m[mWork] = float64(done) / out.wall.Seconds()
	}
	if done > 0 {
		m[mPST] = pstSum / float64(done)
	}
	m[mCNOTs] = float64(cnots)
	m[mDepth] = float64(depth)
	if len(out.batches) > 0 {
		m[mTRF] = float64(done) / float64(len(out.batches))
	}
	res.info("jobs", float64(len(out.jobs)), unitCount)
	res.info("latency_samples", float64(len(lat)), unitCount)
	res.info("op_ms_tail_percentile", used*100, "%")
	res.info("batches", float64(len(out.batches)), unitCount)
	res.info("timed_wall_s", out.wall.Seconds(), "s")
	res.info("cpu_s", (after.cpu - before.cpu).Seconds(), "s")
	tl.finish(res)
	return res, nil
}

// finishSvc closes the environment and applies the checks every service run
// shares: job count = sent - refused, trf equal to the daemon's own mean
// batch size, the WAL replaying to one terminal record per job, and nothing
// left running.
func finishSvc(o runOpts, res *runResult, env *svcEnv, out *svcOut, tl *tally, baseline int) error {
	refused := 0
	for _, j := range out.jobs {
		if j.refused {
			refused++
		}
	}
	accepted := out.snap.Jobs.Accepted - out.base.Jobs.Accepted
	if int(accepted) != len(out.jobs)-refused {
		tl.fail("daemon accepted %d jobs, load generator sent %d and saw %d refused", accepted, len(out.jobs), refused)
	}
	batched := 0
	for _, b := range out.batches {
		batched += len(b.JobIDs)
	}
	if o.workload == wlDrain && len(out.batches) > 0 {
		trf := float64(batched) / float64(len(out.batches))
		if math.Abs(trf-out.snap.BatchSize.Mean) > 1e-9 {
			tl.fail("trf %v from the batch traces, mean batch size %v from /metrics", trf, out.snap.BatchSize.Mean)
		}
	}
	env.stop()
	var err error
	if out.walStats, err = replayWAL(tl, env.dir, int(out.snap.Jobs.Accepted)); err != nil {
		return err
	}
	checkQuiet(tl, baseline)
	res.Fingerprint = svcFingerprint(out)
	return nil
}
