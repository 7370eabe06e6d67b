package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
)

// injector is the chaos suite's faultHook: each site carries at most
// one rule, which acts on a window of the site's visits. Every decision
// is a function of the per-site visit count alone, so a fixed request
// order injects the same faults on every run.
type injector struct {
	mu     sync.Mutex
	rules  map[string]faultRule // guarded by mu
	visits map[string]int       // guarded by mu
}

// faultRule acts on visits from..to of its site, counted from 1; to <= 0
// means every visit from on.
type faultRule struct {
	from, to int
	act      faultAction
	delay    time.Duration // actDelay
	value    float64       // actReplace
}

type faultAction int

const (
	actFail    faultAction = iota // the visit returns an error
	actPanic                      // the visit panics
	actDelay                      // the visit sleeps (bounded by its ctx), then succeeds
	actReplace                    // observe returns value instead of the measurement (observation sites only)
)

func newInjector() *injector {
	return &injector{rules: map[string]faultRule{}, visits: map[string]int{}}
}

func (in *injector) set(site string, r faultRule) *injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = r
	return in
}

// failVisits makes visits [from, to] of site fail with an error.
func (in *injector) failVisits(site string, from, to int) *injector {
	return in.set(site, faultRule{from: from, to: to, act: actFail})
}

// panicVisits makes visits [from, to] of site panic.
func (in *injector) panicVisits(site string, from, to int) *injector {
	return in.set(site, faultRule{from: from, to: to, act: actPanic})
}

// delayVisits delays visits [from, to] of site by d without failing them.
func (in *injector) delayVisits(site string, from, to int, d time.Duration) *injector {
	return in.set(site, faultRule{from: from, to: to, act: actDelay, delay: d})
}

// observeVisits substitutes v for the measurement on visits [from, to]
// of an observation site.
func (in *injector) observeVisits(site string, from, to int, v float64) *injector {
	return in.set(site, faultRule{from: from, to: to, act: actReplace, value: v})
}

// visitCount returns how many times site has been visited.
func (in *injector) visitCount(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.visits[site]
}

// next counts one visit to site and returns its number and the site's
// rule, if the rule covers it.
func (in *injector) next(site string) (int, *faultRule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.visits[site]++
	n := in.visits[site]
	r, ok := in.rules[site]
	if !ok || n < r.from || (r.to > 0 && n > r.to) {
		return n, nil
	}
	return n, &r
}

func (in *injector) visit(ctx context.Context, site string) error {
	n, r := in.next(site)
	if r == nil {
		return nil
	}
	switch r.act {
	case actPanic:
		panic(fmt.Sprintf("%s visit %d: injected panic", site, n))
	case actDelay:
		t := time.NewTimer(r.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return fmt.Errorf("%s visit %d: injected failure", site, n)
}

func (in *injector) observe(site string, measured float64) float64 {
	if _, r := in.next(site); r != nil && r.act == actReplace {
		return r.value
	}
	return measured
}

// newChaosService builds a single-backend service with the fault hook
// (nil for none), so visit counters advance in a deterministic order
// (two workers racing for the same site counter would make "fail visit
// N" ambiguous).
func newChaosService(t *testing.T, cfg Config, faults faultHook) *Service {
	t.Helper()
	svc, err := newService([]*arch.Device{arch.London()}, cfg, faults)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// chaosConfig keeps the breaker cooldown fast enough for tests.
func chaosConfig() Config {
	cfg := testConfig()
	cfg.BreakerCooldown = 50 * time.Millisecond
	return cfg
}

// submitOK submits and fails the test on anything but 202.
func submitOK(t *testing.T, url string) JobRecord {
	t.Helper()
	resp, body := submit(t, url, "bv", benchQASM(t, "bv_n3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var rec JobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// shutdownClean drains the service and asserts the workers exit (the
// goroutine-leak check: Shutdown blocks on the worker WaitGroup, so a
// wedged worker turns into a test timeout here).
func shutdownClean(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drained shutdown failed: %v", err)
	}
}

// TestChaosCompilerPanicIsolation injects a panic into the first batch
// compilation: only that batch's job may fail (with the recovered
// message), and the worker must keep serving the next job.
func TestChaosCompilerPanicIsolation(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().panicVisits(siteCompile, 1, 1))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	victim := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if victim.State != StateFailed {
		t.Fatalf("expected panicked batch to fail, got %+v", victim)
	}
	if !strings.Contains(victim.Error, "compiler panic") || !strings.Contains(victim.Error, "injected panic") {
		t.Fatalf("failed job should carry the recovered panic message, got %q", victim.Error)
	}

	survivor := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if survivor.State != StateDone {
		t.Fatalf("worker did not survive the panic: %+v", survivor)
	}
	if got := svc.Metrics().PanicsRecovered.Value(); got < 1 {
		t.Fatalf("PanicsRecovered = %d, want >= 1", got)
	}
	shutdownClean(t, svc)
}

// TestChaosSimulatorTimeout injects latency beyond the batch deadline
// into the simulator: the batch must fail with a deadline error (and
// count as a timeout) while the next job runs normally.
func TestChaosSimulatorTimeout(t *testing.T) {
	cfg := chaosConfig()
	cfg.BatchTimeout = 100 * time.Millisecond
	svc := newChaosService(t, cfg, newInjector().delayVisits(siteSimulate, 1, 1, 10*time.Second))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	victim := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if victim.State != StateFailed {
		t.Fatalf("expected timed-out batch to fail, got %+v", victim)
	}
	if !strings.Contains(victim.Error, "deadline") {
		t.Fatalf("failed job should mention the deadline, got %q", victim.Error)
	}
	if got := svc.Metrics().BatchTimeouts.Value(); got != 1 {
		t.Fatalf("BatchTimeouts = %d, want 1", got)
	}

	survivor := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if survivor.State != StateDone {
		t.Fatalf("worker did not survive the timeout: %+v", survivor)
	}
	shutdownClean(t, svc)
}

// TestChaosErrorBurstTripsBreaker drives three consecutive permanent
// compile failures through a threshold-3 breaker: it must open
// (visible in the /v1/backends row, as breaker.state and breaker_open,
// and in the metrics gauge), then close again after the cooldown once
// a healthy probe batch succeeds.
func TestChaosErrorBurstTripsBreaker(t *testing.T) {
	cfg := chaosConfig()
	cfg.BreakerThreshold = 3
	svc := newChaosService(t, cfg, newInjector().failVisits(siteCompile, 1, 3))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		rec := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
		if rec.State != StateFailed || rec.Error == "" {
			t.Fatalf("burst job %d should fail with an error, got %+v", i, rec)
		}
	}
	var backends []BackendStatus
	if code := getJSON(t, ts.URL+"/v1/backends", &backends); code != http.StatusOK {
		t.Fatalf("backends: HTTP %d", code)
	}
	if backends[0].Breaker.State != breakerOpen || !backends[0].BreakerOpen {
		t.Fatalf("breaker should be open after 3 failures, got %+v (breaker_open %v)", backends[0].Breaker, backends[0].BreakerOpen)
	}
	if got := svc.Metrics().BreakerTrips.Value(); got != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", got)
	}
	if got := svc.Metrics().OpenBreakers.Value(); got != 1 {
		t.Fatalf("OpenBreakers = %d, want 1", got)
	}

	// The backend is healthy again (the burst window has passed): after
	// the cooldown the half-open probe batch must close the breaker.
	probe := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if probe.State != StateDone {
		t.Fatalf("probe batch should succeed, got %+v", probe)
	}
	if code := getJSON(t, ts.URL+"/v1/backends", &backends); code != http.StatusOK {
		t.Fatalf("backends: HTTP %d", code)
	}
	if backends[0].Breaker.State != breakerClosed || backends[0].Breaker.Opens != 1 || backends[0].BreakerOpen {
		t.Fatalf("breaker should have closed after the probe, got %+v (breaker_open %v)", backends[0].Breaker, backends[0].BreakerOpen)
	}
	if got := svc.Metrics().OpenBreakers.Value(); got != 0 {
		t.Fatalf("OpenBreakers = %d after recovery, want 0", got)
	}
	shutdownClean(t, svc)
}

// TestChaosSchedulerPanicFailsHead injects a panic into batch claiming:
// the head job is failed (so the queue cannot livelock on it) and the
// worker loop keeps serving.
func TestChaosSchedulerPanicFailsHead(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().panicVisits(siteSchedule, 1, 1))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	victim := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if victim.State != StateFailed || !strings.Contains(victim.Error, "claim panic") {
		t.Fatalf("head job should fail with the claim panic, got %+v", victim)
	}
	survivor := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if survivor.State != StateDone {
		t.Fatalf("worker did not survive the claim panic: %+v", survivor)
	}
	shutdownClean(t, svc)
}

// TestChaosSchedulerErrorFallback injects a scheduler error: the batch
// degrades to head-of-line (the job still executes) and the error is
// surfaced in the metrics and the backend status instead of being
// swallowed.
func TestChaosSchedulerErrorFallback(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().failVisits(siteSchedule, 1, 1))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rec := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if rec.State != StateDone {
		t.Fatalf("head-of-line fallback should still run the job, got %+v", rec)
	}
	if got := svc.Metrics().SchedulerErrors.Value(); got != 1 {
		t.Fatalf("SchedulerErrors = %d, want 1", got)
	}
	var backends []BackendStatus
	if code := getJSON(t, ts.URL+"/v1/backends", &backends); code != http.StatusOK {
		t.Fatalf("backends: HTTP %d", code)
	}
	if backends[0].SchedulerErrors != 1 || !strings.Contains(backends[0].LastSchedError, "injected failure") {
		t.Fatalf("scheduler error not surfaced in backend status: %+v", backends[0])
	}
	shutdownClean(t, svc)
}

// TestChaosCacheLookupPanicContained injects a panic into the first
// compile-cache lookup: only that batch fails (with the recovered
// message) and the worker keeps serving — a faulted cache can never
// unwind the worker loop. The follow-up job recompiles from scratch
// (the panicked call stored nothing) and succeeds.
func TestChaosCacheLookupPanicContained(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().panicVisits(siteCacheLookup, 1, 1))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	victim := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if victim.State != StateFailed || !strings.Contains(victim.Error, "compiler panic") {
		t.Fatalf("cache-lookup panic should fail only its batch, got %+v", victim)
	}
	if got := svc.Metrics().PanicsRecovered.Value(); got < 1 {
		t.Fatalf("PanicsRecovered = %d, want >= 1", got)
	}

	survivor := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if survivor.State != StateDone {
		t.Fatalf("worker did not survive the cache panic: %+v", survivor)
	}
	shutdownClean(t, svc)
}

// TestChaosCacheLookupErrorBypasses injects an error into the first
// cache lookup: the cache steps aside (the compile runs uncached and is
// not stored) and the job still succeeds — a cache outage degrades to
// the uncached path, never to a failed job.
func TestChaosCacheLookupErrorBypasses(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().failVisits(siteCacheLookup, 1, 1))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	first := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if first.State != StateDone {
		t.Fatalf("bypassed job should still succeed, got %+v", first)
	}
	m := svc.Metrics()
	if m.CacheHits.Value() != 0 || m.CacheMisses.Value() != 0 {
		t.Fatalf("bypass must not move cache counters: hits=%d misses=%d",
			m.CacheHits.Value(), m.CacheMisses.Value())
	}

	// The bypassed compile stored nothing, so the identical follow-up
	// is a genuine miss, and only the third request hits.
	second := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	third := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if second.State != StateDone || third.State != StateDone {
		t.Fatalf("follow-up jobs: %+v / %+v", second, third)
	}
	if m.CacheMisses.Value() != 1 || m.CacheHits.Value() != 1 {
		t.Fatalf("after bypass+miss+hit: hits=%d misses=%d, want 1/1",
			m.CacheHits.Value(), m.CacheMisses.Value())
	}
	shutdownClean(t, svc)
}

// TestChaosCacheStoreErrorSkipsStore injects an error into the first
// cache store: the computed result still serves its own batch (the job
// succeeds) but is not retained, so the next identical batch misses
// again and only the one after that hits.
func TestChaosCacheStoreErrorSkipsStore(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().failVisits(siteCacheStore, 1, 1))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if rec := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second); rec.State != StateDone {
			t.Fatalf("job %d should succeed despite the store fault, got %+v", i, rec)
		}
	}
	m := svc.Metrics()
	if m.CacheMisses.Value() != 2 || m.CacheHits.Value() != 1 {
		t.Fatalf("store fault should cost one extra miss: hits=%d misses=%d, want 1/2",
			m.CacheHits.Value(), m.CacheMisses.Value())
	}
	shutdownClean(t, svc)
}

// TestChaosCacheStorePanicContained injects a panic into the first
// cache store: the worker recovers (the batch fails with the message,
// no waiter can hang on the in-flight entry) and the key stays
// retryable — the next identical batch compiles fresh and succeeds.
func TestChaosCacheStorePanicContained(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().panicVisits(siteCacheStore, 1, 1))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	victim := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if victim.State != StateFailed || !strings.Contains(victim.Error, "compiler panic") {
		t.Fatalf("store panic should fail only its batch, got %+v", victim)
	}
	survivor := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
	if survivor.State != StateDone {
		t.Fatalf("worker did not survive the store panic: %+v", survivor)
	}
	if got := svc.Metrics().CacheHits.Value(); got != 0 {
		t.Fatalf("panicked store must not populate the cache: hits=%d", got)
	}
	shutdownClean(t, svc)
}

// TestChaosNaNLatencyObservation is the metrics-poisoning regression
// test: every latency reading is replaced with NaN via the observation
// hook, a job runs to completion, and /metrics must still serve valid
// JSON with every histogram field finite — the poisoned samples land in
// the dropped counters instead of sum/mean/min/max.
func TestChaosNaNLatencyObservation(t *testing.T) {
	cfg := chaosConfig()
	svc := newChaosService(t, cfg, newInjector().observeVisits(siteLatency, 1, 0, math.NaN()))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if rec := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second); rec.State != StateDone {
		t.Fatalf("job should succeed, got %+v", rec)
	}

	// encoding/json refuses non-finite floats, so a poisoned histogram
	// would turn this decode into an HTTP-layer failure.
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	hists := map[string]HistogramSnapshot{
		"queue":   snap.LatencySeconds.Queue,
		"compile": snap.LatencySeconds.Compile,
		"execute": snap.LatencySeconds.Execute,
		"total":   snap.LatencySeconds.Total,
		"lookup":  snap.Cache.LookupSeconds,
	}
	dropped := int64(0)
	for name, h := range hists {
		for field, v := range map[string]float64{
			"sum": h.Sum, "mean": h.Mean, "min": h.Min, "max": h.Max,
			"p50": h.P50, "p90": h.P90, "p99": h.P99,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s.%s is non-finite: %v", name, field, v)
			}
		}
		if h.Count != 0 {
			t.Errorf("%s recorded %d NaN samples as observations", name, h.Count)
		}
		dropped += h.Dropped
	}
	if dropped == 0 {
		t.Fatal("no histogram reported dropped samples; the NaN hook did not engage")
	}
	shutdownClean(t, svc)
}
