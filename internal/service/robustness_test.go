package service

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
)

// TestJobHistoryEviction caps the terminal-record store at 3 and runs
// 5 jobs through: the oldest two records must be evicted (counted and
// 404 on GET) while the newest three stay queryable.
func TestJobHistoryEviction(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobHistory = 3
	svc := newChaosService(t, cfg, nil)
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ids := make([]string, 5)
	for i := range ids {
		rec := submitOK(t, ts.URL)
		ids[i] = rec.ID
		if final := waitTerminal(t, ts.URL, rec.ID, 60*time.Second); final.State != StateDone {
			t.Fatalf("job %d failed: %+v", i, final)
		}
	}
	if got := svc.Metrics().JobsEvicted.Value(); got != 2 {
		t.Fatalf("JobsEvicted = %d, want 2", got)
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted job %s: HTTP %d, want 404", id, resp.StatusCode)
		}
	}
	for _, id := range ids[2:] {
		var rec JobRecord
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &rec); code != http.StatusOK {
			t.Fatalf("retained job %s: HTTP %d, want 200", id, code)
		}
	}
	shutdownClean(t, svc)
}

// TestBatchAvgPST checks checkPSTs, the guard between the simulator and
// the job records: a count mismatch would index past the PST slice, and
// a non-finite PST cannot be JSON-encoded for GET /v1/jobs/{id} or the
// WAL.
func TestBatchAvgPST(t *testing.T) {
	if err := checkPSTs(nil, 1); err == nil {
		t.Fatal("empty PST slice should be rejected")
	}
	if err := checkPSTs([]float64{0.5}, 2); err == nil {
		t.Fatal("count mismatch should be rejected")
	}
	if err := checkPSTs([]float64{0.5, math.NaN()}, 2); err == nil {
		t.Fatal("NaN PST should be rejected")
	}
	if err := checkPSTs([]float64{math.Inf(1), 0.5}, 2); err == nil {
		t.Fatal("infinite PST should be rejected")
	}
	if err := checkPSTs([]float64{0.25, 0.75}, 2); err != nil {
		t.Fatalf("checkPSTs = %v; want nil", err)
	}
}

// TestColocationFallbackMetrics fails the first (co-located) compile
// of a 16-qubit backend: the tail is requeued, the head runs alone,
// every job still completes, and the fallback is counted with each
// compile call's latency observed separately.
func TestColocationFallbackMetrics(t *testing.T) {
	faults := newInjector().failVisits(siteCompile, 1, 1)
	svc, err := newService([]*arch.Device{arch.IBMQ16(0)}, testConfig(), faults)
	if err != nil {
		t.Fatal(err)
	}

	// Queue three co-locatable programs before starting the worker so
	// the first claim sees them all.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = submitOK(t, ts.URL).ID
	}
	svc.Start()
	for _, id := range ids {
		if rec := waitTerminal(t, ts.URL, id, 60*time.Second); rec.State != StateDone {
			t.Fatalf("job %s should survive the fallback, got %+v", id, rec)
		}
	}

	m := svc.Metrics()
	if got := m.FallbackBatches.Value(); got != 1 {
		t.Fatalf("FallbackBatches = %d, want 1", got)
	}
	// One observation per compile call: the failed co-located attempt,
	// its head-alone fallback, and the compiles for the requeued tail —
	// exactly the number of compiler-site visits.
	wantCompiles := int64(faults.visitCount(siteCompile))
	if got := m.CompileLatency.Snapshot().Count; got != wantCompiles {
		t.Fatalf("CompileLatency count = %d, want %d (one per compile call)", got, wantCompiles)
	}
	shutdownClean(t, svc)
}

// TestShutdownDuringRequeueRace forces a shutdown while a worker is
// mid-fallback (failing compiles keep requeueing batch tails): every
// job must still reach a terminal state with an error and the gauges
// must return to zero. Run under -race this doubles as the
// requeue/shutdown data-race regression test.
func TestShutdownDuringRequeueRace(t *testing.T) {
	svc, err := newService([]*arch.Device{arch.IBMQ16(0)}, testConfig(), newInjector().failVisits(siteCompile, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = submitOK(t, ts.URL).ID
	}
	svc.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("forced shutdown: %v", err)
	}

	for _, id := range ids {
		rec, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if !rec.State.Terminal() {
			t.Fatalf("job %s not terminal after shutdown: %+v", id, rec)
		}
		if rec.State == StateFailed && rec.Error == "" {
			t.Fatalf("failed job %s has no error message", id)
		}
	}
	snap := svc.MetricsSnapshot()
	if got := snap.Queue.InFlight; got != 0 {
		t.Fatalf("in_flight = %d after shutdown, want 0", got)
	}
	if got := snap.Queue.Depth; got != 0 {
		t.Fatalf("queue depth = %d after shutdown, want 0", got)
	}
}

// TestBreakerDisabled keeps the breaker off (negative threshold): any
// number of consecutive failures must leave it closed.
func TestBreakerDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.BreakerThreshold = -1
	svc := newChaosService(t, cfg, newInjector().failVisits(siteCompile, 1, 4))
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		rec := waitTerminal(t, ts.URL, submitOK(t, ts.URL).ID, 60*time.Second)
		if rec.State != StateFailed || !strings.Contains(rec.Error, "injected failure") {
			t.Fatalf("job %d: %+v", i, rec)
		}
	}
	if got := svc.MetricsSnapshot().Robustness.BreakerTrips; got != 0 {
		t.Fatalf("breaker_trips = %d with breaker disabled, want 0", got)
	}
	backends := svc.Backends()
	if backends[0].Breaker.State != breakerClosed {
		t.Fatalf("breaker should stay closed when disabled, got %+v", backends[0].Breaker)
	}
	shutdownClean(t, svc)
}
