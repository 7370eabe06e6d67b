package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
)

// testConfig keeps the workers fast: one compile attempt and a small
// Monte-Carlo budget per batch.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Trials = 32
	cfg.Attempts = 1
	cfg.Lookahead = 4
	cfg.Seed = 7
	return cfg
}

// Submit enqueues a parsed program for the default tenant, as SubmitJob
// without options does.
func (s *Service) Submit(circ *circuit.Circuit) (JobRecord, error) {
	rec, _, err := s.SubmitJob(circ, SubmitOptions{})
	return rec, err
}

// Jobs lists every record, oldest first.
func (s *Service) Jobs() []JobRecord {
	return s.JobsPage("", -1, 0)
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	devices := []*arch.Device{arch.London(), arch.IBMQ16(0)}
	svc, err := New(devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func benchQASM(t *testing.T, name string) string {
	t.Helper()
	return circuit.QASMString(nisqbench.MustGet(name))
}

func submit(t *testing.T, url, name, qasm string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Name: name, QASM: qasm})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// waitTerminal polls the job until it leaves the live states.
func waitTerminal(t *testing.T, url, id string, deadline time.Duration) JobRecord {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		var rec JobRecord
		if code := getJSON(t, url+"/v1/jobs/"+id, &rec); code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d", id, code)
		}
		if rec.State.Terminal() {
			return rec
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still %s after %s", id, rec.State, deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSubmitPollAndMetrics(t *testing.T) {
	svc := newTestService(t, testConfig())
	svc.Start()
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := submit(t, ts.URL, "bv", benchQASM(t, "bv_n3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var rec JobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued || rec.ID == "" {
		t.Fatalf("unexpected accept record: %+v", rec)
	}

	final := waitTerminal(t, ts.URL, rec.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("job failed: %+v", final)
	}
	if final.PST <= 0 {
		t.Fatalf("expected non-zero PST, got %v", final.PST)
	}
	if final.Backend == "" {
		t.Fatalf("terminal job missing backend: %+v", final)
	}

	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if snap.Jobs.Accepted != 1 || snap.Jobs.Completed != 1 {
		t.Fatalf("metrics missed the job: %+v", snap.Jobs)
	}
	if snap.PST.Count != 1 || snap.PST.Mean <= 0 {
		t.Fatalf("PST histogram not updated: %+v", snap.PST)
	}

	var health healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, health)
	}
	var backends []BackendStatus
	if code := getJSON(t, ts.URL+"/v1/backends", &backends); code != http.StatusOK || len(backends) != 2 {
		t.Fatalf("backends: %d %+v", code, backends)
	}
}

func TestRejectOnFullQueue(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 2
	svc := newTestService(t, cfg)
	// Workers intentionally not started: the queue cannot drain, so
	// the third submission must hit backpressure deterministically.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	qasm := benchQASM(t, "bv_n3")
	for i := 0; i < 2; i++ {
		resp, body := submit(t, ts.URL, "bv", qasm)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := submit(t, ts.URL, "bv", qasm)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Jobs.Rejected != 1 || snap.Queue.Depth != 2 {
		t.Fatalf("backpressure not reflected in metrics: %+v %+v", snap.Jobs, snap.Queue)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: expected 400, got %d", resp.StatusCode)
	}
	// Unparseable QASM.
	if resp, body := submit(t, ts.URL, "x", "not qasm at all"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad qasm: expected 400, got %d: %s", resp.StatusCode, body)
	}
	// Program larger than every backend (IBMQ16 is the biggest).
	big := circuit.QASMString(nisqbench.GHZ(30))
	if resp, body := submit(t, ts.URL, "ghz30", big); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized: expected 400, got %d: %s", resp.StatusCode, body)
	}
	// Unknown job id.
	r, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 404, got %d", r.StatusCode)
	}
}

// TestConcurrentJobsAcrossBackends is the acceptance scenario: 24 jobs
// submitted concurrently over HTTP to a 2-backend daemon must all
// reach "done" with non-zero PST, and /metrics must reflect the
// completed counts.
func TestConcurrentJobsAcrossBackends(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 64
	svc := newTestService(t, cfg)
	svc.Start()
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	names := []string{"bv_n3", "bv_n4", "peres_3", "toffoli_3", "fredkin_3", "3_17_13"}
	qasms := make([]string, len(names))
	for i, n := range names {
		qasms[i] = benchQASM(t, n)
	}

	const n = 24
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := submit(t, ts.URL, names[i%len(names)], qasms[i%len(qasms)])
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("job %d: HTTP %d: %s", i, resp.StatusCode, body)
				return
			}
			var rec JobRecord
			if err := json.Unmarshal(body, &rec); err != nil {
				errs[i] = err
				return
			}
			ids[i] = rec.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	backendsUsed := map[string]bool{}
	for _, id := range ids {
		rec := waitTerminal(t, ts.URL, id, 120*time.Second)
		if rec.State != StateDone {
			t.Fatalf("job %s not done: %+v", id, rec)
		}
		if rec.PST <= 0 {
			t.Fatalf("job %s reported zero PST: %+v", id, rec)
		}
		backendsUsed[rec.Backend] = true
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Jobs.Accepted != n || snap.Jobs.Completed != n || snap.Jobs.Failed != 0 {
		t.Fatalf("metrics do not reflect the %d completed jobs: %+v", n, snap.Jobs)
	}
	if snap.Batches.Executed == 0 || snap.Batches.Executed > n {
		t.Fatalf("implausible batch count: %+v", snap.Batches)
	}
	if snap.PST.Count != n {
		t.Fatalf("PST histogram saw %d jobs, want %d", snap.PST.Count, n)
	}
	t.Logf("served %d jobs in %d batches (TRF %.2f, colocation %.0f%%) on backends %v",
		n, snap.Batches.Executed, snap.Batches.TRF, snap.Batches.ColocationRate*100, backendsUsed)
}

// TestGracefulShutdownDrains submits a burst and immediately shuts
// down: the drain must finish every queued and in-flight batch.
func TestGracefulShutdownDrains(t *testing.T) {
	svc := newTestService(t, testConfig())
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	qasm := benchQASM(t, "bv_n3")
	var ids []string
	for i := 0; i < 6; i++ {
		resp, body := submit(t, ts.URL, "bv", qasm)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var rec JobRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, id := range ids {
		rec, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if rec.State != StateDone {
			t.Fatalf("job %s not drained to done: %+v", id, rec)
		}
	}
	// Submissions after shutdown are refused.
	if _, err := svc.Submit(nisqbench.MustGet("bv_n3")); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("expected ErrShuttingDown, got %v", err)
	}
	resp, body := submit(t, ts.URL, "bv", qasm)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 after shutdown, got %d: %s", resp.StatusCode, body)
	}
}

// TestForcedShutdown cancels the drain context up front: workers stop
// after their current batch and the leftovers are failed, never stuck.
func TestForcedShutdown(t *testing.T) {
	cfg := testConfig()
	svc := newTestService(t, cfg)
	svc.Start()

	for i := 0; i < 8; i++ {
		if _, err := svc.Submit(nisqbench.MustGet("bv_n4")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	for _, rec := range svc.Jobs() {
		if !rec.State.Terminal() {
			t.Fatalf("job left non-terminal after forced shutdown: %+v", rec)
		}
	}
}

// TestCacheServesRepeatSubmissions drives the cloud-queue replay
// pattern the cache exists for: the same benchmark circuit submitted
// twice compiles once — the registry and the /metrics cache section
// must agree on one miss and one hit.
func TestCacheServesRepeatSubmissions(t *testing.T) {
	svc, err := New([]*arch.Device{arch.London()}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := submit(t, ts.URL, "bv", benchQASM(t, "bv_n3"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var rec JobRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, ts.URL, rec.ID, 60*time.Second); got.State != StateDone {
			t.Fatalf("job %d: %+v", i, got)
		}
	}

	m := svc.Metrics()
	if m.CacheMisses.Value() != 1 || m.CacheHits.Value() != 1 {
		t.Fatalf("registry: hits=%d misses=%d, want 1/1", m.CacheHits.Value(), m.CacheMisses.Value())
	}
	if got := m.CacheLookup.Snapshot().Count; got != 1 {
		t.Fatalf("CacheLookup observations = %d, want 1 (hits only)", got)
	}

	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 || snap.Cache.HitRate != 0.5 {
		t.Fatalf("/metrics cache section: %+v", snap.Cache)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDisabled: a negative CacheSize turns caching off entirely —
// every compile is a bypass and no counter ever moves.
func TestCacheDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.CacheSize = -1
	svc, err := New([]*arch.Device{arch.London()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if svc.cache != nil {
		t.Fatal("negative CacheSize should leave the cache nil")
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := submit(t, ts.URL, "bv", benchQASM(t, "bv_n3"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var rec JobRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, ts.URL, rec.ID, 60*time.Second); got.State != StateDone {
			t.Fatalf("job %d: %+v", i, got)
		}
	}
	m := svc.Metrics()
	if m.CacheHits.Value() != 0 || m.CacheMisses.Value() != 0 || m.CacheCoalesced.Value() != 0 {
		t.Fatalf("disabled cache moved counters: hits=%d misses=%d coalesced=%d",
			m.CacheHits.Value(), m.CacheMisses.Value(), m.CacheCoalesced.Value())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
