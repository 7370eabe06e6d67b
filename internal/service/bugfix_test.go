package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/nisqbench"
)

// TestSSEEventOrdering: the lifecycle stream delivers every state
// transition exactly once, with per-job sequence numbers 1..n in order,
// ending on the terminal event.
func TestSSEEventOrdering(t *testing.T) {
	svc := newTestService(t, testConfig())
	svc.Start()
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rec, err := svc.Submit(nisqbench.MustGet("bv_n3"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}

	// The server closes the stream after the terminal event, so reading
	// to EOF collects the complete history.
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 2 {
		t.Fatalf("expected a full lifecycle, got %+v", events)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d (history %+v)", i, ev.Seq, events)
		}
		if ev.JobID != rec.ID {
			t.Fatalf("event for wrong job: %+v", ev)
		}
	}
	if events[0].State != StateQueued {
		t.Fatalf("first event %+v, want queued", events[0])
	}
	last := events[len(events)-1]
	if !last.State.Terminal() {
		t.Fatalf("stream ended on non-terminal event %+v", last)
	}
	if last.State == StateDone && last.PST <= 0 {
		t.Fatalf("terminal done event missing PST: %+v", last)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.State.Terminal() {
			t.Fatalf("terminal state before the last event: %+v", events)
		}
	}
}

// TestShutdownNeverStartedReleasesContext is the regression test for
// the leaked run context: Shutdown on a service whose workers never
// started must still cancel the run context (and close the WAL), not
// just mark the jobs failed.
func TestShutdownNeverStartedReleasesContext(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	svc := newWALService(t, cfg)
	rec, err := svc.Submit(nisqbench.MustGet("bv_n3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if svc.runCtx.Err() == nil {
		t.Fatal("run context still live after Shutdown on a never-started service")
	}
	got, ok := svc.Job(rec.ID)
	if !ok || got.State != StateFailed {
		t.Fatalf("queued job not failed by shutdown: %+v (found %v)", got, ok)
	}
	if svc.wlog != nil {
		t.Fatal("WAL left open after Shutdown")
	}
}

// TestForcedShutdownInterruptsExecDwell is the regression test for the
// uninterruptible occupancy dwell: a batch that has simulated and is
// holding its backend for ExecDwell must release it when a forced
// shutdown cancels the run context, not sleep the dwell out.
func TestForcedShutdownInterruptsExecDwell(t *testing.T) {
	cfg := testConfig()
	cfg.ExecDwell = 3 * time.Second
	svc := newTestService(t, cfg)
	svc.Start()
	rec, err := svc.Submit(nisqbench.MustGet("bv_n3"))
	if err != nil {
		t.Fatal(err)
	}
	// The job stays "compiling" through compile, simulate and dwell;
	// the first two take milliseconds, so by the time the 50 ms drain
	// context below expires the worker is inside the dwell.
	for stop := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got, _ := svc.Job(rec.ID); got.State == StateCompiling {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("job never left the queue")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	began := time.Now()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v, want the drain context's error", err)
	}
	if took := time.Since(began); took >= time.Second {
		t.Fatalf("forced shutdown took %s: it slept out the %s dwell", took, cfg.ExecDwell)
	}
	if got, _ := svc.Job(rec.ID); !got.State.Terminal() {
		t.Fatalf("job left %s after forced shutdown", got.State)
	}
}

// TestOversizedSubmission413 is the regression test for oversized
// bodies: MaxBytesReader trips inside the JSON decoder and must
// surface as 413, not a generic 400.
func TestOversizedSubmission413(t *testing.T) {
	svc := newTestService(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	big, err := json.Marshal(SubmitRequest{Name: "big", QASM: strings.Repeat("x", maxQASMBytes+1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: expected 413, got %d", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "submission limit") {
		t.Fatalf("413 body does not explain the limit: %+v", e)
	}
}

// TestWaitObservedOncePerJob is the regression test for double-counted
// queue latency: a job that is claimed, requeued (co-location
// fallback), and claimed again must observe QueueLatency exactly once,
// while WaitSeconds accumulates both queue passes.
func TestWaitObservedOncePerJob(t *testing.T) {
	svc := newTestService(t, testConfig()) // workers constructed but not started
	rec, err := svc.Submit(nisqbench.MustGet("bv_n3"))
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	j := svc.jobs[rec.ID]
	w := svc.workers[j.item.Chip]
	svc.mu.Unlock()

	// First claim: the job leaves the queue and its wait is observed.
	batch := w.claim(context.Background())
	if len(batch) != 1 || batch[0] != j {
		t.Fatalf("claim returned %d jobs", len(batch))
	}
	waitAfterFirst := j.rec.WaitSeconds
	if got := svc.Metrics().QueueLatency.Snapshot().Count; got != 1 {
		t.Fatalf("QueueLatency count after first claim = %d, want 1", got)
	}

	// Requeue (the co-location fallback path) and claim again.
	w.requeueFront(batch)
	time.Sleep(10 * time.Millisecond)
	batch = w.claim(context.Background())
	if len(batch) != 1 {
		t.Fatalf("second claim returned %d jobs", len(batch))
	}
	if j.rec.WaitSeconds <= waitAfterFirst {
		t.Fatalf("WaitSeconds did not accumulate the second queue pass: %v -> %v",
			waitAfterFirst, j.rec.WaitSeconds)
	}
	if got := svc.Metrics().QueueLatency.Snapshot().Count; got != 1 {
		t.Fatalf("QueueLatency observed %d times, want exactly 1", got)
	}
}

// TestTimeoutResponseIsJSON is the regression test for the timeout
// envelope: a request that outlives RequestTimeout must get the JSON
// error contract, not http.TimeoutHandler's content-sniffed text/html.
func TestTimeoutResponseIsJSON(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	ts := httptest.NewServer(jsonTimeoutHandler(slow, 20*time.Millisecond))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: expected 503, got %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout Content-Type = %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("timeout body is not the JSON error envelope: %v", err)
	}
	if e.Error == "" {
		t.Fatal("timeout envelope has no error message")
	}

	// Handlers that answer in time keep their own headers: the pre-set
	// Content-Type must not leak into non-timeout responses.
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("ok"))
	})
	ts2 := httptest.NewServer(jsonTimeoutHandler(fast, time.Second))
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "text/plain" {
		t.Fatalf("fast-path Content-Type = %q, want the handler's text/plain", ct)
	}
}

// TestJobsPaging is the regression test for the unbounded listing:
// GET /v1/jobs pages with ?limit= and ?after= and rejects garbage
// parameters.
func TestJobsPaging(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 16
	svc := newTestService(t, cfg) // not started: records stay queued and stable
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		rec, err := svc.Submit(nisqbench.MustGet("bv_n3"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}

	page := func(query string) []JobRecord {
		t.Helper()
		var recs []JobRecord
		if code := getJSON(t, ts.URL+"/v1/jobs"+query, &recs); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: HTTP %d", query, code)
		}
		return recs
	}
	if got := page(""); len(got) != 5 {
		t.Fatalf("unpaged listing returned %d records, want 5", len(got))
	}
	firstPage := page("?limit=2")
	if len(firstPage) != 2 || firstPage[0].ID != ids[0] || firstPage[1].ID != ids[1] {
		t.Fatalf("first page wrong: %+v", firstPage)
	}
	// The cursor is the last ID of the previous page.
	secondPage := page("?limit=2&after=" + firstPage[1].ID)
	if len(secondPage) != 2 || secondPage[0].ID != ids[2] || secondPage[1].ID != ids[3] {
		t.Fatalf("second page wrong: %+v", secondPage)
	}
	if rest := page("?after=" + secondPage[1].ID); len(rest) != 1 || rest[0].ID != ids[4] {
		t.Fatalf("final page wrong: %+v", rest)
	}

	for _, q := range []string{"?limit=0", "?limit=banana", "?after=banana", "?after=-3"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/jobs%s: expected 400, got %d", q, resp.StatusCode)
		}
	}
}

// TestEpsilonZeroIsHonoured: ε = 0 (Algorithm 4 admitting only
// loss-free co-locations) reaches the scheduler instead of being
// rewritten to the default, and an ε no threshold can mean — negative
// or NaN, under which every violation test fails open — is rejected.
func TestEpsilonZeroIsHonoured(t *testing.T) {
	cfg := testConfig()
	cfg.Epsilon = 0
	svc := newTestService(t, cfg)
	for _, b := range svc.Backends() {
		if b.Epsilon != 0 {
			t.Errorf("backend %s schedules at eps %v, want 0", b.Name, b.Epsilon)
		}
	}
	for _, eps := range []float64{-0.1, math.NaN()} {
		cfg.Epsilon = eps
		if _, err := New([]*arch.Device{arch.London()}, cfg); err == nil {
			t.Errorf("New accepted epsilon %v", eps)
		}
	}
}
