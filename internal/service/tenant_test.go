package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/nisqbench"
)

// tenantConfig is a three-tenant key table: alice holds a 3x fair
// share, bob 1x, and carol is disabled (revoked key).
func tenantConfig() Config {
	cfg := testConfig()
	cfg.Tenants = []Tenant{
		{ID: "alice", Key: "key-alice", Weight: 3},
		{ID: "bob", Key: "key-bob", Weight: 1},
		{ID: "carol", Key: "key-carol", Weight: 1, Disabled: true},
	}
	return cfg
}

// authedDo issues one request with a bearer key (empty key sends no
// Authorization header) and returns the response with its body read.
func authedDo(t *testing.T, method, url, key string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

func submitBody(t *testing.T, name, qasm, idemKey string) []byte {
	t.Helper()
	b, err := json.Marshal(SubmitRequest{Name: name, QASM: qasm, IdempotencyKey: idemKey})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTenantAuth covers the bearer-key middleware: 401 without or with
// an unknown key, 403 for a revoked tenant, job ownership scoping on
// reads, and the operator bypass for /metrics and /healthz.
func TestTenantAuth(t *testing.T) {
	svc := newTestService(t, tenantConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	qasm := benchQASM(t, "bv_n3")

	// Missing and malformed credentials are 401 with a challenge.
	for _, key := range []string{"", "no-such-key"} {
		resp, _ := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", key, submitBody(t, "bv", qasm, ""), nil)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: expected 401, got %d", key, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("key %q: 401 missing WWW-Authenticate challenge", key)
		}
	}
	// A disabled tenant's valid key is 403, not 401: the identity is
	// recognized but revoked.
	if resp, _ := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "key-carol", submitBody(t, "bv", qasm, ""), nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled tenant: expected 403, got %d", resp.StatusCode)
	}

	// A valid key submits, and the record carries the tenant.
	resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "key-alice", submitBody(t, "bv", qasm, ""), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var rec JobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != "alice" {
		t.Fatalf("job not attributed to alice: %+v", rec)
	}

	// Reads are scoped to the owning tenant.
	if resp, _ := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+rec.ID, "key-bob", nil, nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant job read: expected 403, got %d", resp.StatusCode)
	}
	if resp, _ := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+rec.ID, "key-alice", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner job read: expected 200, got %d", resp.StatusCode)
	}
	_, listBody := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs", "key-bob", nil, nil)
	var bobJobs []JobRecord
	if err := json.Unmarshal(listBody, &bobJobs); err != nil {
		t.Fatal(err)
	}
	if len(bobJobs) != 0 {
		t.Fatalf("bob sees alice's jobs: %+v", bobJobs)
	}

	// Operators scrape /metrics and /healthz without keys.
	for _, path := range []string{"/metrics", "/healthz"} {
		if resp, _ := authedDo(t, http.MethodGet, ts.URL+path, "", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without auth: expected 200, got %d", path, resp.StatusCode)
		}
	}
	// The tenancy section of /metrics reports the configured tenants.
	_, metricsBody := authedDo(t, http.MethodGet, ts.URL+"/metrics", "", nil, nil)
	var snap MetricsSnapshot
	if err := json.Unmarshal(metricsBody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Tenancy == nil || !snap.Tenancy.AuthRequired || len(snap.Tenancy.Tenants) != 3 {
		t.Fatalf("tenancy section missing or wrong: %+v", snap.Tenancy)
	}
}

// TestTenantQuota: admission control caps each tenant at its weighted
// share of the queue, so a saturating tenant gets per-tenant 429s while
// the others' shares stay available.
func TestTenantQuota(t *testing.T) {
	cfg := tenantConfig()
	cfg.QueueSize = 10
	// Weights 3+1+1: alice's derived cap is 10*3/5 = 6, bob's 10*1/5 = 2.
	svc := newTestService(t, cfg) // workers not started: nothing drains
	circ := nisqbench.MustGet("bv_n3")

	for i := 0; i < 6; i++ {
		if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "alice"}); err != nil {
			t.Fatalf("alice submit %d: %v", i, err)
		}
	}
	if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "alice"}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("alice over quota: expected ErrTenantQuota, got %v", err)
	}
	// Alice's saturation must not consume bob's share.
	for i := 0; i < 2; i++ {
		if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "bob"}); err != nil {
			t.Fatalf("bob submit %d under alice saturation: %v", i, err)
		}
	}
	if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "bob"}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("bob over quota: expected ErrTenantQuota, got %v", err)
	}
	if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "nobody"}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("expected ErrUnknownTenant, got %v", err)
	}
	if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "carol"}); !errors.Is(err, ErrTenantDisabled) {
		t.Fatalf("expected ErrTenantDisabled, got %v", err)
	}

	for _, tm := range svc.MetricsSnapshot().Tenancy.Tenants {
		switch tm.ID {
		case "alice":
			if tm.Queued != 6 || tm.Rejected != 1 || tm.MaxQueued != 6 {
				t.Fatalf("alice stats: %+v", tm)
			}
		case "bob":
			if tm.Queued != 2 || tm.Rejected != 1 || tm.MaxQueued != 2 {
				t.Fatalf("bob stats: %+v", tm)
			}
		}
	}
}

// queueTenants lists the tenant ID of every queued job in claim order.
// It empties the scheduler kernel's queue to read it, so a test calls
// it last.
func queueTenants(svc *Service) []string {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	items := svc.kernel.Drain()
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Owner.(*job).rec.Tenant
	}
	return out
}

// TestWFQOrdering: with both tenants backlogged, claim order follows
// the virtual finish tags — a weight-3 tenant gets three claim slots
// per weight-1 slot — and a light tenant arriving behind a saturating
// one jumps ahead of the backlog instead of waiting it out.
func TestWFQOrdering(t *testing.T) {
	cfg := tenantConfig()
	for i := range cfg.Tenants {
		cfg.Tenants[i].MaxQueued = 100 // isolate ordering from admission caps
	}
	svc := newTestService(t, cfg) // workers not started: the queue is inspectable
	circ := nisqbench.MustGet("bv_n3")

	// Interleaved backlog: 6 alice (weight 3) and 2 bob (weight 1) jobs.
	for i := 0; i < 6; i++ {
		if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "bob"}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alice", "alice", "alice", "bob", "alice", "alice", "alice", "bob"}
	got := queueTenants(svc)
	if len(got) != len(want) {
		t.Fatalf("queue length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim order %v, want %v (diverges at %d)", got, want, i)
		}
	}
}

// TestWFQLightTenantJumpsBacklog: a saturating tenant fills the queue
// first; a light tenant's first jobs still sort ahead of most of the
// backlog because its virtual finish tags start at the current virtual
// time, not behind the saturator's accumulated tags.
func TestWFQLightTenantJumpsBacklog(t *testing.T) {
	cfg := tenantConfig()
	for i := range cfg.Tenants {
		cfg.Tenants[i].MaxQueued = 100
	}
	svc := newTestService(t, cfg)
	circ := nisqbench.MustGet("bv_n3")

	for i := 0; i < 12; i++ {
		if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "bob"}); err != nil {
			t.Fatal(err)
		}
	}
	// Alice (weight 3) arrives after bob's backlog of 12.
	for i := 0; i < 2; i++ {
		if _, _, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	got := queueTenants(svc)
	// Alice's tags are 1/3 and 2/3; bob's first is 1. Alice's late
	// arrivals claim the first two slots.
	if got[0] != "alice" || got[1] != "alice" {
		t.Fatalf("light tenant stuck behind the backlog: head of queue is %v", got[:4])
	}
}

// TestIdempotentResubmission: a retried submission with the same
// Idempotency-Key and content returns the original job (200), even
// when the queue is full; the same key with different content is a 409.
func TestIdempotentResubmission(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 1
	svc := newTestService(t, cfg) // open mode, workers not started
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	qasm := benchQASM(t, "bv_n3")

	resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "", submitBody(t, "bv", qasm, ""), map[string]string{"Idempotency-Key": "retry-1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var first JobRecord
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	// The queue (size 1) is now full; an unkeyed submission bounces...
	if resp, _ := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "", submitBody(t, "bv", qasm, ""), nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unkeyed submit on full queue: expected 429, got %d", resp.StatusCode)
	}
	// ...but the keyed retry collapses onto the admitted job: 200 with
	// the same record, no admission check.
	resp, body = authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "", submitBody(t, "bv", qasm, ""), map[string]string{"Idempotency-Key": "retry-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent retry: expected 200, got %d: %s", resp.StatusCode, body)
	}
	var dup JobRecord
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("retry created a new job: %s vs %s", dup.ID, first.ID)
	}
	if got := svc.Metrics().IdempotentHits.Value(); got != 1 {
		t.Fatalf("IdempotentHits = %d, want 1", got)
	}

	// Same key, different program: the key is being misused — 409.
	resp, body = authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "", submitBody(t, "bv4", benchQASM(t, "bv_n4"), ""), map[string]string{"Idempotency-Key": "retry-1"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting reuse: expected 409, got %d: %s", resp.StatusCode, body)
	}
}

// TestIdempotencyScopedPerTenant: two tenants may use the same
// idempotency key without colliding.
func TestIdempotencyScopedPerTenant(t *testing.T) {
	svc := newTestService(t, tenantConfig())
	circ := nisqbench.MustGet("bv_n3")

	recA, dupA, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "alice", IdempotencyKey: "shared"})
	if err != nil || dupA {
		t.Fatalf("alice: %+v %v %v", recA, dupA, err)
	}
	recB, dupB, err := svc.SubmitJob(circ, SubmitOptions{Tenant: "bob", IdempotencyKey: "shared"})
	if err != nil || dupB {
		t.Fatalf("bob's key collided with alice's: %+v %v %v", recB, dupB, err)
	}
	if recA.ID == recB.ID {
		t.Fatalf("tenants shared a job: %s", recA.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
