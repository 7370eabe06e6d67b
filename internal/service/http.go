package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuit"
)

// maxQASMBytes bounds a submission body; larger requests get 413.
const maxQASMBytes = 1 << 20

// jobsPageDefault and jobsPageMax bound GET /v1/jobs responses: the
// endpoint pages with ?limit= / ?after= instead of returning the whole
// store (which MaxJobHistory lets grow to thousands of records).
const (
	jobsPageDefault = 256
	jobsPageMax     = 2048
)

// SubmitRequest is the POST /v1/jobs body. QASM holds the OpenQASM 2.0
// source parsed by internal/circuit; Name optionally overrides the
// circuit's display name. IdempotencyKey duplicates the
// Idempotency-Key header for clients that prefer body fields (the
// header wins when both are set).
type SubmitRequest struct {
	Name           string `json:"name,omitempty"`
	QASM           string `json:"qasm"`
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Backends      int     `json:"backends"`
}

// tenantCtxKey carries the authenticated tenant's ID in the request
// context.
type tenantCtxKey struct{}

// tenantID returns the tenant the middleware authenticated, or "".
func tenantID(r *http.Request) string {
	id, _ := r.Context().Value(tenantCtxKey{}).(string)
	return id
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs             submit a QASM program (202; 200 on an
//	                          idempotent duplicate; 400, 409, 413, 429, 503)
//	GET  /v1/jobs             list job records (?limit= / ?after=<job-id>)
//	GET  /v1/jobs/{id}        one job record (404 when unknown)
//	GET  /v1/jobs/{id}/events job lifecycle stream (Server-Sent Events)
//	GET  /v1/backends         one BackendStatus row per backend
//	GET  /metrics             service-wide MetricsSnapshot JSON
//	GET  /healthz             liveness probe
//
// A request no route takes gets a JSON error as well: 405 with an
// Allow header when the path is served under another method, else 404.
//
// With Config.Tenants set, every /v1 route requires a tenant API key
// ("Authorization: Bearer <key>"): missing or unknown keys get 401,
// disabled tenants 403, and job visibility is scoped to the owning
// tenant. /metrics and /healthz stay open for operators.
//
// When Config.RequestTimeout is positive every request except the SSE
// stream is additionally bounded by http.TimeoutHandler (a lifecycle
// stream legitimately outlives the timeout).
func (s *Service) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/jobs", s.handleSubmit)
	api.HandleFunc("GET /v1/jobs", s.handleJobs)
	api.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	api.HandleFunc("GET /v1/backends", s.handleBackends)
	api.HandleFunc("GET /metrics", s.handleMetrics)
	api.HandleFunc("GET /healthz", s.handleHealth)
	api.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allow []string
		for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost} {
			if _, p := api.Handler(&http.Request{Method: m, Host: r.Host, URL: r.URL}); p != "/" {
				allow = append(allow, m)
			}
		}
		if len(allow) == 0 {
			writeError(w, http.StatusNotFound, "no such route")
			return
		}
		w.Header().Set("Allow", strings.Join(allow, ", "))
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
	})
	var h http.Handler = api
	if s.cfg.RequestTimeout > 0 {
		h = jsonTimeoutHandler(h, s.cfg.RequestTimeout)
	}
	root := http.NewServeMux()
	root.Handle("/", h)
	// The SSE route sits outside the timeout wrapper: TimeoutHandler's
	// ResponseWriter cannot flush, and a stream may outlive the timeout.
	root.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	return s.requireTenant(root)
}

// jsonTimeoutHandler bounds h with http.TimeoutHandler while keeping
// the timeout response on-contract: TimeoutHandler writes its body to
// the original ResponseWriter, whose pre-set headers survive, so
// setting Content-Type up front makes the 503 JSON instead of
// content-sniffed text/plain. Handlers that answer in time overwrite
// the header from their own header map as usual.
func jsonTimeoutHandler(h http.Handler, timeout time.Duration) http.Handler {
	th := http.TimeoutHandler(h, timeout, `{"error":"request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	})
}

// requireTenant authenticates every /v1 request against the tenant
// key table and stores the tenant ID in the request context. In open
// mode (no tenants configured) it only tags requests with the default
// tenant. /metrics and /healthz bypass auth: operators scrape them.
func (s *Service) requireTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.authRequired {
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, DefaultTenantID)))
			return
		}
		if r.URL.Path == "/metrics" || r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		auth := r.Header.Get("Authorization")
		key, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok || key == "" {
			w.Header().Set("WWW-Authenticate", `Bearer realm="qucloudd"`)
			writeError(w, http.StatusUnauthorized, "missing or malformed Authorization bearer token")
			return
		}
		t, ok := s.tenantsByKey[key]
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="qucloudd"`)
			writeError(w, http.StatusUnauthorized, "unknown API key")
			return
		}
		if t.cfg.Disabled {
			writeError(w, http.StatusForbidden, "tenant is disabled")
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, t.cfg.ID)))
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxQASMBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		// MaxBytesReader surfaces through the JSON decoder; an oversized
		// body is the client's payload problem (413), not a syntax error.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the "+strconv.FormatInt(tooBig.Limit, 10)+"-byte submission limit")
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.QASM) == "" {
		writeError(w, http.StatusBadRequest, "missing qasm field")
		return
	}
	name := req.Name
	if name == "" {
		name = "job"
	}
	circ, err := circuit.ParseQASMString(name, req.QASM)
	if err != nil {
		writeError(w, http.StatusBadRequest, "qasm parse error: "+err.Error())
		return
	}
	idem := r.Header.Get("Idempotency-Key")
	if idem == "" {
		idem = req.IdempotencyKey
	}
	rec, duplicate, err := s.SubmitJob(circ, SubmitOptions{Tenant: tenantID(r), IdempotencyKey: idem})
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrIdemConflict):
		writeError(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrTenantDisabled):
		writeError(w, http.StatusForbidden, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if duplicate {
		// The idempotency key matched an existing job: report it rather
		// than a new admission.
		writeJSON(w, http.StatusOK, rec)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

// parseAfter resolves the ?after= cursor: a job ID as returned by the
// API ("job-000123") or a bare sequence number. Returns -1 (start from
// the beginning) for an empty value, or an error flag for garbage.
func parseAfter(v string) (int, bool) {
	if v == "" {
		return -1, true
	}
	v = strings.TrimPrefix(v, "job-")
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := jobsPageDefault
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	if limit > jobsPageMax {
		limit = jobsPageMax
	}
	after, ok := parseAfter(q.Get("after"))
	if !ok {
		writeError(w, http.StatusBadRequest, "after must be a job id or sequence number")
		return
	}
	scope := ""
	if s.authRequired {
		scope = tenantID(r)
	}
	writeJSON(w, http.StatusOK, s.JobsPage(scope, after, limit))
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if s.authRequired && rec.Tenant != tenantID(r) {
		writeError(w, http.StatusForbidden, "job belongs to another tenant")
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Service) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Backends())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		UptimeSeconds: s.Uptime().Seconds(),
		Backends:      len(s.workers),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
