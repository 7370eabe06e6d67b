package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/nisqbench"
)

// FuzzHandler drives arbitrary requests (method, path, query, body)
// through Handler() of a service that is never started, and asserts the
// API's error contract: no panic, no 5xx, and every response other than
// the event stream is a JSON document. The mux's path-cleaning redirect
// is the one exception; it must name where to go. Each request carries
// an already-cancelled context, so the SSE route returns once it has
// replayed the job's history. RequestTimeout is off: http.TimeoutHandler
// answers a cancelled request itself, before any route runs. One job is
// queued up front so the per-job routes have something to find; the
// checked-in corpus under testdata/fuzz covers every route, including
// the retired /v1/fleet.
func FuzzHandler(f *testing.F) {
	cfg := testConfig()
	cfg.RequestTimeout = 0
	svc, err := New([]*arch.Device{arch.London(), arch.IBMQ16(0)}, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := svc.Submit(nisqbench.MustGet("bv_n3")); err != nil {
		f.Fatal(err)
	}
	h := svc.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, method, path, query, body string) {
		req, err := http.NewRequestWithContext(ctx, method, "http://qucloud.test/", strings.NewReader(body))
		if err != nil {
			return // not a method a server would ever hand a handler
		}
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		req.URL.Path, req.URL.RawQuery = path, query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		res := rec.Result()
		ct := res.Header.Get("Content-Type")
		switch {
		case res.StatusCode >= 500:
			t.Fatalf("%s %s?%s: HTTP %d: %s", method, path, query, res.StatusCode, rec.Body)
		case ct == "text/event-stream":
			return
		case res.StatusCode == http.StatusMovedPermanently:
			if res.Header.Get("Location") == "" {
				t.Fatalf("%s %s?%s: redirect without a Location", method, path, query)
			}
			return
		case ct != "application/json":
			t.Fatalf("%s %s?%s: HTTP %d with Content-Type %q: %s", method, path, query, res.StatusCode, ct, rec.Body)
		}
		var doc any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s %s?%s: HTTP %d body does not decode: %v: %q", method, path, query, res.StatusCode, err, rec.Body)
		}
	})
}
