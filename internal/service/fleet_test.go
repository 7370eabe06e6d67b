package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/nisqbench"
)

// dispatchTrace submits the same job stream to a fresh, never-started
// 3-chip service and returns the JSON-encoded per-backend dispatch
// traces (each row's recent_dispatches). Workers never run, so the
// traces depend only on calibration and the evolving queue depths —
// exactly what must stay deterministic.
func dispatchTrace(t *testing.T, policy string) []byte {
	t.Helper()
	devices := []*arch.Device{arch.London(), arch.IBMQ16(0), arch.Tokyo(1)}
	cfg := testConfig()
	cfg.FleetPolicy = policy
	svc, err := New(devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"bv_n3", "toffoli_3", "fredkin_3", "bv_n4", "peres_3", "bv_n3"}
	for round := 0; round < 4; round++ {
		for _, n := range names {
			if _, err := svc.Submit(nisqbench.MustGet(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	traces := map[string][]DispatchDecision{}
	total := 0
	for _, b := range svc.Backends() {
		traces[b.Name] = b.RecentDispatches
		total += len(b.RecentDispatches)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total != 4*len(names) {
		t.Fatalf("%s: rows hold %d decisions, want %d", policy, total, 4*len(names))
	}
	buf, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFleetDispatchDeterministic pins the acceptance criterion: the
// per-backend dispatch traces for one job stream are byte-identical at
// GOMAXPROCS 1, 2, and 8, for every policy.
func TestFleetDispatchDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, policy := range []string{"speed", "fidelity", "fairness", "balanced"} {
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := dispatchTrace(t, policy)
			if want == nil {
				want = got
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("%s: GOMAXPROCS=%d trace diverged:\n%s\nvs\n%s", policy, procs, got, want)
			}
		}
	}
}

// traceSeqs checks every decision in the row routed onto the row's own
// chip and returns their job sequence numbers, oldest first.
func traceSeqs(t *testing.T, row BackendStatus) []int {
	t.Helper()
	var seqs []int
	for _, d := range row.RecentDispatches {
		if d.Backend != row.Name {
			t.Fatalf("%s row holds a decision for %s: %+v", row.Name, d.Backend, d)
		}
		seqs = append(seqs, d.Seq)
	}
	return seqs
}

// TestFleetSpreadsAcrossChips: a stream of identical jobs on a fleet
// of identical chips must alternate between them under balanced (the
// queue-depth penalty), never pile onto one. Equal chips tie-break to
// the smaller name exactly when their queue depths match, so london-a
// takes the even seqs and london-b the odd ones; each row's trace holds
// only its own chip's decisions, the last TraceDepth of them.
func TestFleetSpreadsAcrossChips(t *testing.T) {
	for _, tc := range []struct {
		depth int
		want  map[string]string
	}{
		{0, map[string]string{"london-a": "[0 2 4 6]", "london-b": "[1 3 5 7]"}},
		{2, map[string]string{"london-a": "[4 6]", "london-b": "[5 7]"}},
	} {
		a, b := arch.London(), arch.London()
		a.Name, b.Name = "london-a", "london-b"
		cfg := testConfig()
		cfg.TraceDepth = tc.depth
		svc, err := New([]*arch.Device{a, b}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := svc.Submit(nisqbench.MustGet("bv_n3")); err != nil {
				t.Fatal(err)
			}
		}
		rows := svc.Backends()
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := svc.MetricsSnapshot().Fleet.Policy; got != "balanced" {
			t.Fatalf("default policy = %q, want balanced", got)
		}
		for _, row := range rows {
			if row.Dispatched != 4 {
				t.Fatalf("load not alternated: %s got %d of 8", row.Name, row.Dispatched)
			}
			if got := fmt.Sprint(traceSeqs(t, row)); got != tc.want[row.Name] {
				t.Fatalf("TraceDepth %d: %s holds seqs %s, want %s", tc.depth, row.Name, got, tc.want[row.Name])
			}
		}
	}
}

// TestFleetViewAndMetrics drives a small workload end to end and
// checks the per-chip dispatch state in the /v1/backends rows against
// the service-wide fleet section of /metrics. It also guards the
// one-row-per-chip rule: no string anywhere in /metrics may name a
// backend, and the retired /v1/fleet view answers 404.
func TestFleetViewAndMetrics(t *testing.T) {
	svc := newTestService(t, testConfig())
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitOK(t, ts.URL).ID)
	}
	for _, id := range ids {
		waitTerminal(t, ts.URL, id, 60*time.Second)
	}
	shutdownClean(t, svc)

	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("GET /metrics: HTTP %d", code)
	}
	if snap.Fleet == nil {
		t.Fatal("metrics snapshot missing fleet section")
	}
	if snap.Fleet.Policy != "balanced" || snap.Fleet.Dispatches != int64(len(ids)) || snap.Fleet.JobsMigrated != 0 {
		t.Fatalf("metrics fleet section: %+v", snap.Fleet)
	}

	var rows []BackendStatus
	if code := getJSON(t, ts.URL+"/v1/backends", &rows); code != 200 || len(rows) != 2 {
		t.Fatalf("GET /v1/backends: HTTP %d, %d rows", code, len(rows))
	}
	names := map[string]bool{}
	var perDevice int64
	decisions := 0
	for _, row := range rows {
		names[row.Name] = true
		perDevice += row.Dispatched
		decisions += len(traceSeqs(t, row))
		if row.Breaker.State != breakerClosed || row.BreakerOpen {
			t.Fatalf("%s breaker %+v (breaker_open %v) after healthy run", row.Name, row.Breaker, row.BreakerOpen)
		}
	}
	if perDevice != int64(len(ids)) {
		t.Fatalf("per-device dispatched %d, want the %d jobs submitted", perDevice, len(ids))
	}
	if decisions != len(ids) {
		t.Fatalf("decision traces hold %d entries, want %d", decisions, len(ids))
	}

	var doc any
	getJSON(t, ts.URL+"/metrics", &doc)
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case string:
			if names[v] {
				t.Errorf("/metrics%s = %q names a backend", path, v)
			}
		case []any:
			for i, e := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		case map[string]any:
			for k, e := range v {
				walk(path+"."+k, e)
			}
		}
	}
	walk("", doc)
	var errBody errorResponse
	if code := getJSON(t, ts.URL+"/v1/fleet", &errBody); code != http.StatusNotFound || errBody.Error == "" {
		t.Fatalf("GET /v1/fleet: HTTP %d %+v, want a 404 JSON error", code, errBody)
	}
}

// TestChaosBreakerMigration is the acceptance chaos case: jobs are
// spread over two identical chips, the first compile on one of them is
// made to fail with the breaker threshold at 1, and every job still
// queued for the tripped backend must migrate to the healthy one — no
// job lost, none duplicated, exactly the one faulted batch failed.
func TestChaosBreakerMigration(t *testing.T) {
	a, b := arch.London(), arch.London()
	a.Name, b.Name = "london-a", "london-b"
	cfg := chaosConfig()
	cfg.MaxColocate = 1
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Minute // stay open for the whole test
	svc, err := newService([]*arch.Device{a, b}, cfg, newInjector().failVisits(siteCompile, 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-load the queue before the workers start so both backends hold
	// several assigned jobs when the fault fires.
	const jobs = 12
	for i := 0; i < jobs; i++ {
		if _, err := svc.Submit(nisqbench.MustGet("bv_n3")); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	deadline := time.Now().Add(60 * time.Second)
	for {
		done := true
		for _, rec := range svc.Jobs() {
			if !rec.State.Terminal() {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs not terminal: %+v", svc.Jobs())
		}
		time.Sleep(20 * time.Millisecond)
	}
	shutdownClean(t, svc)

	var doneN, failedN int
	seen := map[int]bool{}
	for _, rec := range svc.Jobs() {
		if seen[rec.Seq] {
			t.Fatalf("job %d appears twice", rec.Seq)
		}
		seen[rec.Seq] = true
		switch rec.State {
		case StateDone:
			doneN++
		case StateFailed:
			failedN++
			if !strings.Contains(rec.Error, "injected") {
				t.Fatalf("unexpected failure: %q", rec.Error)
			}
		}
	}
	if doneN+failedN != jobs {
		t.Fatalf("%d done + %d failed != %d submitted", doneN, failedN, jobs)
	}
	if failedN != 1 {
		t.Fatalf("%d jobs failed, want exactly the faulted batch", failedN)
	}

	snap := svc.MetricsSnapshot()
	jobsMigrated := snap.Fleet.JobsMigrated
	if jobsMigrated < 1 {
		t.Fatal("no jobs migrated off the tripped backend")
	}
	rows := svc.Backends()
	tripped, healthy := rows[0], rows[1]
	if healthy.Breaker.Opens > 0 {
		tripped, healthy = healthy, tripped
	}
	if tripped.Breaker.Opens != 1 || healthy.Breaker.Opens != 0 {
		t.Fatalf("breakers: %s %+v, %s %+v", tripped.Name, tripped.Breaker, healthy.Name, healthy.Breaker)
	}
	if tripped.Migrated != jobsMigrated || healthy.Migrated != 0 {
		t.Fatalf("row migrated %d/%d != fleet counter %d", tripped.Migrated, healthy.Migrated, jobsMigrated)
	}
	// Every migrated decision is in the healthy chip's row, naming the
	// tripped chip it came from.
	var migratedIn int64
	for _, row := range rows {
		for _, d := range row.RecentDispatches {
			if !d.Migrated {
				continue
			}
			if row.Name != healthy.Name || d.Backend != healthy.Name || d.From != tripped.Name {
				t.Fatalf("migrated decision %+v in %s's row; want it in %s's, from %s", d, row.Name, healthy.Name, tripped.Name)
			}
			migratedIn++
		}
	}
	if migratedIn != jobsMigrated {
		t.Fatalf("%d migrated decisions in the rows, jobs_migrated %d", migratedIn, jobsMigrated)
	}
	// Every migration re-dispatches, so total routing decisions are
	// the submissions plus the migrations.
	perDevice := tripped.Dispatched + healthy.Dispatched
	dispatches := snap.Fleet.Dispatches
	if perDevice != int64(jobs)+jobsMigrated || dispatches != perDevice {
		t.Fatalf("dispatch accounting: per-device %d, fleet %d, migrated %d",
			perDevice, dispatches, jobsMigrated)
	}
}
