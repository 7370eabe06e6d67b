package service

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/nisqbench"
)

// newWALService builds a service on a WAL-backed data directory with
// the fault hook (nil for none). The caller decides whether to Start it.
func newWALService(t *testing.T, cfg Config, faults faultHook) *Service {
	t.Helper()
	svc, err := newService([]*arch.Device{arch.London(), arch.IBMQ16(0)}, cfg, faults)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestWALReplayAfterKill is the durability acceptance test: jobs queued
// on a WAL-backed service survive an abrupt process death (no Shutdown,
// no WAL close) and complete after the next daemon replays them.
func TestWALReplayAfterKill(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()

	// First daemon: accept three jobs, then "die" without Shutdown. The
	// WAL file descriptor stays open — exactly what a SIGKILL leaves
	// behind (appends are unbuffered writes, so the log is on disk).
	first := newWALService(t, cfg, nil)
	var ids []string
	live := map[string]JobRecord{}
	for _, name := range []string{"bv_n3", "bv_n4", "peres_3"} {
		rec, err := first.Submit(nisqbench.MustGet(name))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
		live[rec.ID] = rec
	}

	// Second daemon on the same data dir: every queued job must come
	// back with its identity intact.
	second := newWALService(t, cfg, nil)
	recovered := second.Jobs()
	if len(recovered) != len(ids) {
		t.Fatalf("replayed %d jobs, want %d: %+v", len(recovered), len(ids), recovered)
	}
	byID := map[string]JobRecord{}
	for _, rec := range recovered {
		byID[rec.ID] = rec
	}
	for _, id := range ids {
		rec, ok := byID[id]
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if rec.State != StateQueued {
			t.Fatalf("replayed job %s in state %s, want queued", id, rec.State)
		}
	}
	if got := second.Metrics().WALReplayedJobs.Value(); got != int64(len(ids)) {
		t.Fatalf("WALReplayedJobs = %d, want %d", got, len(ids))
	}

	// The replayed jobs are runnable, not just visible: start and drain.
	second.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := second.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rec, ok := second.Job(id)
		if !ok || rec.State != StateDone {
			t.Fatalf("replayed job %s did not complete: %+v (found %v)", id, rec, ok)
		}
	}

	// Third daemon: the drained jobs replay as terminal history, not as
	// runnable work, and read as they did live.
	third := newWALService(t, cfg, nil)
	third.mu.Lock()
	depth := third.kernel.Len()
	third.mu.Unlock()
	if depth != 0 {
		t.Fatalf("terminal jobs re-entered the queue: depth %d", depth)
	}
	for _, id := range ids {
		rec, ok := third.Job(id)
		if !ok || rec.State != StateDone {
			t.Fatalf("terminal record %s not replayed: %+v (found %v)", id, rec, ok)
		}
		if want := live[id]; rec.Qubits != want.Qubits || rec.Gates != want.Gates {
			t.Fatalf("restored %s reports %d qubits, %d gates; live %d, %d", id, rec.Qubits, rec.Gates, want.Qubits, want.Gates)
		}
	}
	if err := third.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredJobKeepsEventSeq: a job restored from the WAL serves its
// terminal SSE event under the Seq it had live, after the restart that
// restores it and after the next one, which reads the compacted log.
func TestRestoredJobKeepsEventSeq(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	first := newWALService(t, cfg, nil)
	first.Start()
	rec, err := first.Submit(nisqbench.MustGet("bv_n3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	live := streamEvents(t, ts.URL, rec.ID)
	ts.Close()
	want := live[len(live)-1]
	if want.State != StateDone || want.Seq < 2 {
		t.Fatalf("live history %+v, want it to end on done after other events", live)
	}
	for restart := 1; restart <= 2; restart++ {
		svc := newWALService(t, cfg, nil)
		ts := httptest.NewServer(svc.Handler())
		got := streamEvents(t, ts.URL, rec.ID)
		ts.Close()
		if len(got) != 1 || got[0].Seq != want.Seq || got[0].State != want.State {
			t.Fatalf("restart %d: history %+v, want the done event as seq %d", restart, got, want.Seq)
		}
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALAppendFaultKeepsServing: an injected append failure loses one
// record's durability but never rejects the submission (availability
// over durability), and the failure is counted.
func TestWALAppendFaultKeepsServing(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	svc := newWALService(t, cfg, newInjector().failVisits(siteWALAppend, 1, 1))

	recLost, err := svc.Submit(nisqbench.MustGet("bv_n3"))
	if err != nil {
		t.Fatalf("submit during append fault must still be accepted: %v", err)
	}
	recKept, err := svc.Submit(nisqbench.MustGet("bv_n4"))
	if err != nil {
		t.Fatal(err)
	}
	m := svc.Metrics()
	if m.WALAppendErrors.Value() != 1 || m.WALAppends.Value() != 1 {
		t.Fatalf("append accounting: errors=%d appends=%d, want 1/1",
			m.WALAppendErrors.Value(), m.WALAppends.Value())
	}

	// Only the durable job survives a restart — the faulted append was
	// a real durability loss, visible in the counter above.
	next := newWALService(t, cfg, nil)
	if _, ok := next.Job(recLost.ID); ok {
		t.Fatalf("job %s replayed despite its append having failed", recLost.ID)
	}
	if rec, ok := next.Job(recKept.ID); !ok || rec.State != StateQueued {
		t.Fatalf("durable job %s not replayed: %+v (found %v)", recKept.ID, rec, ok)
	}
}

// TestWALReplayFaultStartsEmpty: a fault during startup replay discards
// the recovered records (counted), but the service still comes up and
// keeps logging new work.
func TestWALReplayFaultStartsEmpty(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	seed := newWALService(t, cfg, nil)
	first, err := seed.Submit(nisqbench.MustGet("bv_n3"))
	if err != nil {
		t.Fatal(err)
	}

	svc := newWALService(t, cfg, newInjector().failVisits(siteWALReplay, 1, 1))
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("replay fault should start empty, got %+v", jobs)
	}
	if got := svc.Metrics().WALReplayErrors.Value(); got != 1 {
		t.Fatalf("WALReplayErrors = %d, want 1", got)
	}
	// The log stays live: new submissions are accepted and appended,
	// under IDs the discarded records do not hold, so the next restart
	// replays both jobs.
	second, err := svc.Submit(nisqbench.MustGet("bv_n4"))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Metrics().WALAppends.Value(); got != 1 {
		t.Fatalf("post-fault appends = %d, want 1", got)
	}
	if jobs := newWALService(t, cfg, nil).Jobs(); len(jobs) != 2 || first.ID == second.ID {
		t.Fatalf("after the fault %s reissued %s; the next restart holds %+v", second.ID, first.ID, jobs)
	}
}

// TestWALReplaySkipsUnknownTenant: records from a tenant that no longer
// exists in the key table are dropped (and counted), not resurrected
// under someone else's identity.
func TestWALReplaySkipsUnknownTenant(t *testing.T) {
	cfg := tenantConfig()
	cfg.DataDir = t.TempDir()
	seed := newWALService(t, cfg, nil)
	if _, _, err := seed.SubmitJob(nisqbench.MustGet("bv_n3"), SubmitOptions{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := seed.SubmitJob(nisqbench.MustGet("bv_n4"), SubmitOptions{Tenant: "bob"}); err != nil {
		t.Fatal(err)
	}

	// Alice is offboarded before the restart.
	cfg.Tenants = cfg.Tenants[1:]
	svc := newWALService(t, cfg, nil)
	jobs := svc.Jobs()
	if len(jobs) != 1 || jobs[0].Tenant != "bob" {
		t.Fatalf("expected only bob's job to replay, got %+v", jobs)
	}
	if got := svc.Metrics().WALReplaySkipped.Value(); got != 1 {
		t.Fatalf("WALReplaySkipped = %d, want 1", got)
	}
}
