package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/nisqbench"
	"repro/internal/wal"
)

// TestBooksAgreeWithModel drives seeded random sequences through a
// WAL-backed service with a small queue and history cap: submits
// (idempotent resubmits, full-queue and quota refusals among them),
// drains in which an injected compile fault trips a breaker and
// migrates its queue, kills and restarts on the same data dir, a tenant
// removed across a restart, and pending records whose replay fails.
// After every step the store, its history order and every /metrics job,
// tenant and queue count must agree with a reference model of what the
// running process admitted.
func TestBooksAgreeWithModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runBooks(t, seed, 120) })
	}
}

// books is the model: the store's jobs (tenant and state), its terminal
// history oldest first, this process's tenant rows, and the bindings
// and next sequence number that outlive a process.
type books struct {
	tenant            map[string]string // job id → tenant, for every job in the store
	state             map[string]State  // job id → state
	hist              []string
	rows              map[string]*TenantMetrics
	idem              map[string]string // tenant/key → job id
	seq               int
	replayed, skipped int64
	armed             bool // the process's first compile fails
}

func runBooks(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	progs := []string{"bv_n3", "bv_n4", "peres_3"}
	all := []Tenant{{ID: "alice", Key: "ka", MaxQueued: 3}, {ID: "bob", Key: "kb", MaxQueued: 2}, {ID: "carol", Key: "kc", MaxQueued: 2}}
	maxQueued := map[string]int{"alice": 3, "bob": 2, "carol": 2}
	cfg := testConfig()
	cfg.QueueSize, cfg.MaxJobHistory, cfg.MaxColocate = 4, 4, 1
	cfg.BreakerThreshold, cfg.BreakerCooldown = 1, time.Minute
	cfg.DataDir, cfg.Tenants = t.TempDir(), all
	m := &books{tenant: map[string]string{}, state: map[string]State{}, idem: map[string]string{}}
	var svc *Service
	queued := func(tn string) (n int) {
		for id, owner := range m.tenant {
			if m.state[id] == StateQueued && (tn == "" || owner == tn) {
				n++
			}
		}
		return n
	}
	evict := func() {
		for ; len(m.hist) > cfg.MaxJobHistory; m.hist = m.hist[1:] {
			delete(m.tenant, m.hist[0])
		}
	}
	start := func() {
		faults := newInjector()
		if m.armed = rng.Intn(2) == 0; m.armed {
			faults.failVisits(siteCompile, 1, 1)
		}
		var err error
		if svc, err = newService([]*arch.Device{arch.London(), arch.IBMQ16(0)}, cfg, faults); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		page := svc.JobsPage("", -1, 0)
		for _, rec := range page {
			if owner, ok := m.tenant[rec.ID]; !ok || owner != rec.Tenant || m.state[rec.ID] != rec.State {
				t.Fatalf("%s: store holds %s (tenant %q, %s); model has it %v (tenant %q, %s)", step, rec.ID, rec.Tenant, rec.State, ok, owner, m.state[rec.ID])
			}
		}
		svc.mu.Lock()
		hist := slices.Clone(svc.terminalIDs)
		svc.mu.Unlock()
		if len(page) != len(m.tenant) || !slices.Equal(hist, m.hist) {
			t.Fatalf("%s: store holds %d records, history %v; model %d, %v", step, len(page), hist, len(m.tenant), m.hist)
		}
		snap := svc.MetricsSnapshot()
		var tot TenantMetrics
		for _, row := range snap.Tenancy.Tenants {
			want := *m.rows[row.ID]
			want.Weight, want.MaxQueued, want.Queued = row.Weight, row.MaxQueued, queued(row.ID)
			if row != want || row.Submitted != int64(row.Queued)+row.Completed+row.Failed {
				t.Fatalf("%s: tenant row %+v, model %+v", step, row, want)
			}
			tot.Submitted, tot.Rejected, tot.Completed, tot.Failed = tot.Submitted+row.Submitted, tot.Rejected+row.Rejected, tot.Completed+row.Completed, tot.Failed+row.Failed
		}
		j, q, w := snap.Jobs, snap.Queue, snap.WAL
		if len(snap.Tenancy.Tenants) != len(m.rows) || j.Accepted != tot.Submitted || j.Rejected != tot.Rejected || j.Completed != tot.Completed || j.Failed != tot.Failed ||
			q.Depth != int64(queued("")) || q.InFlight != 0 || j.Accepted != q.Depth+q.InFlight+j.Completed+j.Failed || w.ReplayedJobs != m.replayed || w.ReplaySkipped != m.skipped {
			t.Fatalf("%s: jobs %+v, queue %+v, wal %+v; model rows %+v, queued %d, replayed %d, skipped %d", step, j, q, w, tot, queued(""), m.replayed, m.skipped)
		}
	}
	submit := func() {
		tn, k, key := cfg.Tenants[rng.Intn(len(cfg.Tenants))].ID, rng.Intn(len(progs)), ""
		if rng.Intn(2) == 0 {
			key = fmt.Sprint("k", k)
		}
		rec, dup, err := svc.SubmitJob(nisqbench.MustGet(progs[k]), SubmitOptions{Tenant: tn, IdempotencyKey: key})
		if id, ok := m.idem[tn+"/"+key]; ok && m.tenant[id] != "" {
			if err != nil || !dup || rec.ID != id {
				t.Fatalf("resubmit of %s under %s/%s: %+v, dup %v, %v", id, tn, key, rec, dup, err)
			}
			return
		}
		var want error
		if queued("") >= cfg.QueueSize {
			want = ErrQueueFull
		} else if queued(tn) >= maxQueued[tn] {
			want = ErrTenantQuota
		}
		if want != nil || err != nil {
			if !errors.Is(err, want) || want == nil {
				t.Fatalf("submit for %s: %v, want %v", tn, err, want)
			}
			m.rows[tn].Rejected++
			return
		}
		id := fmt.Sprintf("job-%06d", m.seq)
		if dup || rec.ID != id {
			t.Fatalf("submit for %s: %+v, dup %v, want new %s", tn, rec, dup, id)
		}
		m.seq++
		m.tenant[id], m.state[id] = tn, StateQueued
		m.rows[tn].Submitted++
		if key != "" {
			m.idem[tn+"/"+key] = id
		}
	}
	drain := func() {
		var ran []string
		for id := range m.tenant {
			if m.state[id] == StateQueued {
				ran = append(ran, id)
			}
		}
		svc.Start()
		for s := svc.MetricsSnapshot(); s.Queue.Depth+s.Queue.InFlight > 0; s = svc.MetricsSnapshot() {
			time.Sleep(time.Millisecond)
		}
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, id := range ran {
			rec, _ := svc.Job(id)
			if m.state[id] = rec.State; rec.State == StateDone {
				m.rows[rec.Tenant].Completed++
			} else if rec.State == StateFailed {
				failed++
				m.rows[rec.Tenant].Failed++
			}
		}
		svc.mu.Lock()
		tail := slices.Clone(svc.terminalIDs[max(0, len(svc.terminalIDs)-len(ran)):])
		svc.mu.Unlock()
		m.hist = append(m.hist, tail...)
		evict()
		slices.Sort(ran)
		if slices.Sort(tail); !slices.Equal(tail, ran) || (m.armed && len(ran) > 0) != (failed == 1) || failed > 1 {
			t.Fatalf("drain ended %v of %v queued, %d failed (fault armed %v)", tail, ran, failed, m.armed)
		}
		check("drain")
	}
	// restart replaces the process on the same data dir; the previous one
	// was drained or is abandoned unstarted, as a kill leaves it. A
	// quarter of restarts drop carol from the key table for one process,
	// and a third find a pending record that no longer parses.
	restart := func() {
		if rng.Intn(4) == 0 && len(cfg.Tenants) == len(all) {
			cfg.Tenants = all[:2]
		} else if len(cfg.Tenants) < len(all) {
			cfg.Tenants = all
		}
		m.rows, m.replayed, m.skipped = map[string]*TenantMetrics{}, 0, 0
		for _, tn := range cfg.Tenants {
			m.rows[tn.ID] = &TenantMetrics{ID: tn.ID}
		}
		var hist, queuedIDs []string
		for id := range m.tenant {
			if m.state[id] == StateQueued {
				queuedIDs = append(queuedIDs, id)
			}
		}
		for _, id := range append(slices.Clone(m.hist), queuedIDs...) {
			row := m.rows[m.tenant[id]]
			switch {
			case row == nil:
				delete(m.tenant, id)
				m.skipped++
			case m.state[id] == StateQueued:
				row.Submitted++
				m.replayed++
			default:
				hist = append(hist, id)
				m.replayed++
			}
		}
		if rng.Intn(3) == 0 {
			tn, id := cfg.Tenants[rng.Intn(len(cfg.Tenants))].ID, fmt.Sprintf("job-%06d", m.seq)
			l, _, err := wal.Open(filepath.Join(cfg.DataDir, "wal.jsonl"))
			if err == nil {
				err = errors.Join(l.Append(wal.Record{Type: wal.TypeSubmit, ID: id, Seq: m.seq, Tenant: tn, Name: "bad", QASM: "bogus;"}), l.Close())
			}
			if err != nil {
				t.Fatal(err)
			}
			m.seq++
			m.tenant[id], m.state[id] = tn, StateFailed
			m.rows[tn].Submitted++
			m.rows[tn].Failed++
			hist = append(hist, id)
		}
		m.hist = hist
		evict()
		start()
		check("restart")
		data, err := os.ReadFile(filepath.Join(cfg.DataDir, "wal.jsonl"))
		if n := bytes.Count(data, []byte("\n")) - bytes.Count(data, []byte(`"t":"seq"`)); err != nil || n != 2*len(m.hist)+queued("") {
			t.Fatalf("restart: the log holds %d job records (%v), want %d terminal pairs and %d submits", n, err, len(m.hist), queued(""))
		}
	}
	m.rows = map[string]*TenantMetrics{"alice": {ID: "alice"}, "bob": {ID: "bob"}, "carol": {ID: "carol"}}
	start()
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			submit()
			check(fmt.Sprint("step ", i, " submit"))
		case r < 8:
			drain()
			restart()
		default:
			restart()
		}
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
