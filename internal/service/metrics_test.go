package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/nisqbench"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 800 {
		t.Fatalf("counter: got %d, want 800", c.Value())
	}
	c.Add(42)
	if c.Value() != 842 {
		t.Fatalf("counter add: got %d", c.Value())
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("empty histogram: %+v", s)
	}
	for _, v := range []float64{0.5, 1.5, 1.5, 4, 20} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count: got %d", s.Count)
	}
	if s.Min != 0.5 || s.Max != 20 {
		t.Fatalf("min/max: %+v", s)
	}
	if want := 27.5 / 5; s.Mean != want {
		t.Fatalf("mean: got %v want %v", s.Mean, want)
	}
	// The median observation (1.5) lands in the (1,2] bucket.
	if s.P50 < 1 || s.P50 > 2 {
		t.Fatalf("p50 outside its bucket: %v", s.P50)
	}
	// The 99th percentile is the overflow observation.
	if s.P99 != 20 {
		t.Fatalf("p99: got %v want 20", s.P99)
	}
}

// TestHistogramDropsNonFinite is the regression test for the
// metrics-poisoning bug: a single NaN or ±Inf observation used to
// corrupt sum/mean (and min/max) forever — and break the JSON /metrics
// encoding, which rejects non-finite floats. Such samples must now land
// in the dropped counter without touching any accumulator.
func TestHistogramDropsNonFinite(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	h.Observe(1.5)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.Observe(v)
	}
	h.Observe(0.5)

	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count includes dropped samples: %+v", s)
	}
	if s.Dropped != 3 {
		t.Fatalf("dropped: got %d, want 3", s.Dropped)
	}
	if s.Sum != 2 || s.Min != 0.5 || s.Max != 1.5 {
		t.Fatalf("accumulators poisoned: %+v", s)
	}
	for name, v := range map[string]float64{
		"sum": s.Sum, "mean": s.Mean, "min": s.Min, "max": s.Max,
		"p50": s.P50, "p90": s.P90, "p99": s.P99,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s is non-finite: %v", name, v)
		}
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

// TestHistogramSingleSampleQuantiles: p50 (and every quantile) of one
// observation must equal that observation, not the raw midpoint of
// whatever bucket it landed in.
func TestHistogramSingleSampleQuantiles(t *testing.T) {
	for _, v := range []float64{0.3, 4, 7.5, 100} { // interior, edge-adjacent, overflow
		h := NewHistogram([]float64{1, 2, 5, 10})
		h.Observe(v)
		s := h.Snapshot()
		if s.P50 != v || s.P90 != v || s.P99 != v {
			t.Fatalf("single sample %v: quantiles %v/%v/%v, want all == %v", v, s.P50, s.P90, s.P99, v)
		}
	}
}

// TestHistogramQuantileClampedToObservedRange: bucket edges outside the
// observed [min, max] must not leak into the estimate.
func TestHistogramQuantileClampedToObservedRange(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	// Both samples land in the (1,10] bucket; its raw midpoint 5.5 is
	// outside the observed range [4, 4.5].
	h.Observe(4)
	h.Observe(4.5)
	s := h.Snapshot()
	if s.P50 < s.Min || s.P50 > s.Max {
		t.Fatalf("p50 %v escaped the observed range [%v, %v]", s.P50, s.Min, s.Max)
	}
}

// TestHistogramDuplicateBounds: duplicate bucket edges create
// permanently empty zero-width buckets; quantile estimation must skip
// them and still report values inside the observed range.
func TestHistogramDuplicateBounds(t *testing.T) {
	h := NewHistogram([]float64{1, 1, 2, 2, 5})
	for _, v := range []float64{0.5, 1.5, 3} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count: %+v", s)
	}
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile %v outside [%v, %v]", q, s.Min, s.Max)
		}
	}
	if s.P50 < 1 || s.P50 > 2 {
		t.Fatalf("median observation 1.5 should estimate inside (1,2], got %v", s.P50)
	}
}

// TestHistogramEmptyBuckets: a distribution with large gaps (most
// buckets empty) must still produce in-range quantiles.
func TestHistogramEmptyBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10, 50, 100})
	h.Observe(0.1)
	h.Observe(99)
	s := h.Snapshot()
	if s.P50 < s.Min || s.P50 > s.Max || s.P99 < s.Min || s.P99 > s.Max {
		t.Fatalf("quantiles escaped observed range: %+v", s)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				h.Observe(0.75)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 2000 {
		t.Fatalf("lost observations: %+v", s)
	}
}

// TestMetricsSnapshotJSON checks the ratios /metrics derives from the
// counts it reads off the service state, and that the document survives
// a JSON round trip.
func TestMetricsSnapshotJSON(t *testing.T) {
	svc := newTestService(t, testConfig())
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	svc.mu.Lock()
	tn := svc.tenants[DefaultTenantID]
	tn.submitted, tn.completed, tn.failed = 10, 8, 2
	svc.workers[0].batchesDone = 5
	svc.metrics.ColocatedBatches.Add(3)
	svc.metrics.ColocatedJobs.Add(6)
	svc.mu.Unlock()
	svc.metrics.BatchSize.Observe(2)
	svc.metrics.PST.Observe(0.9)
	s := svc.MetricsSnapshot()
	if s.Batches.TRF != 2 {
		t.Fatalf("derived batch stats: %+v", s.Batches)
	}
	if s.Batches.ColocationRate != 0.6 {
		t.Fatalf("colocation rate: %+v", s.Batches)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Jobs.Accepted != 10 || back.Tenancy.Tenants[0].Completed != 8 {
		t.Fatalf("round trip lost data: %+v %+v", back.Jobs, back.Tenancy)
	}
}

// parkHook is a fault hook that parks the nth latency observation until
// release closes. It takes no service lock: the queue-latency
// observation fires under Service.mu.
type parkHook struct {
	n       int
	mu      sync.Mutex
	seen    int // guarded by mu
	parked  chan struct{}
	release chan struct{}
}

func (h *parkHook) visit(context.Context, string) error { return nil }

func (h *parkHook) observe(site string, v float64) float64 {
	if site != siteLatency {
		return v
	}
	h.mu.Lock()
	h.seen++
	n := h.seen
	h.mu.Unlock()
	if n == h.n {
		close(h.parked)
		<-h.release
	}
	return v
}

// TestMetricsAgreeWithJobStates takes a /metrics snapshot while a
// one-job run is parked on its execute-latency observation — the fourth
// (queue, compile, total at the done transition, execute), made after
// the job turned done and outside Service.mu. Every count must already
// agree with the job's record and its tenant's row.
func TestMetricsAgreeWithJobStates(t *testing.T) {
	hook := &parkHook{n: 4, parked: make(chan struct{}), release: make(chan struct{})}
	svc, err := newService([]*arch.Device{arch.London()}, testConfig(), hook)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	if _, err := svc.Submit(nisqbench.MustGet("bv_n3")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hook.parked:
	case <-time.After(60 * time.Second):
		t.Fatal("the execute-latency observation never came")
	}
	snap := svc.MetricsSnapshot()
	var done int64
	for _, rec := range svc.Jobs() {
		if rec.State == StateDone {
			done++
		}
	}
	close(hook.release)
	shutdownClean(t, svc)

	row := snap.Tenancy.Tenants[0]
	if done != 1 || snap.Jobs.Completed != done || row.Completed != done {
		t.Fatalf("jobs.completed %d, tenant row completed %d, done jobs %d: want all 1",
			snap.Jobs.Completed, row.Completed, done)
	}
	if snap.Batches.Executed != 1 || snap.Batches.TRF != 1 || snap.Queue.InFlight != 0 || snap.Queue.Depth != 0 {
		t.Fatalf("batches %+v, queue %+v after one done job", snap.Batches, snap.Queue)
	}
}

// TestMetricsBalanceUnderLoad scrapes /metrics's snapshot from another
// goroutine while two backends work through a burst: every snapshot
// must balance, each accepted job queued, in flight or terminal.
func TestMetricsBalanceUnderLoad(t *testing.T) {
	svc := newTestService(t, testConfig())
	svc.Start()
	stop := make(chan struct{})
	scraped := make(chan string, 1)
	go func() {
		for n := 0; ; n++ {
			select {
			case <-stop:
				scraped <- ""
				return
			default:
			}
			m := svc.MetricsSnapshot()
			if got := m.Queue.Depth + m.Queue.InFlight + m.Jobs.Completed + m.Jobs.Failed; got != m.Jobs.Accepted {
				scraped <- fmt.Sprintf("snapshot %d: queued %d + in flight %d + completed %d + failed %d != accepted %d",
					n, m.Queue.Depth, m.Queue.InFlight, m.Jobs.Completed, m.Jobs.Failed, m.Jobs.Accepted)
				return
			}
		}
	}()
	for i := 0; i < 16; i++ {
		if _, err := svc.Submit(nisqbench.MustGet("bv_n3")); err != nil {
			t.Fatal(err)
		}
	}
	shutdownClean(t, svc)
	close(stop)
	if msg := <-scraped; msg != "" {
		t.Fatal(msg)
	}
	if m := svc.MetricsSnapshot(); m.Jobs.Completed != 16 {
		t.Fatalf("jobs %+v after the drain, want 16 completed", m.Jobs)
	}
}
