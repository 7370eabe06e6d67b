package service

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram accumulates float64 observations into fixed buckets. The
// bounds are upper-inclusive bucket edges; observations above the last
// bound land in an implicit overflow bucket.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // immutable after NewHistogram; read under mu with counts
	counts  []int64   // guarded by mu
	sum     float64   // guarded by mu
	count   int64     // guarded by mu
	min     float64   // guarded by mu
	max     float64   // guarded by mu
	dropped int64     // guarded by mu; non-finite samples rejected by Observe
}

// NewHistogram returns a histogram over the given ascending bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one sample. Non-finite samples (NaN, ±Inf) are
// dropped into a counter instead of being accumulated: one poisoned
// observation would otherwise corrupt sum/mean/min/max permanently and
// make the JSON /metrics encoding fail outright (encoding/json rejects
// non-finite floats).
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.dropped++
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// HistogramSnapshot is a point-in-time summary of a Histogram. Dropped
// counts the non-finite samples Observe rejected (0 when healthy, so
// the field is omitted from JSON unless something fed the histogram
// NaN/Inf).
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Dropped int64   `json:"dropped,omitempty"`
}

// Snapshot summarizes the histogram. Quantiles are estimated from the
// bucket midpoints (the overflow bucket reports the observed max).
// Every float field is guaranteed finite: Observe drops non-finite
// samples, and sanitizeLocked backstops accumulator overflow, so a
// snapshot can always be JSON-encoded.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Dropped: h.dropped}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	s.sanitize()
	return s
}

// sanitize zeroes any non-finite summary field. Observe keeps poison
// out, but sum can still overflow to +Inf from finite inputs; /metrics
// must stay encodable regardless.
func (s *HistogramSnapshot) sanitize() {
	for _, f := range []*float64{&s.Sum, &s.Mean, &s.Min, &s.Max, &s.P50, &s.P90, &s.P99} {
		if math.IsNaN(*f) || math.IsInf(*f, 0) {
			*f = 0
		}
	}
}

// quantileLocked estimates the q-quantile from the bucket counts. The
// returned midpoint is clamped into [h.min, h.max]: without the clamp a
// single observation reported the raw bucket midpoint (p50 of one
// sample must equal that sample), and a bucket whose lower edge sits
// below h.min leaked the stale edge into the estimate.
func (h *Histogram) quantileLocked(q float64) float64 {
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > target {
			if i >= len(h.bounds) {
				return h.max
			}
			lo := h.min
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if lo > hi {
				lo = hi
			}
			return (lo + hi) / 2
		}
	}
	return h.max
}

// Registry holds what /metrics reports that no other service state
// owns: event counters and latency/size histograms. Every other count
// on /metrics (jobs, queue, batches, breakers, dispatches) is read from
// the state that owns it by Service.MetricsSnapshot.
type Registry struct {
	// JobsEvicted counts terminal job records dropped by the
	// MaxJobHistory retention cap.
	JobsEvicted Counter

	// ColocatedBatches counts batches with >1 program; ColocatedJobs
	// counts the jobs that ran in such batches (numerator of the
	// co-location rate). Both are bumped under Service.mu together with
	// the batch's jobs turning done, so one snapshot sees them agree.
	ColocatedBatches Counter
	ColocatedJobs    Counter

	// Robustness counters: recovered worker panics, batches failed by
	// the per-batch deadline, and co-location fallbacks (tail requeued,
	// head run alone).
	PanicsRecovered Counter
	BatchTimeouts   Counter
	FallbackBatches Counter

	// Compile-cache counters: fingerprint hits and misses, entries
	// evicted by the LRU bound, and requests coalesced onto an
	// in-flight identical compile (singleflight dedup).
	CacheHits      Counter
	CacheMisses    Counter
	CacheEvictions Counter
	CacheCoalesced Counter

	// Multi-tenant front-end counters: submissions rejected by a
	// tenant's admission quota (a subset of jobs.rejected) and
	// submissions collapsed onto an existing job by their idempotency
	// key.
	TenantRejected Counter
	IdempotentHits Counter

	// Write-ahead-log counters: successful and failed appends, jobs
	// restored by startup replay, unparseable lines skipped during
	// replay, and whole replays abandoned (injected or real I/O
	// failure — the service then starts empty but keeps logging).
	WALAppends       Counter
	WALAppendErrors  Counter
	WALReplayedJobs  Counter
	WALReplaySkipped Counter
	WALReplayErrors  Counter

	BatchSize      *Histogram
	QueueLatency   *Histogram // seconds from submit to batch claim
	CompileLatency *Histogram // seconds compiling a batch
	ExecLatency    *Histogram // seconds simulating ("executing") a batch
	TotalLatency   *Histogram // seconds from submit to terminal state
	PST            *Histogram // achieved per-job PST
	CacheLookup    *Histogram // seconds per served cache hit/coalesce
}

// newRegistry returns a registry with the service's bucket layout.
func newRegistry() *Registry {
	latency := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300}
	pst := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}
	// Cache lookups are microseconds, not seconds: their buckets sit
	// three orders of magnitude below the batch-latency layout.
	lookup := []float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.1}
	return &Registry{
		BatchSize:      NewHistogram([]float64{1, 2, 3, 4, 6, 8}),
		QueueLatency:   NewHistogram(latency),
		CompileLatency: NewHistogram(latency),
		ExecLatency:    NewHistogram(latency),
		TotalLatency:   NewHistogram(latency),
		PST:            NewHistogram(pst),
		CacheLookup:    NewHistogram(lookup),
	}
}

// MetricsSnapshot is the JSON document served on /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Jobs          struct {
		Accepted  int64 `json:"accepted"`
		Rejected  int64 `json:"rejected"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
	} `json:"jobs"`
	Batches struct {
		Executed       int64   `json:"executed"`
		Colocated      int64   `json:"colocated"`
		ColocatedJobs  int64   `json:"colocated_jobs"`
		ColocationRate float64 `json:"colocation_rate"`
		TRF            float64 `json:"trf"`
	} `json:"batches"`
	Queue struct {
		Depth    int64 `json:"depth"`
		InFlight int64 `json:"in_flight"`
	} `json:"queue"`
	Robustness struct {
		JobsEvicted     int64 `json:"jobs_evicted"`
		PanicsRecovered int64 `json:"panics_recovered"`
		// BatchRetries is always 0 (batches are not retried); it stays
		// because the benchmark harness reads batch_retries.
		BatchRetries    int64 `json:"batch_retries"`
		BatchTimeouts   int64 `json:"batch_timeouts"`
		SchedulerErrors int64 `json:"scheduler_errors"`
		FallbackBatches int64 `json:"fallback_batches"`
		BreakerTrips    int64 `json:"breaker_trips"`
		OpenBreakers    int64 `json:"open_breakers"`
	} `json:"robustness"`
	Cache struct {
		Hits          int64             `json:"hits"`
		Misses        int64             `json:"misses"`
		Evictions     int64             `json:"evictions"`
		Coalesced     int64             `json:"coalesced"`
		HitRate       float64           `json:"hit_rate"`
		LookupSeconds HistogramSnapshot `json:"lookup_seconds"`
	} `json:"cache"`
	LatencySeconds struct {
		Queue   HistogramSnapshot `json:"queue"`
		Compile HistogramSnapshot `json:"compile"`
		Execute HistogramSnapshot `json:"execute"`
		Total   HistogramSnapshot `json:"total"`
	} `json:"latency_seconds"`
	BatchSize HistogramSnapshot `json:"batch_size"`
	PST       HistogramSnapshot `json:"pst"`
	Fleet     *FleetSection     `json:"fleet,omitempty"`
	Tenancy   *TenancySection   `json:"tenancy,omitempty"`
	WAL       struct {
		Appends       int64 `json:"appends"`
		AppendErrors  int64 `json:"append_errors"`
		ReplayedJobs  int64 `json:"replayed_jobs"`
		ReplaySkipped int64 `json:"replay_skipped"`
		ReplayErrors  int64 `json:"replay_errors"`
	} `json:"wal"`
}

// TenancySection is the /metrics view of the multi-tenant front end:
// whether bearer auth is enforced, the front-end-wide counters, and
// one row per tenant (ordered by ID).
type TenancySection struct {
	AuthRequired   bool            `json:"auth_required"`
	QuotaRejected  int64           `json:"quota_rejected"`
	IdempotentHits int64           `json:"idempotent_hits"`
	Tenants        []TenantMetrics `json:"tenants"`
}

// FleetSection is the /metrics view of the fleet dispatcher: the
// active policy and the fleet-wide routing counters. Per-chip dispatch
// state is each backend's row on /v1/backends.
type FleetSection struct {
	Policy       string `json:"policy"`
	Dispatches   int64  `json:"dispatches"`
	JobsMigrated int64  `json:"jobs_migrated"`
}

// MetricsSnapshot assembles the /metrics document. Each count the
// service state owns is read from its owner — the kernel's queue and
// per-chip load, the workers' batch, breaker and migration counts, the
// tenants' job outcomes — all under one Service.mu acquisition, so the
// document agrees with every job record and /v1/backends row a client
// could have read before it. The registry supplies the rest.
func (s *Service) MetricsSnapshot() MetricsSnapshot {
	r := s.metrics
	var m MetricsSnapshot
	m.Fleet = &FleetSection{Policy: s.cfg.FleetPolicy}
	m.Tenancy = &TenancySection{AuthRequired: s.authRequired, Tenants: make([]TenantMetrics, len(s.tenantList))}

	s.mu.Lock()
	m.UptimeSeconds = time.Since(s.start).Seconds()
	m.Queue.Depth = int64(s.kernel.Len())
	m.Queue.InFlight = int64(s.kernel.Running())
	for _, w := range s.workers {
		m.Batches.Executed += w.batchesDone
		m.Robustness.SchedulerErrors += w.schedErrs
		m.Robustness.BreakerTrips += w.brk.opens
		if w.brk.state != breakerClosed {
			m.Robustness.OpenBreakers++
		}
		m.Fleet.Dispatches += s.kernel.Candidate(w.index).Load.Dispatched
		m.Fleet.JobsMigrated += w.migrated
	}
	for i, t := range s.tenantList {
		m.Tenancy.Tenants[i] = TenantMetrics{
			ID:        t.cfg.ID,
			Weight:    t.weight,
			MaxQueued: t.maxQueued,
			Queued:    t.flow.Queued(),
			Submitted: t.submitted,
			Completed: t.completed,
			Failed:    t.failed,
			Rejected:  t.rejected,
		}
		m.Jobs.Accepted += t.submitted
		m.Jobs.Rejected += t.rejected
		m.Jobs.Completed += t.completed
		m.Jobs.Failed += t.failed
	}
	// The registry's counters are read under the lock too: those bumped
	// under it (co-location, quota, WAL) then agree with the counts above.
	m.Batches.Colocated = r.ColocatedBatches.Value()
	m.Batches.ColocatedJobs = r.ColocatedJobs.Value()
	m.Robustness.JobsEvicted = r.JobsEvicted.Value()
	m.Robustness.PanicsRecovered = r.PanicsRecovered.Value()
	m.Robustness.BatchTimeouts = r.BatchTimeouts.Value()
	m.Robustness.FallbackBatches = r.FallbackBatches.Value()
	m.Cache.Hits = r.CacheHits.Value()
	m.Cache.Misses = r.CacheMisses.Value()
	m.Cache.Evictions = r.CacheEvictions.Value()
	m.Cache.Coalesced = r.CacheCoalesced.Value()
	m.Tenancy.QuotaRejected = r.TenantRejected.Value()
	m.Tenancy.IdempotentHits = r.IdempotentHits.Value()
	m.WAL.Appends = r.WALAppends.Value()
	m.WAL.AppendErrors = r.WALAppendErrors.Value()
	m.WAL.ReplayedJobs = r.WALReplayedJobs.Value()
	m.WAL.ReplaySkipped = r.WALReplaySkipped.Value()
	m.WAL.ReplayErrors = r.WALReplayErrors.Value()
	s.mu.Unlock()

	done := m.Jobs.Completed + m.Jobs.Failed
	if m.Batches.Executed > 0 {
		m.Batches.TRF = float64(done) / float64(m.Batches.Executed)
	}
	if done > 0 {
		m.Batches.ColocationRate = float64(m.Batches.ColocatedJobs) / float64(done)
	}
	if total := m.Cache.Hits + m.Cache.Misses + m.Cache.Coalesced; total > 0 {
		m.Cache.HitRate = float64(m.Cache.Hits+m.Cache.Coalesced) / float64(total)
	}
	m.Cache.LookupSeconds = r.CacheLookup.Snapshot()
	m.LatencySeconds.Queue = r.QueueLatency.Snapshot()
	m.LatencySeconds.Compile = r.CompileLatency.Snapshot()
	m.LatencySeconds.Execute = r.ExecLatency.Snapshot()
	m.LatencySeconds.Total = r.TotalLatency.Snapshot()
	m.BatchSize = r.BatchSize.Snapshot()
	m.PST = r.PST.Snapshot()
	return m
}
