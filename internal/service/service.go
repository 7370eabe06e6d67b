// Package service implements qucloudd, the long-running QuCloud
// compilation service: an HTTP/JSON front end over a bounded in-memory
// job queue, dispatched across one goroutine worker per registered
// backend (internal/arch device). Every admitted job is routed to a
// specific chip by the fleet dispatcher (internal/fleet) under a
// pluggable allocation policy — speed, fidelity, fairness, or balanced
// — scored from per-chip calibration summaries, live queue depth, and
// smoothed service times. Each worker pulls batches of its own jobs
// with the EPST scheduler (internal/sched), compiles them through the
// QuCloud pipeline (internal/core), "executes" them on the noisy
// simulator (internal/sim), and records per-job results in an
// in-memory store with lifecycle states
// (queued → batched → compiling → done/failed). When a backend's
// circuit breaker opens, its still-queued jobs migrate back through
// the dispatcher onto healthy chips.
//
// The queue applies backpressure: when it is full, Submit returns
// ErrQueueFull and the HTTP layer answers 429. Shutdown drains the
// queue and finishes in-flight batches; cancel the drain context to
// force workers to stop after their current batch.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/cloudsim"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/wal"
)

// State is a job's lifecycle stage.
type State string

// The job lifecycle. Terminal states are StateDone and StateFailed.
const (
	StateQueued    State = "queued"
	StateBatched   State = "batched"
	StateCompiling State = "compiling"
	StateDone      State = "done"
	StateFailed    State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Config tunes the service.
type Config struct {
	// QueueSize bounds the pending-job queue; submissions beyond it
	// are rejected with ErrQueueFull (HTTP 429).
	QueueSize int
	// FleetPolicy names the internal/fleet allocation policy that routes
	// each admitted job to a backend (speed, fidelity, fairness,
	// balanced). Empty selects "balanced".
	FleetPolicy string
	// Epsilon is the EPST violation threshold every backend schedules
	// with. Unlike the other fields its zero is a setting, not "use the
	// default": ε = 0 admits only loss-free co-locations.
	Epsilon float64
	// Lookahead and MaxColocate pass through to the EPST scheduler.
	Lookahead   int
	MaxColocate int
	// Trials is the Monte-Carlo budget per executed batch.
	Trials int
	// ExecDwell emulates hardware occupancy: after simulating a batch
	// the worker holds its backend busy for this wall-clock duration,
	// approximating shots × (reset + readout + depth·layer) on a real
	// QPU (the offline cloudsim's timing model). The simulator itself
	// answers at CPU speed, which makes queueing behaviour — and any
	// fleet scale-out measurement — unrealistically compute-bound
	// without it. 0 (the default) disables the dwell.
	ExecDwell time.Duration
	// Attempts is the compiler's best-of-N seed count
	// (core.Compiler.Attempts: a batch whose first attempt broke no
	// routing tie compiles once whatever N is).
	Attempts int
	// Seed derives each worker's deterministic simulation seeds.
	Seed int64
	// RequestTimeout bounds each HTTP request (http.TimeoutHandler).
	RequestTimeout time.Duration
	// TraceDepth is how many recent batch records and routing decisions
	// each backend keeps.
	TraceDepth int

	// BatchTimeout is the per-batch execution deadline: one
	// compile+simulate attempt may spend at most this long, checked at
	// compiler-attempt and simulation-shard boundaries, so a runaway
	// X-SWAP search fails the batch instead of wedging the backend.
	// 0 selects the default; negative disables the deadline.
	BatchTimeout time.Duration
	// BreakerThreshold opens a backend's circuit breaker after this
	// many consecutive batch failures; the backend then drains (claims
	// nothing) for BreakerCooldown before a single half-open probe
	// batch decides between closing and re-opening. 0 selects the
	// default; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker drains before the
	// half-open probe. 0 selects the default; negative probes
	// immediately.
	BreakerCooldown time.Duration
	// MaxJobHistory caps how many terminal job records the in-memory
	// store retains; beyond it the oldest terminal records are evicted
	// (GET on an evicted id returns 404) so a long-running daemon does
	// not leak. 0 selects the default (~4096); negative disables
	// eviction.
	MaxJobHistory int
	// CacheSize bounds the compile-result cache shared by all backend
	// workers: compiled batches are keyed by a content fingerprint of
	// (circuit structure, device + calibration version, strategy,
	// compiler knobs), so resubmitting an identical workload skips the
	// compile entirely and concurrent identical jobs coalesce onto one
	// compilation. 0 selects the default (1024 entries); negative
	// disables caching.
	CacheSize int
	// Tenants is the static API-key table for the multi-tenant front
	// end. Empty (the default) runs the service open: no authentication,
	// every job owned by the implicit "default" tenant. Non-empty turns
	// on bearer-token auth, weighted-fair queueing, and per-tenant
	// admission control.
	Tenants []Tenant
	// DataDir, when non-empty, enables the write-ahead job log
	// (<DataDir>/wal.jsonl): admitted jobs are logged before their
	// submission is acknowledged and replayed on the next startup, so
	// queued jobs survive a restart or kill.
	DataDir string
}

// DefaultConfig returns production-ish defaults around the paper's
// ε = 0.15 operating point.
func DefaultConfig() Config {
	return Config{
		QueueSize:      256,
		FleetPolicy:    "balanced",
		Epsilon:        0.15,
		Lookahead:      10,
		MaxColocate:    3,
		Trials:         512,
		Attempts:       1,
		Seed:           1,
		RequestTimeout: 30 * time.Second,
		TraceDepth:     64,

		BatchTimeout:     2 * time.Minute,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
		MaxJobHistory:    4096,
		CacheSize:        1024,
	}
}

// Sentinel submission errors, mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull signals backpressure (HTTP 429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrShuttingDown rejects submissions during drain (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrTooLarge rejects programs no backend can hold (HTTP 400).
	ErrTooLarge = errors.New("service: program too large for every backend")
)

// JobRecord is the persisted, client-visible view of a job. Seq is the
// job's ID inside the scheduler (sched.Job.ID, the IDs batch records
// list) and ArrivalSeconds its submission time in seconds since
// service start.
type JobRecord struct {
	ID             string    `json:"id"`
	Seq            int       `json:"seq"`
	Tenant         string    `json:"tenant,omitempty"`
	Name           string    `json:"name"`
	Qubits         int       `json:"qubits"`
	Gates          int       `json:"gates"`
	State          State     `json:"state"`
	Backend        string    `json:"backend,omitempty"`
	CoJobs         []int     `json:"co_jobs,omitempty"`
	SubmittedAt    time.Time `json:"submitted_at"`
	ArrivalSeconds float64   `json:"arrival_seconds"`
	WaitSeconds    float64   `json:"wait_seconds,omitempty"`
	ServiceSeconds float64   `json:"service_seconds,omitempty"`
	PST            float64   `json:"pst,omitempty"`
	Error          string    `json:"error,omitempty"`
}

// job pairs the client-visible record with the job's scheduler-kernel
// item (item.Owner points back at the job; item.Chip is the worker the
// dispatcher routed it to). All fields are guarded by Service.mu except
// tenant, idemKey, fp and logged, which are immutable after admission.
type job struct {
	rec     JobRecord
	item    sched.Item
	claimed time.Time

	tenant  *tenantState // owning tenant; immutable after admission
	idemKey string       // idempotency key binding to release on eviction; immutable
	fp      string       // the key's content fingerprint; immutable
	logged  walHas       // what the WAL held when the job entered the store; immutable
	qasm    string       // the submit record's source, serialized before s.mu; dropped once logged

	lastQueued   time.Time // guarded by mu; when the job last entered the queue
	waitObserved bool      // guarded by mu; QueueLatency recorded (once per job)

	events   []JobEvent      // guarded by mu; lifecycle events, Seq ascending
	eventSeq int             // guarded by mu; Seq of the latest event
	watchers []chan struct{} // guarded by mu; SSE subscriber wakeups (cap 1)
}

// walHas says which of a job's records the write-ahead log already
// held when the job entered this process's store; transitionLocked
// neither logs nor counts them again.
type walHas uint8

const (
	walNone   walHas = iota // a live submission: both records are logged here
	walSubmit               // a replayed pending job: only its outcome is logged here
	walBoth                 // a restored terminal record: it counts only as replayed
)

// BreakerStatus surfaces a worker's circuit-breaker state: "closed"
// (normal), "open" (draining after BreakerThreshold consecutive batch
// failures), or "half-open" (one probe batch in flight after the
// cooldown).
type BreakerStatus struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Opens               int64  `json:"opens"`
}

// BackendStatus is one backend's row on GET /v1/backends, the one
// document that reports per-chip state: the chip's calibration summary
// and the dispatcher's live load (embedded from the scheduler kernel),
// the worker's counters and breaker, and its recent batches and the
// routing decisions that sent jobs to it, each oldest first.
type BackendStatus struct {
	fleet.Chip
	fleet.Load
	Epsilon          float64                `json:"epsilon"`
	JobsCompleted    int64                  `json:"jobs_completed"`
	BatchesExecuted  int64                  `json:"batches_executed"`
	Migrated         int64                  `json:"migrated"`
	Breaker          BreakerStatus          `json:"breaker"`
	SchedulerErrors  int64                  `json:"scheduler_errors,omitempty"`
	LastSchedError   string                 `json:"last_scheduler_error,omitempty"`
	RecentBatches    []cloudsim.BatchRecord `json:"recent_batches,omitempty"`
	RecentDispatches []DispatchDecision     `json:"recent_dispatches,omitempty"`
}

// Service is the qucloudd runtime: job store, bounded queue, and one
// worker per backend.
type Service struct {
	cfg       Config
	start     time.Time
	metrics   *Registry
	workers   []*worker
	maxQubits int
	// cache is the compile-result cache shared by every worker (keys
	// embed the device name and calibration version, so backends never
	// collide); nil when Config.CacheSize disables caching.
	cache *ccache.Cache
	// tenants/tenantsByKey/tenantList index the tenant table three ways
	// (by ID, by API key, ordered by ID for deterministic iteration);
	// the maps and slice are immutable after New, the pointed-to states
	// hold mu-guarded accounting. authRequired is true when
	// Config.Tenants was non-empty (bearer auth enforced).
	tenants      map[string]*tenantState
	tenantsByKey map[string]*tenantState
	tenantList   []*tenantState
	authRequired bool
	// wlog is the write-ahead job log; nil when Config.DataDir is empty.
	wlog *wal.Log
	// faults is the chaos tests' fault hook; nil in every program.
	faults faultHook

	// stopCh closes when Shutdown begins, waking workers out of
	// breaker-cooldown sleeps and ending SSE streams.
	stopCh   chan struct{}
	stopOnce sync.Once
	// runCtx is the root context every worker loop (and every per-batch
	// deadline) descends from; a forced Shutdown cancels it so in-flight
	// compiles and simulations abort instead of running to completion
	// after the caller has given up.
	runCtx    context.Context
	runCancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond // signals queue/lifecycle changes; Wait called with mu held
	// kernel is the scheduler state machine shared with the offline
	// simulators: fair queue, per-chip dispatch load, per-chip EPST claim.
	kernel      *sched.Kernel   // guarded by mu
	jobs        map[string]*job // guarded by mu
	terminalIDs []string        // guarded by mu; terminal job ids, oldest first (eviction order)
	seq         int             // guarded by mu
	accepting   bool            // guarded by mu
	draining    bool            // guarded by mu
	forced      bool            // guarded by mu
	started     bool            // guarded by mu
	wg          sync.WaitGroup
}

// faultHook injects faults at the named sites of the service path. No
// program installs one: the chaos tests build their service through
// newService with a scripted hook and drive it through panics,
// timeouts, error bursts and poisoned observations.
type faultHook interface {
	// visit runs before the guarded call at site. It may sleep (bounded
	// by ctx), panic, or return an error the call then fails with.
	visit(ctx context.Context, site string) error
	// observe passes a measured value through an observation site and
	// returns the value to record in its place.
	observe(site string, measured float64) float64
}

// The fault-hook sites. The schedule and WAL-append sites fire under
// Service.mu, so a hook must not sleep there.
const (
	siteCompile     = "compile"      // before each batch compilation
	siteSimulate    = "simulate"     // before each batch simulation
	siteSchedule    = "schedule"     // in batch claiming, before the EPST scheduler
	siteCacheLookup = "cache-lookup" // an error bypasses the cache for that call
	siteCacheStore  = "cache-store"  // an error serves the result but stores nothing
	siteWALAppend   = "wal-append"   // an error loses that record's durability only
	siteWALReplay   = "wal-replay"   // an error discards the replayed records
	siteLatency     = "latency"      // observation site for every latency reading
)

// visitFault fires the fault hook at site; without a hook it is a nil
// check.
func (s *Service) visitFault(ctx context.Context, site string) error {
	if s.faults == nil {
		return nil
	}
	return s.faults.visit(ctx, site)
}

// New builds a service over the devices (one worker each). Zero-valued
// Config fields other than Epsilon fall back to DefaultConfig; a
// negative or NaN Epsilon is an error. Devices must be non-empty with
// distinct names.
func New(devices []*arch.Device, cfg Config) (*Service, error) {
	return newService(devices, cfg, nil)
}

// newService is New with a fault hook (nil for none). The hook is set
// before the WAL replays, so its replay site fires here.
func newService(devices []*arch.Device, cfg Config, faults faultHook) (*Service, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("service: need at least one backend device")
	}
	def := DefaultConfig()
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = def.QueueSize
	}
	if cfg.Epsilon < 0 || math.IsNaN(cfg.Epsilon) {
		return nil, fmt.Errorf("service: epsilon %v must be a non-negative number", cfg.Epsilon)
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = def.Lookahead
	}
	if cfg.MaxColocate <= 0 {
		cfg.MaxColocate = def.MaxColocate
	}
	if cfg.Trials <= 0 {
		cfg.Trials = def.Trials
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = def.Attempts
	}
	if cfg.TraceDepth <= 0 {
		cfg.TraceDepth = def.TraceDepth
	}
	// Robustness knobs: 0 means "default", negative means "disabled"
	// (normalized to the zero of the mechanism).
	if cfg.BatchTimeout == 0 {
		cfg.BatchTimeout = def.BatchTimeout
	} else if cfg.BatchTimeout < 0 {
		cfg.BatchTimeout = 0
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = def.BreakerThreshold
	} else if cfg.BreakerThreshold < 0 {
		cfg.BreakerThreshold = 0
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = def.BreakerCooldown
	} else if cfg.BreakerCooldown < 0 {
		cfg.BreakerCooldown = 0
	}
	if cfg.MaxJobHistory == 0 {
		cfg.MaxJobHistory = def.MaxJobHistory
	} else if cfg.MaxJobHistory < 0 {
		cfg.MaxJobHistory = 0
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = def.CacheSize
	} else if cfg.CacheSize < 0 {
		cfg.CacheSize = 0
	}
	if cfg.FleetPolicy == "" {
		cfg.FleetPolicy = "balanced"
	}
	fleetPolicy, err := fleet.New(cfg.FleetPolicy)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	tenants, tenantsByKey, tenantList, err := buildTenants(cfg)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	s := &Service{
		cfg:          cfg,
		start:        time.Now(),
		metrics:      newRegistry(),
		jobs:         map[string]*job{},
		stopCh:       make(chan struct{}),
		accepting:    true,
		tenants:      tenants,
		tenantsByKey: tenantsByKey,
		tenantList:   tenantList,
		authRequired: len(cfg.Tenants) > 0,
		faults:       faults,
	}
	s.cond = sync.NewCond(&s.mu)
	//lint:ignore ctxflow the service owns its workers' lifetime, so the run context is rooted here; Shutdown cancels it
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	// With a fault hook, the cache's hooks bind its two sites (lookup
	// outage → bypass, store outage → serve-but-skip-store).
	s.cache = ccache.New(cfg.CacheSize)
	if s.cache != nil {
		s.cache.OnEvict = s.metrics.CacheEvictions.Inc
		if faults != nil {
			s.cache.LookupHook = func(ctx context.Context) error {
				return faults.visit(ctx, siteCacheLookup)
			}
			s.cache.StoreHook = func(ctx context.Context) error {
				return faults.visit(ctx, siteCacheStore)
			}
		}
	}
	for i, d := range devices {
		if seen[d.Name] {
			return nil, fmt.Errorf("service: duplicate backend name %q", d.Name)
		}
		seen[d.Name] = true
		if n := d.NumQubits(); n > s.maxQubits {
			s.maxQubits = n
		}
		s.workers = append(s.workers, newWorker(s, i, d))
	}
	s.kernel = sched.NewKernel(devices, fleetPolicy, sched.Config{
		Epsilon:     cfg.Epsilon,
		Lookahead:   cfg.Lookahead,
		MaxColocate: cfg.MaxColocate,
	})
	if cfg.DataDir != "" {
		if err := s.openWAL(s.runCtx, cfg.DataDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openWAL opens (or creates) the write-ahead job log under dir,
// restores the store the previous process left through restoreLocked —
// its history (the last MaxJobHistory terminal records, in the order
// the jobs ended), then its pending jobs — and compacts the log to
// exactly that store. A fault injected at the replay site discards the
// replayed records (availability over durability) but keeps the log
// open for new appends.
func (s *Service) openWAL(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: data dir: %w", err)
	}
	l, rep, err := wal.Open(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.wlog = l
	if s.faults != nil {
		l.AppendHook = func() error {
			return s.faults.visit(s.runCtx, siteWALAppend)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq = rep.NextSeq() // even a discarded replay's IDs are never reissued
	if err := s.visitFault(ctx, siteWALReplay); err != nil {
		s.metrics.WALReplayErrors.Inc()
		return nil
	}
	s.metrics.WALReplaySkipped.Add(int64(rep.Skipped))
	pending, terminal := rep.Pending()
	if n := s.cfg.MaxJobHistory; n > 0 && len(terminal) > n {
		terminal = terminal[len(terminal)-n:] // evicted before the restart
	}
	for _, r := range terminal {
		s.restoreLocked(r)
	}
	for _, r := range pending {
		s.restoreLocked(r)
	}
	// Shrink the log to the store: the sequence mark (dropped records'
	// IDs are never issued again), a submit/outcome pair per retained
	// terminal record, without QASM, and each requeued job's submit.
	live := make([]wal.Record, 0, 1+2*len(s.terminalIDs)+len(pending))
	if s.seq > 0 {
		live = append(live, wal.Record{Type: wal.TypeSeq, ID: "seq", Seq: s.seq - 1})
	}
	for _, id := range s.terminalIDs {
		j := s.jobs[id]
		live = append(live, submitRecord(j, ""), terminalRecord(j))
	}
	for _, p := range pending {
		if j := s.jobs[p.ID]; j != nil && !j.rec.State.Terminal() {
			live = append(live, submitRecord(j, p.QASM))
		}
	}
	if err := l.Compact(live); err != nil {
		s.metrics.WALAppendErrors.Inc()
	}
	return nil
}

// restoreLocked re-enters one replayed record through transitionLocked.
// A terminal record (merged with its submit) joins the store and the
// history as it was, its terminal event under the Seq and time it had
// live. A pending submit — a job the previous process accepted but
// never finished — is re-parsed and re-admitted with its
// original ID, sequence, tenant, and submission instant (so its
// measured wait honestly includes the downtime); one that no longer
// parses or fits any backend fails instead of vanishing. A record of a
// tenant no longer in the key table is skipped and counted in auth
// mode, and belongs to the default tenant in open mode. Callers hold
// s.mu.
func (s *Service) restoreLocked(r wal.Record) {
	if _, exists := s.jobs[r.ID]; exists {
		return
	}
	tn := s.tenants[r.Tenant]
	if tn == nil {
		// The tenant table changed across the restart; default-tenant
		// jobs (open mode) land here too when tenants were added.
		if s.authRequired {
			s.metrics.WALReplaySkipped.Inc()
			return
		}
		tn = s.tenants[DefaultTenantID]
	}
	submitted := time.Unix(0, r.SubmittedUnixNano)
	j := &job{
		rec: JobRecord{
			ID:             r.ID,
			Seq:            r.Seq,
			Tenant:         tn.cfg.ID,
			Name:           r.Name,
			Qubits:         r.Qubits,
			Gates:          r.Gates,
			Backend:        r.Backend,
			SubmittedAt:    submitted,
			ArrivalSeconds: r.Arrival,
			WaitSeconds:    r.WaitSeconds,
			ServiceSeconds: r.ServiceSeconds,
			PST:            r.PST,
			Error:          r.Error,
		},
		tenant:     tn,
		idemKey:    r.Idem,
		fp:         r.Fingerprint,
		logged:     walSubmit,
		lastQueued: submitted,
	}
	if r.Type != wal.TypeSubmit {
		j.logged = walBoth
		// The outcome record's type names the state, and its terminal
		// event keeps the Seq it had live.
		j.eventSeq = max(r.Event-1, 0)
		s.transitionLocked(j, State(r.Type))
		if r.EndedUnixNano != 0 {
			j.events[len(j.events)-1].At = time.Unix(0, r.EndedUnixNano)
		}
		s.metrics.WALReplayedJobs.Inc()
		return
	}
	circ, err := circuit.ParseQASMString(r.Name, r.QASM)
	if err == nil {
		j.rec.Qubits, j.rec.Gates = circ.NumQubits, len(circ.Gates)
		if s.admitLocked(j, circ) {
			s.metrics.WALReplayedJobs.Inc()
			return
		}
		err = fmt.Errorf("%w: program %q needs %d qubits, largest backend has %d",
			ErrTooLarge, r.Name, circ.NumQubits, s.maxQubits)
	}
	j.rec.Error = "replay: " + err.Error()
	s.transitionLocked(j, StateFailed)
}

// Start launches the backend workers. It is idempotent.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.run(s.runCtx)
	}
}

// observeLatency funnels a measured duration (in seconds) through the
// fault hook's observation site before recording it, so chaos tests
// can substitute NaN/Inf readings; Histogram.Observe drops whatever
// non-finite value comes back instead of letting it poison /metrics.
func (s *Service) observeLatency(h *Histogram, seconds float64) {
	if s.faults != nil {
		seconds = s.faults.observe(siteLatency, seconds)
	}
	h.Observe(seconds)
}

// Uptime is the time since the service was constructed.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// SubmitOptions carries the front-end context of one submission.
type SubmitOptions struct {
	// Tenant is the authenticated tenant's ID; empty selects the
	// implicit default tenant (open mode only).
	Tenant string
	// IdempotencyKey, when non-empty, deduplicates retried submissions:
	// the same tenant resubmitting the same program content under the
	// same key gets the original job's record back instead of a new
	// job; the same key with different content is rejected with
	// ErrIdemConflict.
	IdempotencyKey string
}

// SubmitJob enqueues a parsed program under the given tenant and
// idempotency context. The returned bool is true when the submission
// collapsed onto an existing job via its idempotency key. Admission
// errors: ErrShuttingDown during drain, ErrQueueFull when the global
// queue is full, ErrTenantQuota when the tenant's weighted share is
// exhausted, ErrTooLarge when no backend fits, plus the tenant
// resolution errors (ErrUnknownTenant, ErrTenantDisabled) and
// ErrIdemConflict for a reused key with different content.
func (s *Service) SubmitJob(circ *circuit.Circuit, opts SubmitOptions) (JobRecord, bool, error) {
	if circ == nil || circ.NumQubits == 0 {
		return JobRecord{}, false, fmt.Errorf("service: empty program")
	}
	if circ.NumQubits > s.maxQubits {
		return JobRecord{}, false, fmt.Errorf("%w: program %q needs %d qubits, largest backend has %d",
			ErrTooLarge, circ.Name, circ.NumQubits, s.maxQubits)
	}
	var qasm string
	if s.cfg.DataDir != "" {
		// The WAL's copy of the source, serialized outside the lock the
		// workers claim under.
		qasm = circuit.QASMString(circ)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.tenantLocked(opts.Tenant)
	if err != nil {
		return JobRecord{}, false, err
	}
	var fp string
	if opts.IdempotencyKey != "" {
		// Check the key before any admission control: a retry of an
		// already-admitted job must succeed even when the queue is full.
		fp = contentFingerprint(circ)
		if e, ok := t.idem[opts.IdempotencyKey]; ok {
			if prior, live := s.jobs[e.jobID]; live {
				if e.fingerprint != fp {
					return JobRecord{}, false, fmt.Errorf("%w: key %q", ErrIdemConflict, opts.IdempotencyKey)
				}
				s.metrics.IdempotentHits.Inc()
				return snapshotRecord(prior), true, nil
			}
			// The bound job was evicted from the store; the key is free.
			delete(t.idem, opts.IdempotencyKey)
		}
	}
	if !s.accepting {
		t.rejected++
		return JobRecord{}, false, ErrShuttingDown
	}
	if s.kernel.Len() >= s.cfg.QueueSize {
		t.rejected++
		return JobRecord{}, false, ErrQueueFull
	}
	if queued := t.flow.Queued(); queued >= t.maxQueued {
		s.metrics.TenantRejected.Inc()
		t.rejected++
		return JobRecord{}, false, fmt.Errorf("%w: tenant %q has %d jobs queued (cap %d)",
			ErrTenantQuota, t.cfg.ID, queued, t.maxQueued)
	}
	now := time.Now()
	arrival := now.Sub(s.start).Seconds()
	j := &job{
		rec: JobRecord{
			ID:             fmt.Sprintf("job-%06d", s.seq),
			Seq:            s.seq,
			Tenant:         t.cfg.ID,
			Name:           circ.Name,
			Qubits:         circ.NumQubits,
			Gates:          len(circ.Gates),
			SubmittedAt:    now,
			ArrivalSeconds: arrival,
		},
		tenant:     t,
		idemKey:    opts.IdempotencyKey,
		fp:         fp,
		qasm:       qasm,
		lastQueued: now,
	}
	// Admission logs the job before SubmitJob acknowledges it, so once
	// SubmitJob returns the job survives a process kill.
	if !s.admitLocked(j, circ) {
		t.rejected++
		return JobRecord{}, false, fmt.Errorf("%w: program %q needs %d qubits",
			ErrTooLarge, circ.Name, circ.NumQubits)
	}
	s.seq++
	s.cond.Broadcast()
	return snapshotRecord(j), false, nil
}

// admitLocked is the admission SubmitJob and the WAL replay share: the
// scheduler kernel routes, tags and queues the job, which then turns
// queued through transitionLocked. false, with nothing changed, means
// no backend can take the job. Callers hold s.mu.
func (s *Service) admitLocked(j *job, circ *circuit.Circuit) bool {
	j.item = sched.Item{Job: sched.Job{ID: j.rec.Seq, Circ: circ}, Flow: j.tenant.flow, Owner: j}
	if !s.kernel.Submit(&j.item) {
		return false
	}
	s.dispatchedLocked(j, -1)
	s.transitionLocked(j, StateQueued)
	return true
}

// transitionLocked moves j to state to and applies every side effect of
// the move; every state change in the service goes through it, live or
// replayed. Each one records the state and appends the SSE event. A job
// entering the store (from no state) is stored, binds its idempotency
// key, counts as its tenant's submission and logs its submit record. A
// terminal move counts the outcome, logs it, observes TotalLatency and
// joins the history, whose oldest records beyond MaxJobHistory are
// evicted along with their key bindings. What the log already held
// (j.logged) is neither logged nor counted again, and a restored
// terminal record's eviction is not counted either. Callers hold s.mu
// and have set the fields the event snapshots (Backend, PST, Error).
func (s *Service) transitionLocked(j *job, to State) {
	now := time.Now()
	from := j.rec.State
	j.rec.State = to
	j.eventSeq++
	j.events = append(j.events, JobEvent{
		Seq:     j.eventSeq,
		JobID:   j.rec.ID,
		State:   to,
		At:      now,
		Backend: j.rec.Backend,
		PST:     j.rec.PST,
		Error:   j.rec.Error,
	})
	for _, ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a wakeup pending
		}
	}
	if from == "" {
		s.jobs[j.rec.ID] = j
		if j.idemKey != "" {
			j.tenant.idem[j.idemKey] = idemEntry{jobID: j.rec.ID, fingerprint: j.fp}
		}
		if j.logged != walBoth {
			j.tenant.submitted++
		}
		if j.logged == walNone && s.wlog != nil {
			// An append failure is counted but does not reject the job:
			// availability over durability.
			s.walAppendLocked(submitRecord(j, j.qasm))
			j.qasm = ""
		}
	}
	if !to.Terminal() {
		return
	}
	if j.logged != walBoth {
		if to == StateDone {
			j.tenant.completed++
		} else {
			j.tenant.failed++
		}
		s.walAppendLocked(terminalRecord(j))
		s.observeLatency(s.metrics.TotalLatency, now.Sub(j.rec.SubmittedAt).Seconds())
	}
	s.terminalIDs = append(s.terminalIDs, j.rec.ID)
	for s.cfg.MaxJobHistory > 0 && len(s.terminalIDs) > s.cfg.MaxJobHistory {
		id := s.terminalIDs[0]
		s.terminalIDs = s.terminalIDs[1:]
		old := s.jobs[id]
		// Release the evicted job's idempotency-key binding so the key
		// can be reused once the job it named is gone.
		if old.idemKey != "" && old.tenant.idem[old.idemKey].jobID == id {
			delete(old.tenant.idem, old.idemKey)
		}
		delete(s.jobs, id)
		if old.logged != walBoth {
			s.metrics.JobsEvicted.Inc()
		}
	}
}

// walAppendLocked appends one record to the WAL (no-op without a data
// dir) and counts the outcome. Callers hold s.mu.
func (s *Service) walAppendLocked(rec wal.Record) {
	if s.wlog == nil {
		return
	}
	if err := s.wlog.Append(rec); err != nil {
		s.metrics.WALAppendErrors.Inc()
		return
	}
	s.metrics.WALAppends.Inc()
}

// submitRecord is the job's WAL admission record with the given QASM
// source (empty for a job that never runs again).
func submitRecord(j *job, qasm string) wal.Record {
	return wal.Record{
		Type:              wal.TypeSubmit,
		ID:                j.rec.ID,
		Seq:               j.rec.Seq,
		Tenant:            j.rec.Tenant,
		Name:              j.rec.Name,
		QASM:              qasm,
		Idem:              j.idemKey,
		Fingerprint:       j.fp,
		SubmittedUnixNano: j.rec.SubmittedAt.UnixNano(),
		Arrival:           j.rec.ArrivalSeconds,
		Qubits:            j.rec.Qubits,
		Gates:             j.rec.Gates,
	}
}

// terminalRecord is the job's WAL outcome record, typed by the name of
// its terminal state (wal.TypeDone or wal.TypeFailed), with its terminal
// event's number and time.
func terminalRecord(j *job) wal.Record {
	return wal.Record{
		Type:           string(j.rec.State),
		ID:             j.rec.ID,
		Backend:        j.rec.Backend,
		Error:          j.rec.Error,
		PST:            j.rec.PST,
		WaitSeconds:    j.rec.WaitSeconds,
		ServiceSeconds: j.rec.ServiceSeconds,
		Event:          j.eventSeq,
		EndedUnixNano:  j.events[len(j.events)-1].At.UnixNano(),
	}
}

// Job returns the record for the given public id.
func (s *Service) Job(id string) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobRecord{}, false
	}
	return snapshotRecord(j), true
}

// JobsPage lists records oldest (lowest Seq) first: only the given
// tenant's jobs when tenant is non-empty, starting strictly after
// sequence number `after` (-1 for the beginning), and at most limit
// records when limit is positive. It backs the GET /v1/jobs paging.
func (s *Service) JobsPage(tenant string, after int, limit int) []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant != "" && j.rec.Tenant != tenant {
			continue
		}
		if j.rec.Seq <= after {
			continue
		}
		out = append(out, snapshotRecord(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Backends reports every worker's status.
func (s *Service) Backends() []BackendStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BackendStatus, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.statusLocked()
	}
	return out
}

// Shutdown stops accepting jobs, drains the queue, and waits for the
// workers to finish every remaining batch. If ctx is canceled first,
// workers stop after their current batch and ctx's error is returned.
// Either way leftover queued jobs are marked failed and the WAL is
// closed after their terminal appends.
func (s *Service) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.mu.Lock()
	s.accepting = false
	s.draining = true
	started := s.started
	s.cond.Broadcast()
	s.mu.Unlock()

	var err error
	if started {
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.mu.Lock()
			s.forced = true
			s.cond.Broadcast()
			s.mu.Unlock()
			// Cancel the run context so the current batch's compile/simulate
			// aborts at its next deadline check instead of finishing a result
			// nobody will read.
			s.runCancel()
			<-done
			err = ctx.Err()
		}
	}
	// Nothing runs from the run context any more; cancelling it releases
	// it on every path, including a service that never started.
	s.runCancel()
	s.failRemaining("service shut down before execution")
	return err
}

// failRemaining marks every still-queued job failed (a shutdown leaves
// them behind), then syncs and closes the write-ahead log after their
// terminal appends.
func (s *Service) failRemaining(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range s.kernel.Drain() {
		j := it.Owner.(*job)
		j.rec.Error = msg
		s.transitionLocked(j, StateFailed)
	}
	if s.wlog != nil {
		_ = s.wlog.Close()
		s.wlog = nil
	}
}

// snapshotRecord copies a job's record (cloning the CoJobs slice so
// callers can't observe later mutation).
func snapshotRecord(j *job) JobRecord {
	rec := j.rec
	rec.CoJobs = append([]int(nil), j.rec.CoJobs...)
	return rec
}
