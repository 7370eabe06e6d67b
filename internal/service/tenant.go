package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/sched"
)

// This file is the multi-tenant front end: static API-key
// authentication and per-tenant admission control. Fairness across
// tenants is the scheduler kernel's start-time fair queueing: each
// tenant is one sched.Flow of its weight, so a backlogged tenant of
// weight w receives a w-proportional share of claim slots and an idle
// tenant's unused share is redistributed. Admission control caps each
// tenant's queued jobs at its weighted share of QueueSize (or an
// explicit MaxQueued), so one saturating tenant gets 429s while
// everyone else's share stays available.

// Tenant is one API tenant: a static bearer key mapped to an identity
// with a fair-queueing weight and an admission cap. The set is loaded
// from Config.Tenants (qucloudd reads a JSON array from -tenants).
type Tenant struct {
	// ID is the tenant's stable identity, recorded on every job.
	ID string `json:"id"`
	// Key is the static API key presented as "Authorization: Bearer".
	Key string `json:"key"`
	// Weight is the WFQ share (relative to the other tenants); <= 0
	// defaults to 1.
	Weight float64 `json:"weight,omitempty"`
	// MaxQueued caps this tenant's queued (not yet claimed) jobs; 0
	// derives the cap from the tenant's weighted share of QueueSize.
	MaxQueued int `json:"max_queued,omitempty"`
	// Disabled rejects the tenant's requests with 403 without removing
	// its key (key revocation that keeps the identity auditable).
	Disabled bool `json:"disabled,omitempty"`
}

// LoadTenants reads a JSON array of Tenant from path (the qucloudd
// -tenants file format).
func LoadTenants(path string) ([]Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	var ts []Tenant
	if err := json.Unmarshal(data, &ts); err != nil {
		return nil, fmt.Errorf("tenants: parsing %s: %w", path, err)
	}
	return ts, nil
}

// Multi-tenant submission errors.
var (
	// ErrTenantQuota rejects a submission because the tenant's queued
	// share is exhausted (HTTP 429); other tenants may still submit.
	ErrTenantQuota = errors.New("service: tenant queue share full")
	// ErrUnknownTenant rejects a submission naming a tenant the service
	// was not configured with.
	ErrUnknownTenant = errors.New("service: unknown tenant")
	// ErrTenantDisabled rejects a disabled tenant (HTTP 403).
	ErrTenantDisabled = errors.New("service: tenant disabled")
	// ErrIdemConflict rejects a reused idempotency key whose request
	// content differs from the original submission (HTTP 409).
	ErrIdemConflict = errors.New("service: idempotency key reused with different content")
)

// idemEntry binds an idempotency key to the job it created and the
// content fingerprint it was created with.
type idemEntry struct {
	jobID       string
	fingerprint string
}

// tenantState is one tenant's runtime accounting.
type tenantState struct {
	cfg       Tenant
	weight    float64 // normalized (>0); immutable
	maxQueued int     // resolved admission cap; immutable

	flow      *sched.Flow          // guarded by Service.mu; the tenant's fair-queueing share and queued count
	submitted int64                // guarded by Service.mu
	completed int64                // guarded by Service.mu
	failed    int64                // guarded by Service.mu
	rejected  int64                // guarded by Service.mu; quota + backpressure rejections
	idem      map[string]idemEntry // guarded by Service.mu
}

// buildTenants validates cfg.Tenants and resolves the runtime states.
// With no tenants configured the service runs in open (single-tenant)
// mode: an implicit "default" tenant owns every job and no
// authentication is required.
func buildTenants(cfg Config) (byID map[string]*tenantState, byKey map[string]*tenantState, ordered []*tenantState, err error) {
	tenants := cfg.Tenants
	open := len(tenants) == 0
	if open {
		tenants = []Tenant{{ID: DefaultTenantID, Weight: 1}}
	}
	total := 0.0
	for i := range tenants {
		if tenants[i].Weight <= 0 {
			tenants[i].Weight = 1
		}
		total += tenants[i].Weight
	}
	byID = make(map[string]*tenantState, len(tenants))
	byKey = make(map[string]*tenantState, len(tenants))
	for _, t := range tenants {
		if t.ID == "" {
			return nil, nil, nil, fmt.Errorf("service: tenant with empty id")
		}
		if byID[t.ID] != nil {
			return nil, nil, nil, fmt.Errorf("service: duplicate tenant id %q", t.ID)
		}
		if !open && t.Key == "" {
			return nil, nil, nil, fmt.Errorf("service: tenant %q has no key", t.ID)
		}
		if t.Key != "" && byKey[t.Key] != nil {
			return nil, nil, nil, fmt.Errorf("service: tenants %q and %q share a key", byKey[t.Key].cfg.ID, t.ID)
		}
		cap := t.MaxQueued
		if cap <= 0 {
			// Weighted share of the global queue, at least 1 so a tiny
			// weight can still submit.
			cap = int(float64(cfg.QueueSize) * t.Weight / total)
			if cap < 1 {
				cap = 1
			}
		}
		st := &tenantState{
			cfg:       t,
			weight:    t.Weight,
			maxQueued: cap,
			flow:      sched.NewFlow(t.Weight),
			idem:      map[string]idemEntry{},
		}
		byID[t.ID] = st
		if t.Key != "" {
			byKey[t.Key] = st
		}
		ordered = append(ordered, st)
	}
	sort.Slice(ordered, func(i, k int) bool { return ordered[i].cfg.ID < ordered[k].cfg.ID })
	return byID, byKey, ordered, nil
}

// DefaultTenantID owns every job when no tenants are configured (open
// mode).
const DefaultTenantID = "default"

// tenantLocked resolves a tenant ID for submission; empty selects the
// default tenant in open mode. Callers hold s.mu.
func (s *Service) tenantLocked(id string) (*tenantState, error) {
	if id == "" {
		if s.authRequired {
			return nil, fmt.Errorf("%w: submission without a tenant", ErrUnknownTenant)
		}
		id = DefaultTenantID
	}
	t, ok := s.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	if t.cfg.Disabled {
		return nil, fmt.Errorf("%w: %q", ErrTenantDisabled, id)
	}
	return t, nil
}

// contentFingerprint is the idempotency identity of a submission: the
// ccache content fingerprint of the program alone (no device, no
// calibration, no knobs — a retried request must collapse onto its
// original job regardless of where that job was routed).
func contentFingerprint(circ *circuit.Circuit) string {
	return ccache.Key{Programs: []*circuit.Circuit{circ}}.Fingerprint()
}

// TenantMetrics is one tenant's row in the /metrics tenancy section.
type TenantMetrics struct {
	ID        string  `json:"id"`
	Weight    float64 `json:"weight"`
	MaxQueued int     `json:"max_queued"`
	Queued    int     `json:"queued"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	Failed    int64   `json:"failed"`
	Rejected  int64   `json:"rejected"`
}
