// Package ccache implements the compile-result cache behind qucloudd's
// hot path: a bounded LRU of values keyed by a canonical content
// fingerprint (see Key), with singleflight deduplication so N
// concurrent requests for the same key trigger exactly one compute.
//
// Invalidation is by key construction, not by explicit purge: the
// fingerprint embeds the device's calibration artifact version, so a
// calibration update retires every stale entry simply by making its
// key unreachable (the LRU evicts the garbage as fresh entries arrive).
// Cached values are shared between callers and must be treated as
// immutable.
//
// The package itself is deterministic (no wall clock, no randomness)
// and keeps no counters: callers count the Outcome GetOrCompute returns
// (and OnEvict calls), and time GetOrCompute themselves.
package ccache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Outcome classifies how GetOrCompute satisfied a request.
type Outcome int

// GetOrCompute outcomes.
const (
	// OutcomeBypass means the cache did not participate: the receiver
	// was nil (caching disabled) or the lookup hook reported an outage;
	// the value was computed directly and not stored.
	OutcomeBypass Outcome = iota
	// OutcomeHit means the value was served from the cache.
	OutcomeHit
	// OutcomeMiss means this call computed the value (and stored it on
	// success).
	OutcomeMiss
	// OutcomeCoalesced means the call joined an in-flight compute for
	// the same key and waited for its result (singleflight dedup).
	OutcomeCoalesced
)

func (o Outcome) String() string {
	switch o {
	case OutcomeBypass:
		return "bypass"
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeCoalesced:
		return "coalesced"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// entry is one cache slot. Before ready closes it is an in-flight
// compute that later arrivals coalesce onto; after ready closes val and
// err are immutable and may be read without the cache lock.
type entry struct {
	key       string
	ready     chan struct{} // closed once val/err are final
	val       any           // immutable after ready closes
	err       error         // immutable after ready closes
	published bool          // guarded by Cache.mu
	elem      *list.Element // guarded by Cache.mu; nil until stored
}

// Cache is a bounded LRU with singleflight deduplication, safe for
// concurrent use. The zero value is not usable; construct with New. A
// nil *Cache is valid and bypasses caching entirely, so callers can
// thread an optional cache without branching.
type Cache struct {
	// LookupHook and StoreHook, when non-nil, run at the top of every
	// lookup and before every store. An error from LookupHook makes
	// GetOrCompute bypass the cache for that call (compute directly,
	// store nothing); an error from StoreHook suppresses only the
	// store. They exist for fault injection and must be set before the
	// cache is shared between goroutines.
	LookupHook func(context.Context) error
	StoreHook  func(context.Context) error
	// OnEvict, when non-nil, is called once per evicted entry, outside
	// the cache lock. Set before sharing, like the hooks.
	OnEvict func()

	cap int

	mu      sync.Mutex
	entries map[string]*entry // guarded by mu
	order   *list.List        // guarded by mu; front = most recent
}

// New returns a cache bounded to capacity entries. A capacity <= 0
// returns nil — the disabled cache — so a config knob can feed New
// directly.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		cap:     capacity,
		entries: map[string]*entry{},
		order:   list.New(),
	}
}

// GetOrCompute returns the cached value for key, or runs compute
// exactly once per key across concurrent callers and caches its result.
// Errors are never cached: a failed compute is reported to every
// coalesced waiter, then forgotten, so the next request retries. The
// returned Outcome tells the caller how the value was obtained (for hit
// / miss / dedup metrics).
//
// A caller whose context expires while coalesced on another caller's
// compute returns ctx.Err() without waiting further; the compute itself
// runs under the initiating caller's context. A panic from compute (or
// a hook) propagates to the caller after waking any waiters with an
// error, so singleflight can never strand a goroutine.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func(context.Context) (any, error)) (any, error, Outcome) {
	if c == nil {
		v, err := compute(ctx)
		return v, err, OutcomeBypass
	}
	if hook := c.LookupHook; hook != nil {
		if err := hook(ctx); err != nil {
			// Cache outage: serve the request without the cache rather
			// than failing it.
			v, cerr := compute(ctx)
			return v, cerr, OutcomeBypass
		}
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			// Stored entry: entries only stay mapped on success.
			c.order.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.val, e.err, OutcomeHit
		default:
		}
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.val, e.err, OutcomeCoalesced
		case <-ctx.Done():
			return nil, ctx.Err(), OutcomeCoalesced
		}
	}
	e := &entry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	v, err := c.runCompute(ctx, e, compute)
	return v, err, OutcomeMiss
}

// runCompute executes the winner's compute and publishes the result to
// the entry. The deferred publish guarantees waiters are woken even if
// compute or a hook panics (the panic then continues to the caller).
func (c *Cache) runCompute(ctx context.Context, e *entry, compute func(context.Context) (any, error)) (v any, err error) {
	store := false
	defer func() {
		if r := recover(); r != nil {
			c.publish(e, nil, fmt.Errorf("ccache: compute panicked: %v", r), false)
			panic(r)
		}
		c.publish(e, v, err, store)
	}()
	v, err = compute(ctx)
	if err == nil {
		store = true
		if hook := c.StoreHook; hook != nil {
			if herr := hook(ctx); herr != nil {
				store = false // store suppressed; the value still serves this call
			}
		}
	}
	return v, err
}

// publish finalizes an in-flight entry: record the result, wake
// waiters, and either insert it into the LRU (store) or unmap it so the
// key can be retried. Eviction callbacks run outside the lock.
func (c *Cache) publish(e *entry, v any, err error, store bool) {
	evicted := 0
	c.mu.Lock()
	if e.published {
		c.mu.Unlock()
		return
	}
	e.published = true
	e.val, e.err = v, err
	close(e.ready)
	if store {
		e.elem = c.order.PushFront(e)
		for c.order.Len() > c.cap {
			back := c.order.Back()
			c.order.Remove(back)
			delete(c.entries, back.Value.(*entry).key)
			evicted++
		}
	} else {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	if c.OnEvict != nil {
		for i := 0; i < evicted; i++ {
			c.OnEvict()
		}
	}
}
