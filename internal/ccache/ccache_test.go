package ccache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/nisqbench"
)

func TestNewDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1, -100} {
		if c := New(capacity); c != nil {
			t.Fatalf("New(%d) = %v, want nil (disabled)", capacity, c)
		}
	}
}

// TestNilCacheBypasses proves the nil receiver is a full pass-through:
// compute runs every time and all methods are safe.
func TestNilCacheBypasses(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 3; i++ {
		v, err, out := c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) {
			calls++
			return calls, nil
		})
		if err != nil || out != OutcomeBypass {
			t.Fatalf("nil cache: err=%v outcome=%v", err, out)
		}
		if v.(int) != i+1 {
			t.Fatalf("nil cache should recompute every call: got %v on call %d", v, i+1)
		}
	}
	if c.Len() != 0 {
		t.Fatal("nil Len should be 0")
	}
}

func TestHitMissAndLRUOrder(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	get := func(key string) Outcome {
		_, err, out := c.GetOrCompute(ctx, key, func(context.Context) (any, error) { return key, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := get("a"); out != OutcomeMiss {
		t.Fatalf("first a: %v, want miss", out)
	}
	if out := get("b"); out != OutcomeMiss {
		t.Fatalf("first b: %v, want miss", out)
	}
	if out := get("a"); out != OutcomeHit {
		t.Fatalf("second a: %v, want hit", out)
	}
	// a was just touched, so inserting c must evict b (the LRU tail).
	evicts := 0
	c.OnEvict = func() { evicts++ }
	if out := get("c"); out != OutcomeMiss {
		t.Fatalf("first c: %v, want miss", out)
	}
	if evicts != 1 {
		t.Fatalf("OnEvict fired %d times, want 1", evicts)
	}
	if out := get("a"); out != OutcomeHit {
		t.Fatalf("a should have survived the eviction, got %v", out)
	}
	if out := get("b"); out != OutcomeMiss {
		t.Fatalf("b should have been evicted, got %v", out)
	}
	if evicts != 2 || c.Len() != 2 {
		t.Fatalf("%d evictions and %d entries, want 2 and 2", evicts, c.Len())
	}
}

// TestSingleflight hammers one key from many goroutines: compute must
// run exactly once, every caller gets the same value, and exactly one
// caller reports a miss while the rest report hit or coalesced.
func TestSingleflight(t *testing.T) {
	c := New(8)
	const workers = 32
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, workers)
	values := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, out := c.GetOrCompute(context.Background(), "key", func(context.Context) (any, error) {
				close(started)
				<-release // hold the compute open so everyone piles on
				calls.Add(1)
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i], values[i] = out, v
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	misses := 0
	for i := 0; i < workers; i++ {
		if values[i] != "value" {
			t.Fatalf("worker %d got %v", i, values[i])
		}
		switch outcomes[i] {
		case OutcomeMiss:
			misses++
		case OutcomeHit, OutcomeCoalesced:
		default:
			t.Fatalf("worker %d: unexpected outcome %v", i, outcomes[i])
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1", misses)
	}
}

// TestErrorNotCached proves a failed compute is retried: the error
// reaches the caller (and any coalesced waiters) but never occupies a
// cache slot.
func TestErrorNotCached(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	compute := func(context.Context) (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, err, out := c.GetOrCompute(ctx, "k", compute); !errors.Is(err, boom) || out != OutcomeMiss {
		t.Fatalf("first call: err=%v outcome=%v", err, out)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: Len=%d", c.Len())
	}
	if v, err, out := c.GetOrCompute(ctx, "k", compute); err != nil || v != "ok" || out != OutcomeMiss {
		t.Fatalf("retry: v=%v err=%v outcome=%v", v, err, out)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestComputePanicWakesWaiters proves a panicking compute re-panics in
// the initiating caller while coalesced waiters receive an error
// instead of hanging on the ready channel.
func TestComputePanicWakesWaiters(t *testing.T) {
	// The compute holds on until the waiter has passed the lookup hook,
	// then yields before panicking. A waiter that still lost the race
	// computed its own value (its Outcome is not coalesced); retry then.
	for try := 0; try < 100; try++ {
		c := New(4)
		entered, looked := make(chan struct{}), make(chan struct{})
		var lookups atomic.Int64
		c.LookupHook = func(context.Context) error {
			if lookups.Add(1) == 2 {
				close(looked)
			}
			return nil
		}

		var waiterErr error
		var waiterOut Outcome
		var waiterDone sync.WaitGroup
		waiterDone.Add(1)
		go func() {
			defer waiterDone.Done()
			<-entered
			_, waiterErr, waiterOut = c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) {
				return "should not run", nil
			})
		}()

		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("panic did not propagate to the initiating caller")
				}
			}()
			c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) {
				close(entered)
				<-looked
				for i := 0; i < 100; i++ {
					runtime.Gosched()
				}
				panic("kaboom")
			})
		}()
		waiterDone.Wait()
		if waiterOut != OutcomeCoalesced {
			continue
		}

		// The coalesced waiter must see the panic turned into an error —
		// never hang — and the error must not be cached.
		if !errorContains(waiterErr, "kaboom") {
			t.Fatalf("waiter error = %v, want the recovered panic", waiterErr)
		}
		if _, err, _ := c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) { return "fresh", nil }); err != nil {
			t.Fatalf("key should be retryable after panic: %v", err)
		}
		return
	}
	t.Fatal("the waiter never coalesced onto the panicking compute")
}

func errorContains(err error, sub string) bool {
	return err != nil && len(err.Error()) >= len(sub) && containsStr(err.Error(), sub)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCoalescedWaiterHonorsContext: a waiter whose context is canceled
// mid-wait returns promptly with ctx.Err() instead of blocking on the
// in-flight compute.
func TestCoalescedWaiterHonorsContext(t *testing.T) {
	c := New(4)
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) {
		close(entered)
		<-release
		return "slow", nil
	})
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, out := c.GetOrCompute(ctx, "k", func(context.Context) (any, error) {
		t.Error("coalesced waiter must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || out != OutcomeCoalesced {
		t.Fatalf("err=%v outcome=%v, want context.Canceled/coalesced", err, out)
	}
}

// TestLookupHookBypass: a failing lookup hook turns the call into a
// pure bypass — compute runs and nothing is stored.
func TestLookupHookBypass(t *testing.T) {
	c := New(4)
	hookErr := errors.New("cache outage")
	c.LookupHook = func(context.Context) error { return hookErr }
	v, err, out := c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) { return 42, nil })
	if err != nil || v != 42 || out != OutcomeBypass {
		t.Fatalf("v=%v err=%v outcome=%v", v, err, out)
	}
	if c.Len() != 0 {
		t.Fatalf("bypass stored an entry: Len=%d", c.Len())
	}
	c.LookupHook = nil
	if _, _, out := c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) { return 42, nil }); out != OutcomeMiss {
		t.Fatalf("first lookup after the outage: %v, want miss", out)
	}
}

// TestStoreHookSkipsStore: a failing store hook serves the computed
// value but leaves the cache unchanged, so the next call misses again.
func TestStoreHookSkipsStore(t *testing.T) {
	c := New(4)
	c.StoreHook = func(context.Context) error { return errors.New("disk full") }
	for i := 0; i < 2; i++ {
		v, err, out := c.GetOrCompute(context.Background(), "k", func(context.Context) (any, error) { return i, nil })
		if err != nil || out != OutcomeMiss || v != i {
			t.Fatalf("call %d: v=%v err=%v outcome=%v", i, v, err, out)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("store hook failure still stored: Len=%d", c.Len())
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeBypass:    "bypass",
		OutcomeHit:       "hit",
		OutcomeMiss:      "miss",
		OutcomeCoalesced: "coalesced",
		Outcome(99):      "Outcome(99)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

// --- fingerprint tests ---

func baseKey() Key {
	p := circuit.New("bv_n3", 3)
	p.H(0).H(1).CX(0, 2).RZ(0.25, 1).MeasureAll()
	return Key{
		Device:       "ibmq16",
		CalVersion:   1,
		Strategy:     "qucloud",
		Omega:        0.5,
		Attempts:     2,
		Traversals:   4,
		NoisePenalty: 1.5,
		Programs:     []*circuit.Circuit{p},
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := baseKey().Fingerprint(), baseKey().Fingerprint()
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(a))
	}
}

// TestFingerprintIgnoresName: the same structure under a different job
// label must map to the same entry.
func TestFingerprintIgnoresName(t *testing.T) {
	k := baseKey()
	renamed := baseKey()
	renamed.Programs[0].Name = "submitted-under-other-label"
	if k.Fingerprint() != renamed.Fingerprint() {
		t.Fatal("fingerprint must not depend on circuit names")
	}
}

// TestFingerprintSensitivity flips each key ingredient in isolation and
// requires a distinct digest for every mutation.
func TestFingerprintSensitivity(t *testing.T) {
	base := baseKey().Fingerprint()
	mutations := []struct {
		name string
		mut  func(*Key)
	}{
		{"device", func(k *Key) { k.Device = "ibmq50" }},
		{"calversion", func(k *Key) { k.CalVersion = 2 }},
		{"strategy", func(k *Key) { k.Strategy = "sabre" }},
		{"omega", func(k *Key) { k.Omega = 0.6 }},
		{"attempts", func(k *Key) { k.Attempts = 3 }},
		{"traversals", func(k *Key) { k.Traversals = 5 }},
		{"noisepenalty", func(k *Key) { k.NoisePenalty = 2.0 }},
		{"bridge", func(k *Key) { k.Bridge = true }},
		{"gate-name", func(k *Key) { k.Programs[0].Gates[0].Name = "x" }},
		{"gate-qubit", func(k *Key) { k.Programs[0].Gates[2].Qubits[1] = 1 }},
		{"gate-param", func(k *Key) { k.Programs[0].Gates[3].Params[0] = 0.5 }},
		{"extra-gate", func(k *Key) { k.Programs[0].X(0) }},
		{"numqubits", func(k *Key) { k.Programs[0].NumQubits = 4 }},
		{"extra-program", func(k *Key) { k.Programs = append(k.Programs, circuit.New("p2", 1).X(0)) }},
		{"program-order", func(k *Key) {
			k.Programs = append(k.Programs, circuit.New("p2", 1).X(0))
			k.Programs[0], k.Programs[1] = k.Programs[1], k.Programs[0]
		}},
	}
	seen := map[string]string{base: "base"}
	for _, m := range mutations {
		k := baseKey()
		m.mut(&k)
		fp := k.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q", m.name, prev)
		}
		seen[fp] = m.name
	}
	// program-order vs extra-program differ only in ordering; make sure
	// both changed from base AND from each other (covered by the map).
	if len(seen) != len(mutations)+1 {
		t.Fatalf("expected %d distinct fingerprints, got %d", len(mutations)+1, len(seen))
	}
}

// TestFingerprintNoFieldBleed: moving a suffix of one string field into
// the next must change the digest (length-prefixed encoding).
func TestFingerprintNoFieldBleed(t *testing.T) {
	a := Key{Device: "ab", Strategy: "c"}
	b := Key{Device: "a", Strategy: "bc"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("field boundary ambiguity: ab|c == a|bc")
	}
}

func TestFingerprintDistinguishesZeroSignFloats(t *testing.T) {
	a, b := baseKey(), baseKey()
	a.Omega, b.Omega = 0.0, negZero()
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("0.0 and -0.0 must fingerprint differently (Float64bits encoding)")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestFingerprintPinned pins the digest encoding itself. WAL idempotency
// bindings persist these digests across restarts, so any change to the
// byte stream Fingerprint hashes would orphan every recorded binding.
// The first key is what the service's idempotency identity hashes (the
// program alone); the second sets every field.
func TestFingerprintPinned(t *testing.T) {
	cases := []struct {
		name string
		key  Key
		want string
	}{
		{"content-only", Key{Programs: []*circuit.Circuit{nisqbench.MustGet("bv_n3")}},
			"171ca2bcbf468c5c55833aba6224d21e1f5d4f95f9a7e469f9d36fd69805c2c9"},
		{"full", Key{
			Device:       "ibmq16",
			CalVersion:   7,
			Strategy:     "qucloud",
			Omega:        0.5,
			Attempts:     5,
			Traversals:   3,
			NoisePenalty: 1.5,
			Bridge:       true,
			Programs:     []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")},
		}, "c2ace638f88880edcc7f69610b5f45ca8ba9f00315210e205143cca6d062ebdf"},
	}
	for _, c := range cases {
		if got := c.key.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

// BenchmarkFingerprint keeps the lookup path honest: hashing a Table-II
// sized circuit must be trivially cheap next to a compile.
func BenchmarkFingerprint(b *testing.B) {
	k := baseKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Fingerprint()
	}
}

// TestGetOrComputeConcurrentKeys exercises mixed keys under race: all
// values must come back keyed correctly.
func TestGetOrComputeConcurrentKeys(t *testing.T) {
	c := New(4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			v, err, _ := c.GetOrCompute(context.Background(), key, func(context.Context) (any, error) {
				return key, nil
			})
			if err != nil || v != key {
				t.Errorf("key %s: v=%v err=%v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
}
