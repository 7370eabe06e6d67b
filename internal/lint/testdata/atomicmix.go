// Fixture for the atomicmix check: the function-style sync/atomic API
// is flagged wherever it is referenced; typed atomics pass.
package demo

import "sync/atomic"

// Counter keeps n in a plain word that only convention protects.
type Counter struct {
	n    int64
	safe atomic.Int64
	cfg  atomic.Pointer[int]
}

// Inc updates n atomically.
func (c *Counter) Inc() {
	atomic.AddInt64(&c.n, 1) // want "atomic.AddInt64 works on a variable that plain loads and stores can still reach"
}

// Read is the plain load that Inc's API cannot rule out; the check
// reports the atomic side, where the typed replacement goes.
func (c *Counter) Read() int64 {
	return c.n
}

// Load goes through the function API on the read side.
func (c *Counter) Load() int64 {
	return atomic.LoadInt64(&c.n) // want "atomic.LoadInt64"
}

// A function value escapes a call-site match.
var cas = atomic.CompareAndSwapInt64 // want "atomic.CompareAndSwapInt64"

// SafeRead uses the typed atomic: there is no plain access to mix with.
func (c *Counter) SafeRead() int64 {
	return c.safe.Load()
}

// SafeBump likewise.
func (c *Counter) SafeBump() {
	c.safe.Add(1)
	c.cfg.Store(new(int))
}
