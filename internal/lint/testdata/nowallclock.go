// Fixture for the nowallclock check (loaded as if it lived in
// internal/sim, one of the deterministic packages).
package fixture

import "time"

func stamp() (time.Time, float64) {
	start := time.Now()    // want "time.Now in deterministic package internal/sim"
	d := time.Since(start) // want "time.Since in deterministic package internal/sim"
	_ = time.Until(start)  // want "time.Until in deterministic package internal/sim"
	return start, d.Seconds()
}

func pureDuration() time.Duration {
	return 3 * time.Second // ok: no clock read
}

func parse(s string) (time.Time, error) {
	return time.Parse(time.RFC3339, s) // ok: pure function of its input
}

// A clock taken as a function value reads the wall clock wherever it is
// later called: the reference itself is the finding.
var clock = time.Now // want "time.Now in deterministic package internal/sim"

func elapsed(since func(time.Time) time.Duration) time.Duration {
	return since(clock())
}

var _ = elapsed(time.Since) // want "time.Since in deterministic package internal/sim"
