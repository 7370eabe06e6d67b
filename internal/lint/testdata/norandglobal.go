// Fixture for the norandglobal check: calls through the global
// math/rand source are flagged; explicit *rand.Rand generators pass.
package fixture

import "math/rand"

func useGlobal() int {
	rand.Seed(42)                      // want "call to global rand.Seed"
	x := rand.Intn(10)                 // want "call to global rand.Intn"
	rand.Shuffle(3, func(i, j int) {}) // want "call to global rand.Shuffle"
	xs := rand.Perm(4)                 // want "call to global rand.Perm"
	f := rand.Float64()                // want "call to global rand.Float64"
	return x + len(xs) + int(f)
}

func useLocal(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // ok: explicit generator
	var r *rand.Rand = rng                // ok: type reference
	return r.Float64()                    // ok: method on explicit generator
}

// The global source taken as a function value draws from it wherever it
// is later called: the reference itself is the finding.
var draw = rand.Intn // want "call to global rand.Intn"

func useValue() int {
	return draw(3)
}
