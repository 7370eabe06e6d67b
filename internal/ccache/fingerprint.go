package ccache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/circuit"
)

// Key collects everything a compiled result depends on. Two compiles
// with equal fingerprints are interchangeable: same circuit structure,
// same device in the same calibration state, same compiler knobs.
//
// Program names are deliberately excluded — resubmitting bv_n3 under a
// different job label must still hit — and CalVersion ties every entry
// to one calibration epoch, so ApplyCalibration invalidates the whole
// cache by construction.
type Key struct {
	Device       string
	CalVersion   uint64
	Strategy     string
	Omega        float64
	Attempts     int
	Traversals   int
	NoisePenalty float64
	Programs     []*circuit.Circuit
}

// Fingerprint returns the canonical sha256 hex digest of the key. Every
// field is serialized through a fixed-width, order-preserving encoding
// (floats via math.Float64bits, ints as 8-byte big-endian, strings
// length-prefixed), so the digest is stable across processes and
// cannot collide through field-boundary ambiguity.
func (k Key) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int) { wu(uint64(int64(v))) }
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wb := func(v bool) {
		if v {
			wu(1)
		} else {
			wu(0)
		}
	}
	ws := func(s string) {
		wi(len(s))
		h.Write([]byte(s))
	}

	ws("ccache/v1")
	ws(k.Device)
	wu(k.CalVersion)
	ws(k.Strategy)
	wf(k.Omega)
	wi(k.Attempts)
	wi(k.Traversals)
	wf(k.NoisePenalty)
	// Two retired boolean knobs (always false) keep their slots: WAL
	// idempotency bindings persist these digests across restarts.
	wb(false)
	wb(false)

	wi(len(k.Programs))
	for _, p := range k.Programs {
		wi(p.NumQubits)
		wi(len(p.Gates))
		for _, g := range p.Gates {
			ws(g.Name)
			wi(len(g.Qubits))
			for _, q := range g.Qubits {
				wi(q)
			}
			wi(len(g.Params))
			for _, v := range g.Params {
				wf(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
