package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source with named sub-streams.
//
// Components should not share one raw source: if component A starts drawing
// an extra value, every later draw of component B shifts and the whole run
// changes. Stream derives an independent source from the seed and a stable
// name, so each component's randomness is isolated.
type RNG struct {
	seed int64
}

// NewRNG returns a source whose streams derive from seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Stream returns an independent source derived from the seed and name.
// The same (seed, name) pair always yields the same stream.
func (r *RNG) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	sub := int64(h.Sum64() ^ (uint64(r.seed) * 0x9E3779B97F4A7C15))
	return rand.New(rand.NewSource(sub))
}

// Stream is an xorshift64* generator: one uint64 of state, no allocation
// per draw. The fault injectors draw from it so fault draws never perturb
// (or are perturbed by) the simulation's own RNG streams. The zero value
// is not a valid stream; derive one with NewStream or NewWorkerStream.
type Stream struct{ state uint64 }

// fnvPrime is the 64-bit FNV-1a prime.
const fnvPrime = 1099511628211

// NewStream derives an independent stream from a root seed and a stable
// class name, so enabling one fault class never shifts another's draw
// sequence.
func NewStream(seed uint64, class string) Stream {
	return seeded(seed ^ fnv1a(class))
}

// NewWorkerStream derives an independent stream from a root seed, a class
// name and a worker index, so worker i's draws never depend on how many
// draws worker j consumed.
func NewWorkerStream(seed uint64, class string, worker int) Stream {
	h := fnv1a(class)
	h ^= uint64(worker) + 0x9E37
	h *= fnvPrime
	return seeded(seed ^ h)
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// seeded expands x with splitmix64 into a well-mixed nonzero state.
func seeded(x uint64) Stream {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 0x2545F4914F6CDD1D
	}
	return Stream{state: x}
}

// Float64 draws a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return float64((x*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}
