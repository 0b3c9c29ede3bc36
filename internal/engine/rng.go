package engine

import (
	"math/rand"
)

// This file holds the engine's per-node randomness: a math/rand source
// that yields exactly the stream of rand.NewSource(seed), draw for draw,
// without seeding a register.
//
// rand.NewSource is an additive lagged-Fibonacci generator over a
// 607-word register. Seeding fills every word: word i is
//
//	cooked[i] ^ (x₁<<40 ^ x₂<<20 ^ x₃),  x_j = x₀·48271^(20+3i+j) mod (2³¹−1),
//
// where x₀ is the sanitized seed and the x_j are successive Park–Miller
// steps. That is 1841 multiplications and 4.9 KB per seeding, whatever
// the node later draws; a node of the sinkless protocol draws a handful
// of values. Draw k (from 0) writes register word 333−k from words
// 333−k and 606−k, and no written word is read again before draw 273,
// so the first 273 draws are sums of two seeded words, each computed on
// demand from a shared power table. Draw 273 onwards runs on a
// materialized register, built once by replaying the draws made so far.

const (
	rngLen    = 607 // register words
	rngTap    = 273 // lag between the feed and tap words
	rngFeed   = rngLen - rngTap
	rngMask   = 1<<63 - 1     // Int63 keeps the low 63 bits of Uint64
	int32max  = 1<<31 - 1     // Park–Miller modulus
	seedSteps = 20 + 3*rngLen // Park–Miller steps of one seeding
)

var (
	// seedPow[e] is 48271^e mod (2³¹−1), the e-th Park–Miller step of 1.
	seedPow [seedSteps + 1]uint64
	// rngCooked is math/rand's constant register mask, recovered from
	// one stdlib stream at start-up (see recoverCooked), so it follows
	// the toolchain instead of being vendored.
	rngCooked [rngLen]uint64
)

func init() {
	seedPow[0] = 1
	for e := 1; e <= seedSteps; e++ {
		seedPow[e] = mulmod(seedPow[e-1], 48271)
	}
	recoverCooked()
}

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹, the exact value of
// math/rand's Schrage-form seedrand step.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// seedPart is the seed-dependent half of register word i: the three
// Park–Miller values stdlib seeding packs into it.
func seedPart(x0 uint64, i int) uint64 {
	e := 20 + 3*i
	x1 := mulmod(x0, seedPow[e+1])
	x2 := mulmod(x0, seedPow[e+2])
	x3 := mulmod(x0, seedPow[e+3])
	return x1<<40 ^ x2<<20 ^ x3
}

// recoverCooked rebuilds math/rand's cooked table from the first
// rngLen outputs of rand.NewSource(1). Those draws write every register
// word exactly once, so the outputs are the final register; undoing the
// draws backwards (feed -= tap) yields the seeded register, and XORing
// out seed 1's part leaves the cooked words.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	for k := 0; k < rngLen; k++ {
		vec[feedAt(k)] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		vec[feedAt(k)] -= vec[tapAt(k)]
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ seedPart(1, i)
	}
}

// feedAt and tapAt are the register words draw k < rngLen writes and
// reads.
func feedAt(k int) int { return (rngFeed - 1 - k + rngLen) % rngLen }
func tapAt(k int) int  { return rngLen - 1 - k }

// sanitizeSeed maps a seed to stdlib seeding's Park–Miller start value.
func sanitizeSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lazySource is a rand.Source64 whose stream equals that of
// rand.NewSource(seed) for the same seed, draw for draw. It keeps only
// the sanitized seed and a draw count until the 274th draw, when it
// materializes the register once; the register buffer is kept and reused
// by later Seeds. Seeding and the first 273 draws allocate nothing.
// The zero value is not a seeded source: Seed it first.
type lazySource struct {
	x0      uint64 // sanitized seed
	k       int    // draws since Seed, while not spilled
	spilled bool
	tap     int // register cursors, once spilled (as in math/rand)
	feed    int
	vec     *[rngLen]uint64
}

var _ rand.Source64 = (*lazySource)(nil)

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *lazySource) Seed(seed int64) {
	s.x0 = sanitizeSeed(seed)
	s.k = 0
	s.spilled = false
}

// Int63 returns a non-negative 63-bit value, as math/rand's source does.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next 64-bit value of the stream.
func (s *lazySource) Uint64() uint64 {
	if !s.spilled {
		if k := s.k; k < rngTap {
			s.k++
			return s.word(feedAt(k)) + s.word(tapAt(k))
		}
		s.spill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// word is seeded register word i.
func (s *lazySource) word(i int) uint64 { return rngCooked[i] ^ seedPart(s.x0, i) }

// spill materializes the seeded register and replays the draws made so
// far, leaving the source where stdlib's would be.
func (s *lazySource) spill() {
	if s.vec == nil {
		s.vec = new([rngLen]uint64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	s.tap, s.feed = 0, rngFeed
	s.spilled = true
	for i := 0; i < s.k; i++ {
		s.Uint64()
	}
}

// nodeSeed is the SplitMix64-scrambled seed of a node's private stream:
// it keeps per-node streams decorrelated under one master seed.
func nodeSeed(masterSeed, nodeIdentifier int64) int64 {
	z := uint64(masterSeed) + 0x9e3779b97f4a7c15*uint64(nodeIdentifier+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// DeriveRNG returns the private random source of the node with the given
// identifier under the given master seed. It seeds a fresh stdlib
// source; NodeRNG.Derive yields the same stream without the seeding cost.
func DeriveRNG(masterSeed, nodeIdentifier int64) *rand.Rand {
	return rand.New(rand.NewSource(nodeSeed(masterSeed, nodeIdentifier)))
}

// NodeRNG is a reusable random source for one node: a lazySource behind
// a rand.Rand, reseeded in place. Reseeding allocates nothing, so
// sessions and machines hold one per node and reseed it every run. A
// NodeRNG is not safe for concurrent use.
type NodeRNG struct {
	src lazySource
	r   rand.Rand
}

// Seed reseeds r and returns its *rand.Rand, whose stream equals
// rand.New(rand.NewSource(seed)). The returned value stays owned by r.
func (r *NodeRNG) Seed(seed int64) *rand.Rand {
	r.src.Seed(seed)
	r.r = *rand.New(&r.src)
	return &r.r
}

// Derive reseeds r with the stream DeriveRNG(masterSeed, nodeIdentifier)
// returns.
func (r *NodeRNG) Derive(masterSeed, nodeIdentifier int64) *rand.Rand {
	return r.Seed(nodeSeed(masterSeed, nodeIdentifier))
}
