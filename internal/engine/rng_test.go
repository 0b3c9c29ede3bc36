package engine

import (
	"math"
	"math/rand"
	"testing"
)

// lazySeedGrid covers seed sanitization's corners (0, the modulus and
// its multiples, negatives, the int64 extremes, the zero-seed
// substitute) plus a spread of ordinary seeds.
func lazySeedGrid() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 7, 42,
		int32max, -int32max, int32max - 1, int32max + 1, 2 * int32max, -2 * int32max,
		89482311, -89482311,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32,
	}
	for i := int64(0); len(seeds) < 212; i++ {
		seeds = append(seeds, nodeSeed(i, i*31+5))
	}
	return seeds
}

// drawMixed advances both generators by one mixed operation chosen by
// op and reports whether they agree.
func drawMixed(want, got *rand.Rand, op byte) bool {
	switch op % 7 {
	case 0:
		return want.Int63() == got.Int63()
	case 1:
		return want.Uint64() == got.Uint64()
	case 2:
		n := 1 + int(op)%5
		return want.Intn(n) == got.Intn(n)
	case 3:
		n := int32(1 + int(op)*7919)
		return want.Int31n(n) == got.Int31n(n)
	case 4:
		return want.Float64() == got.Float64()
	case 5:
		n := int(op) % 9
		a, b := want.Perm(n), got.Perm(n)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	default:
		n := int64(1)<<62 + int64(op)
		return want.Int63n(n) == got.Int63n(n)
	}
}

// TestLazySourceMatchesMathRand pins the lazy source to math/rand: for
// every seed of the grid, 3000 mixed draws (well past the 273-draw
// spill point) equal rand.New(rand.NewSource(seed)) draw for draw,
// through NodeRNG exactly as sessions use it.
func TestLazySourceMatchesMathRand(t *testing.T) {
	var node NodeRNG
	for _, seed := range lazySeedGrid() {
		want := rand.New(rand.NewSource(seed))
		got := node.Seed(seed)
		for i := 0; i < 3000; i++ {
			if !drawMixed(want, got, byte(i*37+int(seed&0xff))) {
				t.Fatalf("seed %d: draw %d differs from math/rand", seed, i)
			}
		}
	}
}

// TestLazySourceReseed pins reseeding: in mid-stream before the spill,
// and after a spill, where the register buffer must be reused rather
// than reallocated.
func TestLazySourceReseed(t *testing.T) {
	s := &lazySource{}
	s.Seed(3)
	for i := 0; i < 100; i++ {
		s.Uint64()
	}
	s.Seed(-11)
	ref := rand.NewSource(-11).(rand.Source64)
	for i := 0; i < 1000; i++ {
		if a, b := ref.Uint64(), s.Uint64(); a != b {
			t.Fatalf("reseed before spill: draw %d = %#x, want %#x", i, b, a)
		}
	}
	buf := s.vec
	if buf == nil {
		t.Fatal("1000 draws did not materialize the register")
	}
	s.Seed(99)
	ref = rand.NewSource(99).(rand.Source64)
	for i := 0; i < 700; i++ {
		if a, b := ref.Uint64(), s.Uint64(); a != b {
			t.Fatalf("reseed after spill: draw %d = %#x, want %#x", i, b, a)
		}
	}
	if s.vec != buf {
		t.Fatal("second spill reallocated the register buffer")
	}
}

// TestDeriveRNGMatchesNodeRNG pins the session path to the stdlib path:
// NodeRNG.Derive yields DeriveRNG's stream for the same (seed, id).
func TestDeriveRNGMatchesNodeRNG(t *testing.T) {
	var node NodeRNG
	for seed := int64(-2); seed < 3; seed++ {
		for id := int64(0); id < 64; id++ {
			want, got := DeriveRNG(seed, id), node.Derive(seed, id)
			for i := 0; i < 20; i++ {
				if a, b := want.Intn(3), got.Intn(3); a != b {
					t.Fatalf("seed %d id %d draw %d: %d, want %d", seed, id, i, b, a)
				}
			}
		}
	}
}

func TestDeriveRNGDeterminism(t *testing.T) {
	a := DeriveRNG(42, 7).Int63()
	b := DeriveRNG(42, 7).Int63()
	if a != b {
		t.Error("same seed and id should give identical streams")
	}
	c := DeriveRNG(42, 8).Int63()
	if a == c {
		t.Error("different node ids should give different streams")
	}
	d := DeriveRNG(43, 7).Int63()
	if a == d {
		t.Error("different master seeds should give different streams")
	}
}

// TestNodeRNGSeedAllocs pins reseeding plus a few draws at 0 allocs.
func TestNodeRNGSeedAllocs(t *testing.T) {
	var node NodeRNG
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r := node.Derive(seed, 5)
		for i := 0; i < 8; i++ {
			r.Intn(3)
		}
	})
	if allocs != 0 {
		t.Fatalf("NodeRNG reseed + 8 draws allocates %v times, want 0", allocs)
	}
}

// FuzzLazySource compares the lazy source against rand.NewSource for an
// arbitrary seed and operation sequence (each byte picks one mixed
// draw; a long sequence crosses the spill), so a toolchain change to
// math/rand's generator fails loudly.
func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(int64(-1), []byte("lazy"))
	f.Add(int64(math.MinInt64), make([]byte, 300))
	f.Add(int64(int32max), []byte{1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		var node NodeRNG
		want, got := rand.New(rand.NewSource(seed)), node.Seed(seed)
		for i, op := range ops {
			if !drawMixed(want, got, op) {
				t.Fatalf("seed %d: op %d (%d) differs from math/rand", seed, i, op)
			}
		}
	})
}

var rngSink int

// BenchmarkNodeRNGDerive8 prices what a session pays per randomized
// node: reseeding plus eight Intn draws.
func BenchmarkNodeRNGDerive8(b *testing.B) {
	var node NodeRNG
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := node.Derive(int64(i), 5)
		for j := 0; j < 8; j++ {
			rngSink += r.Intn(3)
		}
	}
}

// BenchmarkDeriveRNG8 is the stdlib counterpart of BenchmarkNodeRNGDerive8.
func BenchmarkDeriveRNG8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := DeriveRNG(int64(i), 5)
		for j := 0; j < 8; j++ {
			rngSink += r.Intn(3)
		}
	}
}
