package core

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// paddedEngineGrid is the worker/shard geometry grid the engine-padded
// differential tests sweep.
var paddedEngineGrid = []engine.Options{
	{Workers: 1}, // inline, default shard count
	{Workers: 1, Shards: 1},
	{Workers: 2, Shards: 5},
	{Workers: 4, Shards: 16},
}

// TestEnginePaddedMatchesOracle is the acceptance property of the
// native-machine rewrite: on balanced Π₂ instances the engine-backed
// solver — whose inner algorithm runs as native machines over the
// payload relay plane, with no centralized inner Solve — must produce
// byte-identical labelings to the sequential PaddedSolver oracle, for
// both the deterministic and the randomized inner solver, across sizes ×
// seeds × engine geometries. Its measured cost and engine profile must
// be identical across geometries, and the measured engine rounds must
// stay within the charged bound.
func TestEnginePaddedMatchesOracle(t *testing.T) {
	sizes := []int{8, 12, 16}
	seeds := []int64{1, 2, 3}
	inners := []struct {
		name string
		mk   func() lcl.Solver
	}{
		{"det", func() lcl.Solver { return sinkless.NewDetSolver() }},
		{"rand", func() lcl.Solver { return sinkless.NewRandSolver() }},
	}
	for _, inner := range inners {
		for _, base := range sizes {
			for _, seed := range seeds {
				inst, err := BuildInstance(2, InstanceOptions{BaseNodes: base, Seed: seed, Balanced: true})
				if err != nil {
					t.Fatal(err)
				}
				oracle := NewPaddedSolver(inner.mk(), 3)
				want, _, err := oracle.Solve(inst.G, inst.In, seed)
				if err != nil {
					t.Fatalf("%s base=%d seed=%d: oracle: %v", inner.name, base, seed, err)
				}
				refCost := -1
				var refStats *EngineRunStats
				for _, opts := range paddedEngineGrid {
					s := NewEnginePaddedSolver(inner.mk(), 3, engine.New(opts))
					d, err := s.SolveDetailed(inst.G, inst.In, seed)
					if err != nil {
						t.Fatalf("%s base=%d seed=%d %+v: %v", inner.name, base, seed, opts, err)
					}
					got, cost, stats := d.Out, d.Cost, d.Engine
					if !lcl.Equal(want, got) {
						t.Fatalf("%s base=%d seed=%d %+v: engine labeling differs from oracle", inner.name, base, seed, opts)
					}
					if refCost < 0 {
						refCost, refStats = cost.Rounds(), stats
					}
					if cost.Rounds() != refCost {
						t.Fatalf("%s base=%d seed=%d %+v: cost %d varies across geometries (ref %d)",
							inner.name, base, seed, opts, cost.Rounds(), refCost)
					}
					if stats.Rounds() != refStats.Rounds() || stats.Deliveries() != refStats.Deliveries() {
						t.Fatalf("%s base=%d seed=%d %+v: engine profile varies across geometries", inner.name, base, seed, opts)
					}
					if got := stats.Rounds(); got > cost.Rounds() {
						t.Fatalf("%s base=%d seed=%d %+v: measured %d engine rounds exceed charged bound %d",
							inner.name, base, seed, opts, got, cost.Rounds())
					}
					if stats.Deliveries() <= 0 {
						t.Fatalf("%s base=%d seed=%d %+v: engine solve delivered no messages", inner.name, base, seed, opts)
					}
					if stats.Relay.Rounds == 0 {
						t.Fatalf("%s base=%d seed=%d %+v: relay session did not run", inner.name, base, seed, opts)
					}
				}
			}
		}
	}
}

// TestEnginePaddedMatchesOracleCorrupted covers invalid gadgets: the
// error-proof pointers, port invalidation, and the shrunken virtual graph
// must come out byte-identical on both paths.
func TestEnginePaddedMatchesOracleCorrupted(t *testing.T) {
	base := buildBase(t, 16, 4)
	// Retry corruption patterns until the shrunken instance stays
	// solvable (removing gadgets can orphan tree remnants where sinkless
	// orientation is genuinely unsolvable), mirroring the Fig-4 harness.
	var pi *PaddedInstance
	var want *lcl.Labeling
	for attempt := 0; ; attempt++ {
		if attempt > 40 {
			t.Fatal("no solvable corruption pattern found")
		}
		corrupt := []graph.NodeID{graph.NodeID(attempt % base.NumNodes()), graph.NodeID((attempt + 7) % base.NumNodes())}
		p, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{
			Delta: 3, GadgetHeight: 3, CorruptGadgets: corrupt, Seed: int64(attempt),
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewPaddedSolver(sinkless.NewDetSolver(), 3)
		out, _, err := oracle.Solve(p.G, p.In, 1)
		if err == nil {
			pi, want = p, out
			break
		}
	}
	for _, opts := range paddedEngineGrid {
		s := NewEnginePaddedSolver(sinkless.NewDetSolver(), 3, engine.New(opts))
		d, err := s.SolveDetailed(pi.G, pi.In, 1)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !lcl.Equal(want, d.Out) {
			t.Fatalf("%+v: corrupted-instance labeling differs from oracle", opts)
		}
		if d.Invalid == 0 {
			t.Fatalf("%+v: corruption produced no invalid gadget", opts)
		}
		if err := VerifyPadded(pi.G, NewPiPrime(sinkless.Problem{}, 3), pi.In, d.Out); err != nil {
			t.Fatalf("%+v: engine output rejected: %v", opts, err)
		}
	}
}

// TestLevelEngineSolvers: level 1 has no padding layer to run on the
// engine; level 2 engine solvers solve and verify end to end.
func TestLevelEngineSolvers(t *testing.T) {
	lvl1, err := NewLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lvl1.EngineSolvers(nil); err == nil {
		t.Fatal("level-1 engine solvers accepted")
	}
	lvl2, err := NewLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	det, rnd, err := lvl2.EngineSolvers(engine.New(engine.Options{Workers: 2, Shards: 8}))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 12, Seed: 2, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*EnginePaddedSolver{det, rnd} {
		out, _, err := s.Solve(inst.G, inst.In, 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := lvl2.Verify(inst.G, inst.In, out); err != nil {
			t.Fatalf("%s: verification failed: %v", s.Name(), err)
		}
	}
}
