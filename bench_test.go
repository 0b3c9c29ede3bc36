package locallab_test

// One benchmark per paper artifact (figures 1-8, Theorems 1/6/11, plus
// the ablations of internal/experiments), each regenerating its table at
// quick scale, plus micro-benchmarks of the load-bearing primitives. Run
// with
//
//	go test -bench=. -benchmem

import (
	"testing"

	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/experiments"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/scenario"
	"locallab/internal/sinkless"
	"locallab/internal/solver"
	"locallab/internal/twin"
)

func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if r.Table == "" {
			b.Fatal("empty table")
		}
	}
}

// benchSweep benchmarks a sweeping experiment with inline sweeps.
func benchSweep(b *testing.B, run func(experiments.Scale, int) (*experiments.Result, error)) {
	b.Helper()
	benchExperiment(b, func(sc experiments.Scale) (*experiments.Result, error) { return run(sc, 1) })
}

func BenchmarkFig1Landscape(b *testing.B)       { benchSweep(b, experiments.Fig1Landscape) }
func BenchmarkFig2Padding(b *testing.B)         { benchExperiment(b, experiments.Fig2Padding) }
func BenchmarkFig3SinklessCheck(b *testing.B)   { benchExperiment(b, experiments.Fig3SinklessChecker) }
func BenchmarkFig4PortMapping(b *testing.B)     { benchExperiment(b, experiments.Fig4PortMapping) }
func BenchmarkFig5SubGadget(b *testing.B)       { benchExperiment(b, experiments.Fig5SubGadget) }
func BenchmarkFig6Gadget(b *testing.B)          { benchExperiment(b, experiments.Fig6Gadget) }
func BenchmarkFig7ColorProof(b *testing.B)      { benchExperiment(b, experiments.Fig7ColorProof) }
func BenchmarkFig8ChainProof(b *testing.B)      { benchExperiment(b, experiments.Fig8ChainProof) }
func BenchmarkThm1Transform(b *testing.B)       { benchExperiment(b, experiments.Thm1Transform) }
func BenchmarkThm6GadgetFamily(b *testing.B)    { benchExperiment(b, experiments.Thm6GadgetFamily) }
func BenchmarkThm11Hierarchy(b *testing.B)      { benchSweep(b, experiments.Thm11Hierarchy) }
func BenchmarkAblationBalance(b *testing.B)     { benchExperiment(b, experiments.AblationBalance) }
func BenchmarkAblationRandRepair(b *testing.B)  { benchExperiment(b, experiments.AblationRandRepair) }
func BenchmarkDiscussionNetDecomp(b *testing.B) { benchExperiment(b, experiments.DiscussionNetDecomp) }
func BenchmarkLowerBoundWitness(b *testing.B)   { benchExperiment(b, experiments.LowerBoundWitness) }
func BenchmarkAblationDoubling(b *testing.B)    { benchExperiment(b, experiments.AblationDoubling) }
func BenchmarkAblationMessages(b *testing.B)    { benchExperiment(b, experiments.AblationMessageProtocol) }

// Micro-benchmarks of the primitives behind the experiments.

func BenchmarkSinklessDet2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := sinkless.NewDetSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSinklessRand2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := sinkless.NewRandSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCVSolve2048 drives the Cole–Vishkin solver end to end on a
// 2048-cycle; the allocs/op are the per-Solve setup (machines,
// labeling, cost), not the round loop, which the AllocsPerRun pins in
// internal/coloring hold at zero. (The engine-only round-loop numbers
// are BenchmarkCVEngine*2048 in internal/coloring.)
func BenchmarkCVSolve2048(b *testing.B) {
	g, err := graph.NewCycle(2048, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := coloring.NewCVSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinklessMsg2048 drives the message-passing sinkless protocol
// through the sharded engine; like BenchmarkCVSolve2048, steady-state
// rounds allocate nothing and the reported allocs/op are per-Solve setup.
func BenchmarkSinklessMsg2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := sinkless.NewMessageSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGadgetVerifier(b *testing.B) {
	gd, err := gadget.BuildUniform(3, 7)
	if err != nil {
		b.Fatal(err)
	}
	vf := &errorproof.Verifier{Delta: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vf.Run(gd.G, gd.In, gd.NumNodes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaddedSolveLevel2(b *testing.B) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 32, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewPaddedSolver(sinkless.NewDetSolver(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(inst.G, inst.In, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePaddedSolveLevel2 is the engine-backed counterpart of
// BenchmarkPaddedSolveLevel2: the same Lemma-4 pipeline, but with Ψ
// computed by the fixpoint message machines and every simulated inner
// round realized as d+1 physical engine rounds. It does strictly more
// work than the oracle (it executes the message plane the analytical
// accounting only charges for), so the interesting numbers are the
// scaling across workers, not the comparison against the oracle.
func BenchmarkEnginePaddedSolveLevel2(b *testing.B) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 32, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(b *testing.B) {
			s := core.NewEnginePaddedSolver(sinkless.NewDetSolver(), 3,
				engine.New(engine.Options{Workers: workers}))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Solve(inst.G, inst.In, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedPaddedLevel2 is BenchmarkEnginePaddedSolveLevel2 on a
// held cell: the solve is prepared once (decoded input, Ψ configs, plan,
// relay machines and sessions), and every op is one Run — both engine
// sessions end to end plus a fresh assembly. Its B/op next to the
// one-shot benchmark's is what preparing a cell saves.
func BenchmarkPreparedPaddedLevel2(b *testing.B) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 32, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(b *testing.B) {
			s := core.NewEnginePaddedSolver(sinkless.NewDetSolver(), 3,
				engine.New(engine.Options{Workers: workers}))
			benchPrepared(b, s, inst)
		})
	}
}

// BenchmarkPreparedTowerPi3 runs a held Π₃ tower cell (pi3-det, base 4,
// 1 engine worker — the perfbench tower-pi3 cell shape). Only the outer
// level is prepared: the nested per-component solves reconstruct new
// graphs on every Run and stay one-shot.
func BenchmarkPreparedTowerPi3(b *testing.B) {
	inst, err := core.BuildInstance(3, core.InstanceOptions{BaseNodes: 4, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	lvl, err := core.NewLevel(3)
	if err != nil {
		b.Fatal(err)
	}
	det, _, err := lvl.EngineSolvers(engine.New(engine.Options{Workers: 1}))
	if err != nil {
		b.Fatal(err)
	}
	benchPrepared(b, det, inst)
}

// BenchmarkHeldPi2Native runs a held pi2-rand-native base-48 registry
// cell (1 engine worker), the perfbench pi2-native cell shape: the Ψ and
// native relay sessions, assembly, the held verify and the output
// checksum.
func BenchmarkHeldPi2Native(b *testing.B) { benchHeldEntry(b, "pi2-rand-native", 48) }

// BenchmarkHeldTowerPi3 runs a held pi3-det base-4 registry cell (1
// engine worker), the perfbench tower-pi3 cell shape: the outer Ψ and
// gather relay sessions with the nested level's one-shot solves inside
// the relay's hosts, assembly, the held verify and the output checksum.
func BenchmarkHeldTowerPi3(b *testing.B) { benchHeldEntry(b, "pi3-det", 4) }

// benchHeldEntry prepares the named padded registry entry on a balanced
// instance of base nodes (seed 1, 1 engine worker), runs it once to
// build the plan and the verifier, and times Runs.
func benchHeldEntry(b *testing.B, name string, base int) {
	b.Helper()
	entry, ok := solver.ByName(name)
	if !ok {
		b.Fatalf("no %s entry", name)
	}
	p, err := entry.Prepare(solver.Request{Family: solver.PaddedFamily, N: base, Seed: 1,
		Engine: engine.New(engine.Options{Workers: 1})})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPrepared prepares s on inst, runs it once to build the plan, and
// times Runs.
func benchPrepared(b *testing.B, s *core.EnginePaddedSolver, inst *core.Instance) {
	b.Helper()
	p, err := s.Prepare(inst.G, inst.In)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Run(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyPaddedLevel2 verifies a Π₂ output. "cold" is
// VerifyPadded, which decodes the input and checks the gadget structure
// on every call; "held" checks through a verifier that built the input
// projection once, as a prepared registry cell does, so an op decodes
// and checks only the output.
func BenchmarkVerifyPaddedLevel2(b *testing.B) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 32, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewPaddedSolver(sinkless.NewDetSolver(), 3)
	out, _, err := s.Solve(inst.G, inst.In, 0)
	if err != nil {
		b.Fatal(err)
	}
	prime := core.NewPiPrime(sinkless.Problem{}, 3)
	benchVerify(b, func(out *lcl.Labeling) error { return core.VerifyPadded(inst.G, prime, inst.In, out) },
		prime.Verifier(inst.G, inst.In), out)
}

// BenchmarkVerifyPaddedLevel3 verifies a Π₃ tower output (the perfbench
// tower-pi3 cell shape: base 4, balanced, 1440 nodes): constraint checks
// at the outer level, then the reconstructed virtual graph one level
// down, which is verified one-shot in both modes (see
// BenchmarkVerifyPaddedLevel2).
func BenchmarkVerifyPaddedLevel3(b *testing.B) {
	inst, err := core.BuildInstance(3, core.InstanceOptions{BaseNodes: 4, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	lvl, err := core.NewLevel(3)
	if err != nil {
		b.Fatal(err)
	}
	out, _, err := lvl.Det.Solve(inst.G, inst.In, 0)
	if err != nil {
		b.Fatal(err)
	}
	held := lvl.Verifier(inst.G, inst.In)
	benchVerify(b, func(out *lcl.Labeling) error { return lvl.Verify(inst.G, inst.In, out) },
		func(out *lcl.Labeling) error { return held(out, nil) }, out)
}

// benchVerify runs the cold and held verifies of one output as
// sub-benchmarks.
func benchVerify(b *testing.B, cold, held func(*lcl.Labeling) error, out *lcl.Labeling) {
	for _, mode := range []struct {
		name   string
		verify func(*lcl.Labeling) error
	}{{"cold", cold}, {"held", held}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mode.verify(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCyclePotential(b *testing.B) {
	g, err := graph.NewRandomRegular(4096, 3, 7, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CyclePotential(60)
	}
}

func BenchmarkBallGathering(b *testing.B) {
	g, err := graph.NewRandomRegular(8192, 3, 9, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BallAround(graph.NodeID(i%g.NumNodes()), 8)
	}
}

// BenchmarkAutoscaleMixedGrid is the cost-twin acceptance benchmark: the
// autoscale-mixed builtin grid (one engine-backed solver, cell sizes
// spanning two orders of magnitude) under the static split versus the
// twin-driven adaptive split, at the same total worker budget
// (GOMAXPROCS). Statically, the grid layer is the only parallel one, so
// the huge cells run on single-worker engines and dominate the
// makespan; the autoscaler gives exactly those cells the engine workers
// the twin prices as worthwhile. The win only materializes with cores
// to split (compare the sub-benchmarks on a multi-core runner — the
// nightly CI job records the ratio); the report bytes are identical
// either way, which TestAutoscaleByteIdentity pins.
func BenchmarkAutoscaleMixedGrid(b *testing.B) {
	spec, ok := scenario.Builtin("autoscale-mixed")
	if !ok {
		b.Fatal("autoscale-mixed builtin missing")
	}
	tw, err := twin.LoadFile("TWIN_0.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts scenario.RunOptions
	}{
		{"static", scenario.RunOptions{}},
		{"autoscale", scenario.RunOptions{Autoscale: true, Twin: tw}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Run(spec, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
