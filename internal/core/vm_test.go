package core

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// buildPlan runs steps 1-3 of the padded pipeline sequentially and
// returns the plan (for tests that drive the virtual layer directly).
func buildPlan(tb testing.TB, g *graph.Graph, in *lcl.Labeling) *paddedPlan {
	tb.Helper()
	dec, err := decodeInputs(g, in)
	if err != nil {
		tb.Fatal(err)
	}
	vf := &errorproof.Verifier{Delta: 3, Scope: dec.scope}
	psiOut, _, err := vf.Run(g, dec.gad, g.NumNodes())
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := planPadded(g, dec, psiOut.Node, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// TestGatherMachineMatchesCentralizedSolve: the full-information gather
// machines, executed exactly on H through the typed engine (RunVirtual),
// must reproduce the centralized inner solve byte for byte — for the
// deterministic and the randomized inner solver, across engine
// geometries.
func TestGatherMachineMatchesCentralizedSolve(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 12, Seed: 4, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, inst.G, inst.In)
	if plan.vg.NumVirtualNodes() == 0 {
		t.Fatal("no valid gadgets")
	}
	table := NewFactTable(plan.vg)
	for _, inner := range []lcl.Solver{sinkless.NewDetSolver(), sinkless.NewRandSolver()} {
		want, _, err := inner.Solve(plan.vg.H, plan.vg.In, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range paddedEngineGrid {
			run, err := RunVirtual(engine.New(opts), plan.vg, table, inner, 7)
			if err != nil {
				t.Fatalf("%s %+v: %v", inner.Name(), opts, err)
			}
			if !lcl.Equal(want, run.Out) {
				t.Fatalf("%s %+v: virtual-machine output differs from centralized solve", inner.Name(), opts)
			}
			for vi, r := range run.Rounds {
				if r < 2 {
					t.Fatalf("%s %+v: virtual node %d stabilized after %d rounds (< 2)", inner.Name(), opts, vi, r)
				}
			}
		}
	}
}

// runGatherOnce prepares a gather relay running inner on plan (no fault
// interceptor), runs it once under seed and closes it: the path a
// PreparedPadded takes.
func runGatherOnce(opts engine.Options, g *graph.Graph, plan *paddedPlan, inner lcl.Solver, seed int64) (*RelayRun, error) {
	r, err := newGatherRelay(engine.New(opts), g, plan, NewFactTable(plan.vg), inner, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	return r.run(seed)
}

// TestRelayMatchesVirtualRun: the physical payload-relay realization and
// the exact virtual-round execution terminate at the same full-component
// fixpoint and produce identical inner labelings.
func TestRelayMatchesVirtualRun(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 16, Seed: 2, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, inst.G, inst.In)
	inner := sinkless.NewDetSolver()
	virt, err := RunVirtual(engine.New(engine.Options{Workers: 1}), plan.vg, NewFactTable(plan.vg), inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	relay, err := runGatherOnce(engine.Options{Workers: 2, Shards: 8}, inst.G, plan, inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !lcl.Equal(virt.Out, relay.Out) {
		t.Fatal("relay-plane output differs from exact virtual-round execution")
	}
	// The relay dilates each virtual hop through the gadgets: its session
	// is strictly longer than the virtual one, in multiples of d+1.
	if relay.Stats.Rounds <= virt.Stats.Rounds {
		t.Fatalf("relay ran %d rounds, virtual %d — dilation lost", relay.Stats.Rounds, virt.Stats.Rounds)
	}
}

// TestRelayDeterministicAcrossGeometries: relay outputs, per-virtual-node
// rounds, and the session profile are byte-identical for every
// worker/shard geometry.
func TestRelayDeterministicAcrossGeometries(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 12, Seed: 5, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, inst.G, inst.In)
	var first *RelayRun
	for _, opts := range paddedEngineGrid {
		run, err := runGatherOnce(opts, inst.G, plan, sinkless.NewRandSolver(), 5)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if first == nil {
			first = run
			continue
		}
		if !lcl.Equal(first.Out, run.Out) {
			t.Fatalf("%+v: relay output differs across geometries", opts)
		}
		if run.Stats.Rounds != first.Stats.Rounds || run.Stats.Deliveries != first.Stats.Deliveries {
			t.Fatalf("%+v: relay profile %+v differs from %+v", opts, run.Stats, first.Stats)
		}
		for vi := range run.Rounds {
			if run.Rounds[vi] != first.Rounds[vi] {
				t.Fatalf("%+v: virtual node %d charged %d rounds, ref %d", opts, vi, run.Rounds[vi], first.Rounds[vi])
			}
		}
	}
}

// TestFactTableReconstructClosure: decoding an incomplete payload fails
// loudly instead of solving on a truncated graph.
func TestFactTableReconstructClosure(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 8, Seed: 1, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, inst.G, inst.In)
	table := NewFactTable(plan.vg)
	w := make([]uint64, table.Words())
	table.SeedWords(0, w)
	if _, err := table.Reconstruct(w); err == nil {
		t.Fatal("reconstructing a single node's initial knowledge succeeded; want closure error")
	}
	// The full fact set reconstructs H itself.
	for i := 0; i < table.NumFacts(); i++ {
		w[i>>6] |= 1 << (uint(i) & 63)
	}
	ks, err := table.Reconstruct(w)
	if err != nil {
		t.Fatal(err)
	}
	if ks.G.NumNodes() != plan.vg.H.NumNodes() || ks.G.NumEdges() != plan.vg.H.NumEdges() {
		t.Fatalf("full reconstruction has %d nodes/%d edges, want %d/%d",
			ks.G.NumNodes(), ks.G.NumEdges(), plan.vg.H.NumNodes(), plan.vg.H.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < ks.G.NumNodes(); v++ {
		if ks.G.ID(v) != plan.vg.H.ID(v) {
			t.Fatalf("node %d reconstructed with identifier %d, want %d", v, ks.G.ID(v), plan.vg.H.ID(v))
		}
	}
}

// TestDeriveRNGStreamStability is the ROADMAP's RNG-determinism grid: the
// randomized padded labelings must be byte-identical before and after the
// native-inner port — i.e. the native-machine solver must equal the
// sequential oracle — across 3 sizes × 3 seeds × {1,2,4} workers × {1,2}
// shards, because every randomized stream is derived from
// (seed, virtual identifier), never from worker or shard state.
func TestDeriveRNGStreamStability(t *testing.T) {
	sizes := []int{8, 12, 16}
	seeds := []int64{1, 2, 3}
	workerGrid := []int{1, 2, 4}
	shardGrid := []int{1, 2}
	for _, base := range sizes {
		for _, seed := range seeds {
			inst, err := BuildInstance(2, InstanceOptions{BaseNodes: base, Seed: seed, Balanced: true})
			if err != nil {
				t.Fatal(err)
			}
			oracle := NewPaddedSolver(sinkless.NewRandSolver(), 3)
			want, _, err := oracle.Solve(inst.G, inst.In, seed)
			if err != nil {
				t.Fatalf("base=%d seed=%d: oracle: %v", base, seed, err)
			}
			for _, w := range workerGrid {
				for _, sh := range shardGrid {
					s := NewEnginePaddedSolver(sinkless.NewRandSolver(), 3,
						engine.New(engine.Options{Workers: w, Shards: sh}))
					got, _, err := s.Solve(inst.G, inst.In, seed)
					if err != nil {
						t.Fatalf("base=%d seed=%d w=%d sh=%d: %v", base, seed, w, sh, err)
					}
					if !lcl.Equal(want, got) {
						t.Fatalf("base=%d seed=%d w=%d sh=%d: randomized labeling differs from oracle — RNG stream not pinned by virtual identifier",
							base, seed, w, sh)
					}
				}
			}
		}
	}
}
