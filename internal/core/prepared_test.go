package core

import (
	"fmt"
	"reflect"
	"testing"

	"locallab/internal/adversary"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// preparedGeometryGrid is workers 1–3 × contiguous shard splits of
// 1, 2, 3 and 7 shards (the engine clamps workers to the shard count).
func preparedGeometryGrid() []engine.Options {
	var grid []engine.Options
	for w := 1; w <= 3; w++ {
		for _, sh := range []int{1, 2, 3, 7} {
			grid = append(grid, engine.Options{Workers: w, Shards: sh})
		}
	}
	return grid
}

// preparedCase builds the engine-backed solver of one registry cell kind.
type preparedCase struct {
	name  string
	level int
	base  int
	mk    func(t *testing.T, eng *engine.Engine) *EnginePaddedSolver
}

func levelSolver(level int) func(t *testing.T, eng *engine.Engine) *EnginePaddedSolver {
	return func(t *testing.T, eng *engine.Engine) *EnginePaddedSolver {
		t.Helper()
		lvl, err := NewLevel(level)
		if err != nil {
			t.Fatal(err)
		}
		det, _, err := lvl.EngineSolvers(eng)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
}

func messageSolver(forceGather bool) func(t *testing.T, eng *engine.Engine) *EnginePaddedSolver {
	return func(_ *testing.T, eng *engine.Engine) *EnginePaddedSolver {
		s := NewEnginePaddedSolver(sinkless.NewMessageSolver(), LevelDelta(2), eng)
		s.ForceGather = forceGather
		return s
	}
}

var preparedCases = []preparedCase{
	{name: "pi2-rand-native", level: 2, base: 12, mk: messageSolver(false)},
	{name: "pi2-rand-gather", level: 2, base: 12, mk: messageSolver(true)},
	{name: "pi2-det", level: 2, base: 12, mk: levelSolver(2)},
	{name: "pi3-det", level: 3, base: 4, mk: levelSolver(3)},
}

// sameCost reports whether two costs charge every node identically.
func sameCost(a, b *lcl.Cost, n int) bool {
	for v := 0; v < n; v++ {
		if a.Radius(graph.NodeID(v)) != b.Radius(graph.NodeID(v)) {
			return false
		}
	}
	return true
}

// sameSolve compares a held Run with a fresh one-shot solve: output
// bytes, the charged Cost, and the whole engine profile (rounds,
// deliveries and relay words at every tower level).
func sameSolve(got, want *Detail, n int) error {
	if !lcl.Equal(got.Out, want.Out) {
		return fmt.Errorf("output labeling differs")
	}
	if !sameCost(got.Cost, want.Cost, n) {
		return fmt.Errorf("charged cost differs")
	}
	if !reflect.DeepEqual(*got.Engine, *want.Engine) {
		return fmt.Errorf("engine profile %+v, one-shot %+v", *got.Engine, *want.Engine)
	}
	return nil
}

// TestPreparedPaddedMatchesOneShot: a held padded solve — decoded inputs,
// Ψ configs, plan and relay sessions prepared once — must reproduce a
// fresh one-shot solve on every Run. Two held cells of each registry
// kind run alternately, three times each under a new seed, across
// workers 1–3 × contiguous shard splits; each Run must equal a fresh
// SolveDetailed in output bytes, Cost and Detail.Engine.
func TestPreparedPaddedMatchesOneShot(t *testing.T) {
	for _, tc := range preparedCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var insts []*Instance
			for _, seed := range []int64{1, 2} {
				inst, err := BuildInstance(tc.level, InstanceOptions{BaseNodes: tc.base, Seed: seed, Balanced: true})
				if err != nil {
					t.Fatal(err)
				}
				insts = append(insts, inst)
			}
			for _, opts := range preparedGeometryGrid() {
				eng := engine.New(opts)
				held := make([]*PreparedPadded, len(insts))
				for i, inst := range insts {
					p, err := tc.mk(t, eng).Prepare(inst.G, inst.In)
					if err != nil {
						t.Fatalf("%+v: prepare: %v", opts, err)
					}
					defer p.Close()
					held[i] = p
				}
				for run := int64(0); run < 3; run++ {
					for i, inst := range insts {
						seed := 10*int64(i+1) + run
						got, err := held[i].Run(seed)
						if err != nil {
							t.Fatalf("%+v cell %d run %d: held: %v", opts, i, run, err)
						}
						want, err := tc.mk(t, eng).SolveDetailed(inst.G, inst.In, seed)
						if err != nil {
							t.Fatalf("%+v cell %d run %d: one-shot: %v", opts, i, run, err)
						}
						if err := sameSolve(got, want, inst.G.NumNodes()); err != nil {
							t.Fatalf("%+v cell %d run %d: %v", opts, i, run, err)
						}
					}
				}
			}
		})
	}
}

// TestPreparedPaddedRelayFault: with a delivery-fault plan installed,
// the held gather relay resets its interceptor before every Run, so each
// faulted Run equals a fresh one-shot faulted solve. The plan fires: a
// 20% drop rate stretches the relay session past the clean one, which
// the flood still absorbs into a valid output.
func TestPreparedPaddedRelayFault(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 12, Seed: 1, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	f := adversary.Fault{ID: "drop:p20", Kind: adversary.KindDrop, Prob: 0.2}
	plan, err := f.CompileGraph(inst.G, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2, Shards: 3})
	mk := func() *EnginePaddedSolver {
		s := levelSolver(2)(t, eng)
		if err := s.SetRelayFault(plan); err != nil {
			t.Fatal(err)
		}
		return s
	}
	p, err := mk().Prepare(inst.G, inst.In)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for run := int64(0); run < 3; run++ {
		seed := 5 + run
		got, err := p.Run(seed)
		if err != nil {
			t.Fatalf("run %d: held: %v", run, err)
		}
		want, err := mk().SolveDetailed(inst.G, inst.In, seed)
		if err != nil {
			t.Fatalf("run %d: one-shot: %v", run, err)
		}
		if err := sameSolve(got, want, inst.G.NumNodes()); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		clean, err := levelSolver(2)(t, eng).SolveDetailed(inst.G, inst.In, seed)
		if err != nil {
			t.Fatalf("run %d: clean: %v", run, err)
		}
		if got.Engine.Relay.Rounds <= clean.Engine.Relay.Rounds {
			t.Fatalf("run %d: faulted relay ran %d rounds, clean %d: the plan never fired",
				run, got.Engine.Relay.Rounds, clean.Engine.Relay.Rounds)
		}
	}
}

// TestPreparedPaddedPsiMismatch: a Run whose Ψ execution disagrees with
// the outputs the prepared plan was built from fails with an exact error
// instead of solving on a stale plan — and the next consistent Run
// succeeds again.
func TestPreparedPaddedPsiMismatch(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 8, Seed: 1, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewEnginePaddedSolver(sinkless.NewDetSolver(), LevelDelta(2), engine.New(engine.Options{Workers: 1}))
	p, err := s.Prepare(inst.G, inst.In)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	planned := p.plan.psiNode[3]
	if planned != errorproof.LabGadOk {
		t.Fatalf("node 3 planned as %q, want a valid-gadget node", planned)
	}
	p.plan.psiNode[3] = errorproof.LabError
	_, err = p.Run(1)
	const wantErr = `engine padded solve verifier: node 3 Ψ output "GadOk" differs from the prepared plan's "Error"`
	if err == nil || err.Error() != wantErr {
		t.Fatalf("stale plan: got error %v, want %q", err, wantErr)
	}
	p.plan.psiNode[3] = planned
	got, err := p.Run(1)
	if err != nil {
		t.Fatalf("consistent run after a mismatch: %v", err)
	}
	if err := sameSolve(got, want, inst.G.NumNodes()); err != nil {
		t.Fatal(err)
	}
}
