package core

import (
	"fmt"
	"math"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// The hierarchy of Theorem 11: Π₁ is sinkless orientation; Πᵢ₊₁ applies
// the padding transform to Πᵢ with the (log, Δ)-gadget family and
// f(x) = ⌊√x⌋. Deterministic complexity Θ(logⁱ n), randomized
// Θ(logⁱ⁻¹ n · log log n).

// LevelDelta returns the gadget family's Δ needed at level i: level-2
// instances are padded 3-regular graphs; instances of level >= 2 have
// maximum degree 5 (sub-gadget interior nodes), so deeper levels pad with
// Δ=5 gadgets.
func LevelDelta(i int) int {
	if i <= 2 {
		return 3
	}
	return 5
}

// Level bundles a hierarchy level: its problem, instance family, and the
// two solvers.
type Level struct {
	Index   int
	Problem lcl.Problem
	Det     lcl.Solver
	Rand    lcl.Solver
}

// NewLevel builds the Πᵢ machinery for i >= 1.
func NewLevel(i int) (*Level, error) {
	if i < 1 {
		return nil, fmt.Errorf("hierarchy level %d < 1", i)
	}
	if i == 1 {
		return &Level{
			Index:   1,
			Problem: sinkless.Problem{},
			Det:     sinkless.NewDetSolver(),
			Rand:    sinkless.NewRandSolver(),
		}, nil
	}
	inner, err := NewLevel(i - 1)
	if err != nil {
		return nil, err
	}
	delta := LevelDelta(i)
	return &Level{
		Index:   i,
		Problem: NewPiPrime(inner.Problem, delta),
		Det:     NewPaddedSolver(inner.Det, delta),
		Rand:    NewPaddedSolver(inner.Rand, delta),
	}, nil
}

// EngineSolvers returns engine-backed counterparts of the level's Det and
// Rand solvers: the same Lemma-4 pipeline, executed as message-passing
// machines on the sharded engine (nil eng means engine.Options{}),
// with the inner algorithm running as native machines over the payload
// relay plane. Only padded levels (i >= 2) run on the engine; level 1 is
// the sinkless base problem whose message solver lives in
// internal/sinkless. Levels above 2 flatten the whole Π-tower onto the
// engine: every padding layer of the recursion becomes its own engine
// run — the gather machines' decision functions open nested sessions on
// their reconstructed components (see EngineTower) — so no level of the
// padding recursion executes as a centralized sequential solve. Only the
// level-1 leaf decision (the sinkless solver on the fully gathered
// component) remains a plain function, the LOCAL model's base case.
func (l *Level) EngineSolvers(eng *engine.Engine) (det, rnd *EnginePaddedSolver, err error) {
	ps, ok := l.Det.(*PaddedSolver)
	if !ok {
		return nil, nil, fmt.Errorf("level %d has no padded solver to run on the engine", l.Index)
	}
	pr, ok := l.Rand.(*PaddedSolver)
	if !ok {
		return nil, nil, fmt.Errorf("level %d has no padded solver to run on the engine", l.Index)
	}
	return EngineTower(ps, eng), EngineTower(pr, eng), nil
}

// EngineTower rebuilds a sequential PaddedSolver tower as a tower of
// EnginePaddedSolvers sharing one engine: each padding level's inner
// solver is itself engine-backed, so a depth-k solve runs k nested
// engine layers — the outer one on the physical instance, each inner one
// on the virtual graphs its gather machines reconstruct. Labelings stay
// byte-identical to the sequential tower because EnginePaddedSolver is
// label-equivalent to PaddedSolver on every graph and the padded solvers
// are component-decomposable (identifier-pinned RNG streams, KnownSub's
// preserved identifiers/port order), which is exactly the contract
// GatherMachine.Finish relies on.
func EngineTower(ps *PaddedSolver, eng *engine.Engine) *EnginePaddedSolver {
	inner := ps.Inner
	if ip, ok := inner.(*PaddedSolver); ok {
		inner = EngineTower(ip, eng)
	}
	return NewEnginePaddedSolver(inner, ps.Delta, eng)
}

// Verify validates an output of this level's problem, using the global
// padded verifier above level 1.
func (l *Level) Verify(g *graph.Graph, in, out *lcl.Labeling) error {
	return l.Verifier(g, in)(out, nil)
}

// Verifier returns Verify bound to the instance (g, in), for a caller
// that checks many outputs of one unchanging input: above level 1 it
// holds in's Π′ input projection and decodes each output through the
// label table its solve assembled it through (labels, which may be nil;
// see PiPrime.SeededVerifier). Every call still checks its output in
// full.
func (l *Level) Verifier(g *graph.Graph, in *lcl.Labeling) func(out *lcl.Labeling, labels *OutputLabels) error {
	if pp, ok := l.Problem.(*PiPrime); ok {
		return pp.SeededVerifier(g, in)
	}
	return func(out *lcl.Labeling, _ *OutputLabels) error { return lcl.Verify(g, l.Problem, in, out) }
}

// MinBaseNodes is the smallest accepted base-graph size for hierarchy
// instances (BuildInstance rejects smaller; the scenario subsystem's
// "padded" pseudo-family advertises the same floor).
const MinBaseNodes = 4

// InstanceOptions controls hierarchy instance construction.
type InstanceOptions struct {
	// BaseNodes is the size of the level-1 base graph (a random
	// 3-regular graph, the hard family for sinkless orientation).
	BaseNodes int
	// Seed drives the random base graph and identifier shuffles.
	Seed int64
	// Balanced selects the Lemma-5 worst-case balance: at each padding
	// step the gadget is sized so the padded instance has roughly the
	// square of the base size (f(x) = ⌊√x⌋). When false, GadgetHeight
	// fixes the gadget size instead.
	Balanced bool
	// GadgetHeight is the uniform sub-gadget height when Balanced is
	// false (>= 2).
	GadgetHeight int
}

// Instance is a hierarchy instance with its construction trail.
type Instance struct {
	G  *graph.Graph
	In *lcl.Labeling
	// Pads records the padding steps from level 1 upward (empty for
	// level 1).
	Pads []*PaddedInstance
}

// BuildInstance constructs a Πᵢ instance per Section 5: start from a
// random 3-regular graph (hard for sinkless orientation) and pad i-1
// times. With Balanced, each step chooses the gadget height h so a gadget
// has about as many nodes as the current base graph — the Lemma-5 balance
// that makes both factors of T(Π,√n)·d(√n) bite.
func BuildInstance(level int, opts InstanceOptions) (*Instance, error) {
	if level < 1 {
		return nil, fmt.Errorf("build instance: level %d < 1", level)
	}
	if opts.BaseNodes < MinBaseNodes {
		return nil, fmt.Errorf("build instance: base nodes %d < %d", opts.BaseNodes, MinBaseNodes)
	}
	n := opts.BaseNodes
	if n%2 == 1 {
		n++
	}
	base, err := graph.NewRandomRegular(n, 3, opts.Seed, false)
	if err != nil {
		return nil, fmt.Errorf("build instance base: %w", err)
	}
	inst := &Instance{G: base, In: lcl.NewLabeling(base)}
	for i := 2; i <= level; i++ {
		delta := LevelDelta(i)
		h := opts.GadgetHeight
		if opts.Balanced {
			h = balancedHeight(delta, inst.G.NumNodes())
		}
		if h < 2 {
			h = 2
		}
		pad, err := BuildPadded(inst.G, inst.In, PadOptions{
			Delta:        delta,
			GadgetHeight: h,
			Seed:         opts.Seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("build instance level %d: %w", i, err)
		}
		inst.Pads = append(inst.Pads, pad)
		inst.G, inst.In = pad.G, pad.In
	}
	return inst, nil
}

// balancedHeight picks the uniform sub-gadget height whose gadget size is
// nearest to the base size (so padded N ≈ base²; equivalently the base
// is ≈ √N = f(N)).
func balancedHeight(delta, baseNodes int) int {
	best, bestDiff := 2, math.MaxFloat64
	for h := 2; h < 40; h++ {
		size := float64(delta)*float64((int(1)<<h)-1) + 1
		diff := math.Abs(size - float64(baseNodes))
		if diff < bestDiff {
			best, bestDiff = h, diff
		}
		if size > 4*float64(baseNodes) {
			break
		}
	}
	return best
}
