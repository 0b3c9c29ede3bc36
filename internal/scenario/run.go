package scenario

import (
	"fmt"
	"runtime"
	"time"

	"locallab/internal/engine"
	"locallab/internal/measure"
	"locallab/internal/solver"
	"locallab/internal/twin"
)

// RunOptions tunes scheduling and reporting; none of it changes the
// deterministic fields of the report.
type RunOptions struct {
	// GridWorkers fans each scenario's (size × seed) grid across a worker
	// pool (measure.FanOut); <= 1 runs sequentially. This is the
	// coarse parallelism layer — engine workers inside a cell default to
	// 1 unless the scenario's engine parameters raise them, so the two
	// layers do not multiply into oversubscription by default.
	GridWorkers int
	// GridWorkersExplicit records that GridWorkers came from an explicit
	// user request (the -workers flag) rather than an adaptive default.
	// Precedence is fixed: a scenario's engine.workers always governs the
	// engine layer inside its cells, and GridWorkers only the grid layer.
	// When both are explicitly > 1 the two requests multiply into
	// oversubscription, so Run rejects the combination loudly instead of
	// silently degrading — mirroring how ShardOverride errors when it
	// cannot take effect.
	GridWorkersExplicit bool
	// ShardOverride overrides every scenario's engine shard count
	// (0 keeps spec values). Outputs are identical either way. Overriding
	// a spec with no engine-aware scenario is an error: the flag could
	// not take effect anywhere.
	ShardOverride int
	// Timing records per-cell wall-clock time in the report. Timing
	// fields vary run to run, so reports stop being byte-identical.
	Timing bool
	// Autoscale replaces the static exactly-one-layer-parallelizes split
	// with the twin-driven adaptive one: GridWorkers becomes a *total*
	// worker budget that planAutoscale divides between the grid and
	// engine layers per cell (big cells get engine workers, small cells
	// pack the grid), heavy cells dispatch first, and sessions are
	// pre-sized from predicted deliveries. Requires Twin. Scheduling
	// only: report bytes are identical to the static split (pinned by
	// the autoscale byte-identity test).
	Autoscale bool
	// Twin is the calibrated cost twin consulted by Autoscale.
	Twin *twin.Twin
}

// Run executes every scenario of the spec and assembles the report.
// Scenarios run in spec order; each scenario's grid cells fan across
// GridWorkers in size-major order. All result fields except timing are
// deterministic: reruns and different worker counts yield byte-identical
// CanonicalJSON.
func Run(spec *Spec, opts RunOptions) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Autoscale && opts.Twin == nil {
		return nil, fmt.Errorf("autoscale requires a calibrated cost twin (load one with -twin)")
	}
	// The explicit-workers conflict rule guards the *static* split,
	// where an engine pin and a wide grid would multiply into
	// oversubscription. Under autoscale the budget is divided, not
	// multiplied, so the combination is exactly what the flag asks for.
	if !opts.Autoscale && opts.GridWorkersExplicit && opts.GridWorkers > 1 {
		for i := range spec.Scenarios {
			if w := spec.Scenarios[i].Engine.Workers; w > 1 {
				return nil, fmt.Errorf("grid -workers %d conflicts with scenario %q pinning engine workers %d: exactly one layer may parallelize; pass -workers 1 to honor the spec's engine workers, or drop the scenario's engine pin",
					opts.GridWorkers, spec.Scenarios[i].Name, w)
			}
		}
	}
	if opts.ShardOverride > 0 {
		anyEngine := false
		for i := range spec.Scenarios {
			if sol, ok := solver.ByName(spec.Scenarios[i].Solver); ok && sol.EngineAware {
				anyEngine = true
				break
			}
		}
		if !anyEngine {
			return nil, fmt.Errorf("shard override set but no scenario in %q runs on the engine", spec.Name)
		}
	}
	rep := &Report{Schema: SchemaVersion, Tool: "lcl-scenario", Name: spec.Name}
	for i := range spec.Scenarios {
		res, err := runScenario(&spec.Scenarios[i], opts)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", spec.Scenarios[i].Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, *res)
	}
	return rep, nil
}

func runScenario(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	sol, ok := solver.ByName(sc.Solver)
	if !ok {
		return nil, fmt.Errorf("unknown solver %q", sc.Solver)
	}
	engineParams := sc.Engine
	if opts.ShardOverride > 0 && sol.EngineAware {
		engineParams.Shards = opts.ShardOverride
	}
	// Size-major grid order; each fan-out index is a grid position.
	grid := make([]measure.CellSpec, 0, len(sc.Sizes)*len(sc.Seeds))
	for _, n := range sc.Sizes {
		for _, seed := range sc.Seeds {
			grid = append(grid, measure.CellSpec{N: n, Seed: seed})
		}
	}

	// Static split (the default): the grid is the parallel layer and
	// engine-aware solvers — including the padded hierarchy entries —
	// share one cell engine (cellEngine). Autoscale replaces both
	// decisions with a twin-derived plan: per-cell engines with planned
	// worker counts, a planned grid width, and heavy-first dispatch.
	gridWorkers := opts.GridWorkers
	var order []int
	eng := cellEngine(sol, engineParams)
	engineFor := func(int) *engine.Engine { return eng }
	if opts.Autoscale {
		budget := opts.GridWorkers
		if budget < 1 {
			budget = runtime.GOMAXPROCS(0)
		}
		plan := planAutoscale(sc, sol.EngineAware, engineParams, opts.Twin, budget, grid)
		gridWorkers = plan.GridWorkers
		order = plan.Order
		if sol.EngineAware {
			engineFor = func(i int) *engine.Engine {
				return engine.New(engine.Options{
					Workers: plan.EngineWorkers[i],
					Shards:  engineParams.Shards,
				})
			}
		}
	}

	// Only the scalar report cell is kept per grid slot: retaining the
	// full solver.Outcome (graph + labelings + padded diagnostics) across
	// the grid would hold every instance live until report assembly.
	cells := make([]CellResult, len(grid))
	err := measure.FanOut(len(grid), gridWorkers, order, func(i int) error {
		// wall_nanos covers the whole cell — instance construction, solve,
		// and verification — since the registry entry owns all three.
		start := time.Now()
		c := grid[i]
		o, err := sol.Run(solver.Request{Family: sc.Family, N: c.N, Seed: c.Seed, Engine: engineFor(i)})
		if err != nil {
			return fmt.Errorf("grid %s cell n=%d seed=%d: %w", sc.Name, c.N, c.Seed, err)
		}
		cells[i] = newCellResult(c.N, c.Seed, o)
		if opts.Timing {
			cells[i].WallNanos = time.Since(start).Nanoseconds()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Name:   sc.Name,
		Family: sc.Family,
		Solver: sc.Solver,
		Engine: sc.Engine,
		Cells:  cells,
	}
	return res, nil
}
