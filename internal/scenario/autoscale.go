package scenario

import (
	"sort"

	"locallab/internal/measure"
	"locallab/internal/twin"
)

// autoscalePlan is the twin-derived schedule for one scenario grid: how
// many grid workers fan the cells, how many engine workers each cell
// runs with, and the dispatch order. Plans change scheduling only —
// every report byte is pinned identical to the static split by the
// engine's geometry-independence invariant (and by the autoscale
// byte-identity test).
type autoscalePlan struct {
	// GridWorkers is the chosen width of the grid layer.
	GridWorkers int
	// EngineWorkers[i] is cell i's engine worker count (1 for cells the
	// twin cannot predict, and for non-engine solvers).
	EngineWorkers []int
	// Order dispatches predicted-heavy cells first (LPT heuristic); nil
	// when the grid runs sequentially.
	Order []int
}

// planAutoscale splits a total worker budget between the grid and
// engine layers of one scenario. The twin prices every cell at every
// candidate split; the plan picks the grid width g minimizing the
// standard makespan lower bound max(Σ wall_i / g, max_i wall_i), with
// each cell's engine workers capped at its twin-optimal count and at
// the per-grid-slot share budget/g. Cells the twin has no model for
// keep the static split (one engine worker) — autoscaling degrades to
// the default, it never guesses.
//
// A scenario that pins engine.workers in its spec keeps that pin: the
// spec author's explicit request outranks the twin, and only the grid
// width around it is adapted.
func planAutoscale(sc *Scenario, engineAware bool, engineParams EngineParams, tw *twin.Twin, budget int, grid []measure.CellSpec) autoscalePlan {
	if budget < 1 {
		budget = 1
	}
	n := len(grid)
	plan := autoscalePlan{
		GridWorkers:   budget,
		EngineWorkers: make([]int, n),
	}
	// Desired engine workers per cell, ignoring the grid share for now.
	desired := make([]int, n)
	predicted := make([]bool, n)
	for i, c := range grid {
		desired[i] = 1
		if _, ok := tw.Predict(sc.Family, sc.Solver, c.N, 1, engineParams.Shards); !ok {
			continue
		}
		predicted[i] = true
		if engineAware {
			if engineParams.Workers > 0 {
				desired[i] = engineParams.Workers
			} else {
				desired[i] = tw.OptimalWorkers(sc.Family, sc.Solver, c.N, budget)
			}
		}
	}
	// wallAt prices cell i at w engine workers; unpredicted cells get
	// unit weight so they still spread across the grid.
	wallAt := func(i, w int) float64 {
		if !predicted[i] {
			return 1
		}
		p, _ := tw.Predict(sc.Family, sc.Solver, grid[i].N, w, engineParams.Shards)
		return float64(p.WallNs)
	}
	bestG, bestSpan := budget, 0.0
	for g := 1; g <= budget; g++ {
		share := budget / g
		if share < 1 {
			share = 1
		}
		var sum, maxw float64
		for i := range grid {
			e := desired[i]
			if e > share {
				e = share
			}
			w := wallAt(i, e)
			sum = sum + w
			if w > maxw {
				maxw = w
			}
		}
		span := sum / float64(g)
		if maxw > span {
			span = maxw
		}
		// Ties go to the wider grid: more slots pack small cells better
		// than the estimate can see.
		if g == 1 || span <= bestSpan {
			bestG, bestSpan = g, span
		}
	}
	plan.GridWorkers = bestG
	share := budget / bestG
	if share < 1 {
		share = 1
	}
	final := make([]float64, n)
	for i := range grid {
		e := desired[i]
		if e > share {
			e = share
		}
		plan.EngineWorkers[i] = e
		final[i] = wallAt(i, e)
	}
	if bestG > 1 {
		plan.Order = make([]int, n)
		for i := range plan.Order {
			plan.Order[i] = i
		}
		sort.SliceStable(plan.Order, func(a, b int) bool {
			return final[plan.Order[a]] > final[plan.Order[b]]
		})
	}
	return plan
}
