// Package local implements the LOCAL model of distributed computing
// (Section 2 of the paper) in its two equivalent formulations:
//
//  1. Synchronous message passing: computation proceeds in rounds; in each
//     round every node sends a message through each port, receives the
//     messages of its neighbors, and updates its state. RunStatsTyped
//     executes the rounds on the sharded worker-pool runtime of
//     internal/engine.
//  2. View gathering: a T-round algorithm is equivalent to every node
//     gathering its radius-T neighborhood and mapping the view to an
//     output. Cost and the gather helpers account rounds in this
//     formulation; solvers in this repository charge the maximal radius
//     they inspect, which is their round complexity.
//
// Randomized algorithms draw per-node randomness from the engine's
// seed-pinned streams (engine.DeriveRNG and engine.NodeRNG), so entire
// executions are reproducible from a single master seed.
package local

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// Cost accumulates the locality charged by a solver: for each node, the
// largest radius whose ball the node inspected. In the LOCAL model this
// equals the number of communication rounds the node needs.
type Cost struct {
	radius []int
}

// NewCost creates a Cost tracker for n nodes.
func NewCost(n int) *Cost { return &Cost{radius: make([]int, n)} }

// Charge records that node v inspected radius r; charges are monotone.
func (c *Cost) Charge(v graph.NodeID, r int) {
	if r > c.radius[v] {
		c.radius[v] = r
	}
}

// Radius returns the charged radius of node v.
func (c *Cost) Radius(v graph.NodeID) int { return c.radius[v] }

// Rounds returns the round complexity of the execution: the maximum
// charged radius over all nodes.
func (c *Cost) Rounds() int {
	m := 0
	for _, r := range c.radius {
		if r > m {
			m = r
		}
	}
	return m
}

// Merge folds another cost tracker into this one (max per node).
func (c *Cost) Merge(o *Cost) {
	for v, r := range o.radius {
		if r > c.radius[v] {
			c.radius[v] = r
		}
	}
}

// Histogram returns how many nodes were charged each radius value.
func (c *Cost) Histogram() map[int]int {
	h := make(map[int]int)
	for _, r := range c.radius {
		h[r]++
	}
	return h
}

// AdaptiveRadius drives the standard doubling schedule of view-gathering
// algorithms: it presents balls of radius 1, 2, 4, ... to decide until it
// accepts one, and returns the final radius (the node's charged locality).
// decide must be monotone: once it accepts a ball it would accept any
// larger one.
func AdaptiveRadius(g *graph.Graph, v graph.NodeID, maxRadius int, decide func(*graph.Ball) bool) (int, error) {
	for r := 1; ; r *= 2 {
		if r > maxRadius {
			r = maxRadius
		}
		ball := g.BallAround(v, r)
		if decide(ball) {
			return r, nil
		}
		if r >= maxRadius {
			return r, fmt.Errorf("adaptive radius: node %d undecided at max radius %d", v, maxRadius)
		}
	}
}

// NodeInfo is the initial knowledge of a node per the model: the global
// bounds n and Δ, its own identifier and degree, and a private random
// source (nil for deterministic machines).
type NodeInfo = engine.NodeInfo

// TypedMachine is the per-node program: messages are concrete values of
// M exchanged through the engine core's flat planes. See
// engine.TypedMachine for the contract (no silence, engine-owned send
// buffers).
type TypedMachine[M any] = engine.TypedMachine[M]

// ErrRoundLimit is returned by RunStatsTyped when machines do not all
// terminate within the round budget.
var ErrRoundLimit = engine.ErrRoundLimit

// RunStatsTyped executes machines synchronously on g until every machine
// reports done, or maxRounds is exceeded, on a Core configured with the
// given engine's options (a nil engine falls back to the package-level
// defaults, i.e. the -workers/-shards flags of the command binaries). It
// returns the engine's execution profile, which is deterministic for a
// given run — see engine.Stats — so reports may record it.
func RunStatsTyped[M any](e *engine.Engine, g *graph.Graph, machines []TypedMachine[M], masterSeed int64, randomized bool, maxRounds int) (engine.Stats, error) {
	st, err := engine.NewCore[M](e.Options()).RunStats(g, machines, masterSeed, randomized, maxRounds)
	if err != nil && err != engine.ErrRoundLimit {
		return st, fmt.Errorf("run: %w", err)
	}
	return st, err
}
