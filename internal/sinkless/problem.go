// Package sinkless implements the sinkless orientation problem — the base
// case of the paper's hierarchy (Section 5) — in the node-edge formalism
// of Figure 3: every half-edge is labeled out or in, each node must have
// at least one incident out half-edge, and the two halves of every edge
// must carry opposite labels.
//
// Two solvers are provided, matching the complexities the paper builds on:
//
//   - Deterministic, measured Θ(log n) on the hard families: every node
//     computes the cycle potential t(v) = min over cycles C of
//     (dist(v,C)+|C|); nodes with a strictly smaller neighbor point down
//     the potential, and local minima orient the canonical shortest cycle
//     through themselves. Both rules are functions of the graph, so
//     adjacent nodes never claim the same edge in opposite directions
//     (see the package tests for the exercised invariants).
//   - Randomized, measured Θ(log log n)-shaped: every node claims a
//     uniformly random incident half-edge; leftover sinks repair by
//     flipping a shortest path to the nearest node of out-degree >= 2.
//     This stands in for the Ghaffari–Su algorithm: it has the same
//     shattering profile.
package sinkless

import (
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Output labels of the ne-LCL.
const (
	LabelOut lcl.Label = "out"
	LabelIn  lcl.Label = "in"
)

// Problem is the sinkless orientation ne-LCL. It has no input labels.
type Problem struct{}

var _ lcl.Problem = Problem{}

// Name implements lcl.Problem.
func (Problem) Name() string { return "sinkless-orientation" }

// StarCheckable reports that the constraints read only the immediate
// node/edge configuration (labels on the element itself and its incident
// halves), so the padding transform may evaluate them on hypothetical
// stars (Section 3.3, constraints 5 and 6).
func (Problem) StarCheckable() bool { return true }

// CheckNode requires at least one incident out half-edge (no node is a
// sink). Isolated nodes (degree 0) cannot satisfy the constraint; the
// paper sidesteps them by adding isolated nodes only in lower-bound
// constructions where they carry no constraint — we follow the convention
// that a degree-0 node is unconstrained.
func (Problem) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	if g.Degree(v) == 0 {
		return nil
	}
	for _, h := range g.Halves(v) {
		switch out.HalfOf(h) {
		case LabelOut:
			return nil
		case LabelIn:
		default:
			return lcl.Violation("sinkless-orientation", "node", int(v),
				"half-edge (%d,%d) has label %q, want out/in", h.Edge, h.Side, out.HalfOf(h))
		}
	}
	return lcl.Violation("sinkless-orientation", "node", int(v), "node is a sink: all %d half-edges labeled in", g.Degree(v))
}

// CheckEdge requires the two halves of an edge to carry opposite labels,
// so the orientation is consistent.
func (Problem) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	a := out.HalfOf(graph.Half{Edge: e, Side: graph.SideU})
	b := out.HalfOf(graph.Half{Edge: e, Side: graph.SideV})
	okPair := (a == LabelOut && b == LabelIn) || (a == LabelIn && b == LabelOut)
	if !okPair {
		return lcl.Violation("sinkless-orientation", "edge", int(e),
			"half labels (%q,%q) are not an orientation", a, b)
	}
	return nil
}

// Orientation is a convenience decoded form of a solution: for each edge,
// the side labeled out.
func Orientation(g *graph.Graph, out *lcl.Labeling) []graph.Side {
	sides := make([]graph.Side, g.NumEdges())
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if out.HalfOf(graph.Half{Edge: e, Side: graph.SideU}) == LabelOut {
			sides[e] = graph.SideU
		} else {
			sides[e] = graph.SideV
		}
	}
	return sides
}

// OutDegrees returns each node's out-degree under the labeling.
func OutDegrees(g *graph.Graph, out *lcl.Labeling) []int {
	deg := make([]int, g.NumNodes())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, h := range g.Halves(v) {
			if out.HalfOf(h) == LabelOut {
				deg[v]++
			}
		}
	}
	return deg
}
