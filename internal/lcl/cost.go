package lcl

import "locallab/internal/graph"

// Cost accumulates the locality charged by a solver: for each node, the
// largest radius whose ball the node inspected. A T-round LOCAL
// algorithm is equivalent to every node gathering its radius-T
// neighborhood and mapping the view to an output (Section 2 of the
// paper), so the charged radius equals the number of communication
// rounds the node needs. Message-passing solvers execute their rounds on
// internal/engine and charge what they ran.
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
