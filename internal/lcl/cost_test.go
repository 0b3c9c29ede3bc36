package lcl

import (
	"testing"

	"locallab/internal/graph"
)

func TestCost(t *testing.T) {
	c := NewCost(4)
	c.Charge(0, 3)
	c.Charge(0, 1) // monotone: no decrease
	c.Charge(2, 7)
	if got := c.Radius(0); got != 3 {
		t.Errorf("Radius(0) = %d, want 3", got)
	}
	if got := c.Rounds(); got != 7 {
		t.Errorf("Rounds = %d, want 7", got)
	}
	o := NewCost(4)
	o.Charge(1, 9)
	c.Merge(o)
	if got := c.Rounds(); got != 9 {
		t.Errorf("after merge Rounds = %d, want 9", got)
	}
	h := c.Histogram()
	if h[0] != 1 || h[3] != 1 || h[7] != 1 || h[9] != 1 {
		t.Errorf("unexpected histogram %v", h)
	}
}

func TestCostChargeMonotone(t *testing.T) {
	c := NewCost(3)
	for _, r := range []int{5, 2, 5, 1, 0} {
		c.Charge(1, r)
		if got := c.Radius(1); got != 5 {
			t.Fatalf("after Charge(1, %d): Radius = %d, want 5 (monotone)", r, got)
		}
	}
	if got := c.Radius(0); got != 0 {
		t.Errorf("uncharged node Radius = %d, want 0", got)
	}
}

func TestCostHistogramAccountsEveryNode(t *testing.T) {
	c := NewCost(6)
	c.Charge(1, 2)
	c.Charge(2, 2)
	c.Charge(3, 9)
	h := c.Histogram()
	total := 0
	for _, k := range h {
		total += k
	}
	if total != 6 {
		t.Errorf("histogram counts %d nodes, want 6", total)
	}
	if h[0] != 3 || h[2] != 2 || h[9] != 1 {
		t.Errorf("histogram = %v, want 0:3 2:2 9:1", h)
	}
}

func TestCostMergeIsPerNodeMax(t *testing.T) {
	a, b := NewCost(4), NewCost(4)
	a.Charge(0, 4)
	a.Charge(1, 1)
	b.Charge(1, 6)
	b.Charge(2, 2)
	// Merge must be the per-node max, and merging the other way around
	// must give the same result (commutativity).
	a2, b2 := NewCost(4), NewCost(4)
	a2.Charge(0, 4)
	a2.Charge(1, 1)
	b2.Charge(1, 6)
	b2.Charge(2, 2)
	a.Merge(b)
	b2.Merge(a2)
	for v := 0; v < 4; v++ {
		if a.Radius(graph.NodeID(v)) != b2.Radius(graph.NodeID(v)) {
			t.Fatalf("merge not commutative at node %d: %d vs %d", v, a.Radius(graph.NodeID(v)), b2.Radius(graph.NodeID(v)))
		}
	}
	want := []int{4, 6, 2, 0}
	for v, r := range want {
		if got := a.Radius(graph.NodeID(v)); got != r {
			t.Errorf("merged Radius(%d) = %d, want %d", v, got, r)
		}
	}
	// Merging an all-zero tracker is the identity.
	before := a.Histogram()
	a.Merge(NewCost(4))
	after := a.Histogram()
	for r, k := range before {
		if after[r] != k {
			t.Errorf("identity merge changed histogram at radius %d: %d -> %d", r, k, after[r])
		}
	}
}
