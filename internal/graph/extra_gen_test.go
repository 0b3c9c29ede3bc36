package graph

import "testing"

func TestNewHypercube(t *testing.T) {
	g, err := NewHypercube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 16 || g.NumEdges() != 32 {
		t.Fatalf("Q4 size (%d,%d), want (16,32)", g.NumNodes(), g.NumEdges())
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 node %d degree %d", v, g.Degree(v))
		}
	}
	// Vertex-transitive: WL cannot split it at any radius.
	for _, r := range []int{0, 2, 5} {
		if _, k := WLColors(g, r); k != 1 {
			t.Fatalf("Q4 WL classes at r=%d: %d, want 1", r, k)
		}
	}
	if _, err := NewHypercube(0, 1); err == nil {
		t.Error("dim 0 accepted")
	}
}
