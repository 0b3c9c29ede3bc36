// Package coloring provides the landscape baseline problems of Figure 1:
// proper 3-coloring of cycles and maximal independent set on cycles (both
// Θ(log* n), via Cole–Vishkin-style color reduction run on the
// message-passing runtime), the trivial O(1) problem, and consistent cycle
// orientation (Θ(n), the "global" corner of the landscape).
package coloring

import (
	"fmt"
	"strconv"

	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Labels of the three-coloring problem.
const (
	Color1 lcl.Label = "c1"
	Color2 lcl.Label = "c2"
	Color3 lcl.Label = "c3"
)

// ColorLabel renders color k (1..3) as a label. Small colors come from a
// table, so labeling a large cycle allocates no string per node.
func ColorLabel(k int) lcl.Label {
	if k >= 0 && k < len(colorLabels) {
		return colorLabels[k]
	}
	return renderColor(k)
}

func renderColor(k int) lcl.Label { return lcl.Label("c" + strconv.Itoa(k)) }

// colorLabels holds ColorLabel's rendering of colors 0..63.
var colorLabels = func() (t [64]lcl.Label) {
	for k := range t {
		t[k] = renderColor(k)
	}
	return t
}()

// Three is the proper 3-coloring ne-LCL on cycles: every node outputs a
// color in {1,2,3} on itself; adjacent nodes must differ.
type Three struct{}

var _ lcl.Problem = Three{}

// Name implements lcl.Problem.
func (Three) Name() string { return "3-coloring-cycle" }

// CheckNode verifies that the output color is one of the three.
func (Three) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	switch out.Node[v] {
	case Color1, Color2, Color3:
		return nil
	}
	return lcl.Violation("3-coloring-cycle", "node", int(v), "color %q not in {c1,c2,c3}", out.Node[v])
}

// CheckEdge verifies that endpoint colors differ.
func (Three) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	ed := g.Edge(e)
	if ed.U.Node == ed.V.Node {
		return lcl.Violation("3-coloring-cycle", "edge", int(e), "self-loop cannot be properly colored")
	}
	if out.Node[ed.U.Node] == out.Node[ed.V.Node] {
		return lcl.Violation("3-coloring-cycle", "edge", int(e), "endpoints share color %q", out.Node[ed.U.Node])
	}
	return nil
}

// MIS labels.
const (
	InSet  lcl.Label = "in-set"
	OutSet lcl.Label = "out-set"
)

// MIS is the maximal independent set ne-LCL: in-set nodes are pairwise
// non-adjacent, and every out-set node has an in-set neighbor.
type MIS struct{}

var _ lcl.Problem = MIS{}

// Name implements lcl.Problem.
func (MIS) Name() string { return "mis-cycle" }

// CheckNode verifies membership labels and maximality (an out node needs
// an in neighbor).
func (MIS) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	switch out.Node[v] {
	case InSet:
		return nil
	case OutSet:
		for _, h := range g.Halves(v) {
			u := g.Edge(h.Edge).Other(h.Side).Node
			if out.Node[u] == InSet {
				return nil
			}
		}
		return lcl.Violation("mis-cycle", "node", int(v), "out-set node has no in-set neighbor")
	}
	return lcl.Violation("mis-cycle", "node", int(v), "label %q not in {in-set,out-set}", out.Node[v])
}

// CheckEdge verifies independence.
func (MIS) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	ed := g.Edge(e)
	if ed.U.Node != ed.V.Node && out.Node[ed.U.Node] == InSet && out.Node[ed.V.Node] == InSet {
		return lcl.Violation("mis-cycle", "edge", int(e), "adjacent in-set nodes")
	}
	return nil
}

// Trivial is the O(1) problem: every node outputs ok. It anchors the
// bottom-left corner of the landscape.
type Trivial struct{}

var _ lcl.Problem = Trivial{}

// LabelOK is the only output label of Trivial.
const LabelOK lcl.Label = "ok"

// Name implements lcl.Problem.
func (Trivial) Name() string { return "trivial" }

// CheckNode accepts exactly the ok label.
func (Trivial) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	if out.Node[v] != LabelOK {
		return lcl.Violation("trivial", "node", int(v), "label %q, want %q", out.Node[v], LabelOK)
	}
	return nil
}

// CheckEdge accepts everything.
func (Trivial) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error { return nil }

// Consistent orientation labels (shared with sinkless conventions).
const (
	DirOut lcl.Label = "out"
	DirIn  lcl.Label = "in"
)

// ConsistentOrientation is the Θ(n) problem on cycles: every node must
// have exactly one outgoing and one incoming half-edge, which forces a
// globally consistent direction around each cycle. It anchors the global
// corner of the landscape.
type ConsistentOrientation struct{}

var _ lcl.Problem = ConsistentOrientation{}

// Name implements lcl.Problem.
func (ConsistentOrientation) Name() string { return "consistent-orientation-cycle" }

// CheckNode requires exactly one out and one in half-edge (degree 2).
func (ConsistentOrientation) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	if g.Degree(v) != 2 {
		return lcl.Violation("consistent-orientation-cycle", "node", int(v), "degree %d, want 2", g.Degree(v))
	}
	outs := 0
	for _, h := range g.Halves(v) {
		switch out.HalfOf(h) {
		case DirOut:
			outs++
		case DirIn:
		default:
			return lcl.Violation("consistent-orientation-cycle", "node", int(v), "half label %q", out.HalfOf(h))
		}
	}
	if outs != 1 {
		return lcl.Violation("consistent-orientation-cycle", "node", int(v), "%d outgoing halves, want exactly 1", outs)
	}
	return nil
}

// CheckEdge requires opposite half labels.
func (ConsistentOrientation) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	a := out.HalfOf(graph.Half{Edge: e, Side: graph.SideU})
	b := out.HalfOf(graph.Half{Edge: e, Side: graph.SideV})
	if (a == DirOut && b == DirIn) || (a == DirIn && b == DirOut) {
		return nil
	}
	return lcl.Violation("consistent-orientation-cycle", "edge", int(e), "half labels (%q,%q)", a, b)
}

// RequireCycleGraph verifies that g is a disjoint union of simple cycles
// (every node degree 2, no self-loops); the cycle baselines only run
// there.
func RequireCycleGraph(g *graph.Graph) error {
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Degree(v) != 2 {
			return fmt.Errorf("node %d has degree %d; cycle problems need 2-regular graphs", v, g.Degree(v))
		}
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if g.IsSelfLoop(e) {
			return fmt.Errorf("edge %d is a self-loop; cycle problems need simple cycles", e)
		}
	}
	return nil
}
