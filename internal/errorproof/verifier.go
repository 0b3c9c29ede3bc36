package errorproof

import (
	"fmt"
	"math/bits"

	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Verifier is the algorithm V of Definition 2 / Section 4.5: given an
// upper bound n on the graph size, it solves ΨG in O(log n) rounds —
// every node of a valid gadget outputs GadOk, and in an invalid gadget
// every node outputs an error label forming valid pointer chains.
//
// The locality argument (Lemma 10): within radius R = 2·log2(n) + O(1) a
// node either sees a structural error or its entire (then necessarily
// valid) gadget, because locally-valid sub-gadgets are complete binary
// trees whose height is bounded by log2 of their size.
type Verifier struct {
	Delta int
	// Scope restricts to gadget edges in padded graphs (nil = all).
	Scope func(graph.EdgeID) bool
	// Inputs, when parsed from the labeling V runs on, supplies its parsed
	// node inputs; nil parses them on every execution.
	Inputs *gadget.NodeInputs
}

// nodeInputs returns the parsed node inputs of in: vf.Inputs when set,
// otherwise a fresh parse.
func (vf *Verifier) nodeInputs(in *lcl.Labeling) *gadget.NodeInputs {
	if vf.Inputs != nil {
		return vf.Inputs
	}
	return gadget.ParseNodeInputs(in)
}

// Radius returns the gathering radius used for upper bound nUpper.
func (vf *Verifier) Radius(nUpper int) int {
	return 2*bits.Len(uint(nUpper)) + 6
}

// Run executes V centrally with faithful round accounting: every node is
// charged the gathering radius. The returned labeling carries Ψ output
// labels on nodes (edges and half-edges of Ψ are untouched: the padded
// problem writes  on port elements separately).
func (vf *Verifier) Run(g *graph.Graph, in *lcl.Labeling, nUpper int) (*lcl.Labeling, *lcl.Cost, error) {
	if nUpper < g.NumNodes() {
		return nil, nil, fmt.Errorf("verifier: upper bound %d below actual size %d", nUpper, g.NumNodes())
	}
	out := lcl.NewLabeling(g)
	cost := lcl.NewCost(g.NumNodes())
	radius := vf.Radius(nUpper)
	ck := &gadget.Checker{Delta: vf.Delta, Scope: vf.Scope, Inputs: vf.nodeInputs(in)}
	bad := structureViolations(ck, g, in)

	comps := vf.scopedComponents(g)
	for _, nodes := range comps {
		anyBad := false
		for _, v := range nodes {
			if bad[v] {
				anyBad = true
				break
			}
		}
		for _, v := range nodes {
			cost.Charge(v, radius)
			switch {
			case !anyBad:
				out.Node[v] = LabGadOk
			case bad[v]:
				out.Node[v] = LabError
			default:
				out.Node[v] = vf.pointerFor(g, in, v, bad)
			}
		}
	}
	return out, cost, nil
}

// scopedComponents returns the connected components of the subgraph of
// in-scope edges.
func (vf *Verifier) scopedComponents(g *graph.Graph) [][]graph.NodeID {
	seen := make([]bool, g.NumNodes())
	var comps [][]graph.NodeID
	for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue := []graph.NodeID{s}
		var nodes []graph.NodeID
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			nodes = append(nodes, x)
			for _, h := range g.Halves(x) {
				if vf.Scope != nil && !vf.Scope(h.Edge) {
					continue
				}
				y := g.Edge(h.Edge).Other(h.Side).Node
				if !seen[y] {
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
		comps = append(comps, nodes)
	}
	return comps
}

// pointerFor applies the priority rules 5/6(a)-(e) of Section 4.5 to a
// locally-valid node in an invalid gadget.
func (vf *Verifier) pointerFor(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, bad []bool) lcl.Label {
	ni, err := gadget.ParseNodeInput(in.Node[v])
	if err != nil {
		// Unparseable inputs are structural errors; defensive only.
		return LabError
	}
	if ni.Center {
		// Rule 5: smallest Downᵢ whose sub-gadget pattern reaches an
		// error.
		for i := 1; i <= vf.Delta; i++ {
			if root, ok := vf.step(g, in, v, gadget.HalfDown(i)); ok {
				if bad[root] || vf.subtreePatternHitsBad(g, in, root, bad) {
					return ErrDown(i)
				}
			}
		}
		// Defensive: an invalid gadget always has a pattern-reachable
		// error from the center (see package tests); fall back to the
		// first Down edge.
		return ErrDown(1)
	}
	// Rule 6a/6b: horizontal chains.
	if vf.chainHitsBad(g, in, v, gadget.LabRight, bad) {
		return PtrRight
	}
	if vf.chainHitsBad(g, in, v, gadget.LabLeft, bad) {
		return PtrLeft
	}
	// Rule 6c: ancestors and their levels.
	if vf.ancestorPatternHitsBad(g, in, v, bad) {
		return PtrParent
	}
	// Rule 6d: right-spine descendants and their levels.
	if vf.rchildPatternHitsBad(g, in, v, bad) {
		return PtrRChild
	}
	// Rule 6e: the error is outside this valid sub-gadget.
	if _, ok := vf.step(g, in, v, gadget.LabParent); ok {
		return PtrParent
	}
	return PtrUp
}

// step follows one uniquely-labeled in-scope half from v.
func (vf *Verifier) step(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, lab lcl.Label) (graph.NodeID, bool) {
	for _, h := range g.Halves(v) {
		if vf.Scope != nil && !vf.Scope(h.Edge) {
			continue
		}
		if in.HalfOf(h) == lab {
			return g.Edge(h.Edge).Other(h.Side).Node, true
		}
	}
	return v, false
}

// chainHitsBad walks lab-labeled halves from v (at least one step) and
// reports whether the walk meets a bad node. Visited-set guarding keeps
// broken structures from looping.
func (vf *Verifier) chainHitsBad(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, lab lcl.Label, bad []bool) bool {
	visited := map[graph.NodeID]bool{v: true}
	cur := v
	for {
		next, ok := vf.step(g, in, cur, lab)
		if !ok || visited[next] {
			return false
		}
		if bad[next] {
			return true
		}
		visited[next] = true
		cur = next
	}
}

// levelPatternHitsBad reports whether x is bad or a horizontal chain from
// x meets a bad node.
func (vf *Verifier) levelPatternHitsBad(g *graph.Graph, in *lcl.Labeling, x graph.NodeID, bad []bool) bool {
	return bad[x] ||
		vf.chainHitsBad(g, in, x, gadget.LabRight, bad) ||
		vf.chainHitsBad(g, in, x, gadget.LabLeft, bad)
}

// ancestorPatternHitsBad implements the Parent^{i>=1} (Right*|Left*)
// pattern of rule 6c.
func (vf *Verifier) ancestorPatternHitsBad(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, bad []bool) bool {
	visited := map[graph.NodeID]bool{v: true}
	cur := v
	for {
		next, ok := vf.step(g, in, cur, gadget.LabParent)
		if !ok || visited[next] {
			return false
		}
		if vf.levelPatternHitsBad(g, in, next, bad) {
			return true
		}
		visited[next] = true
		cur = next
	}
}

// rchildPatternHitsBad implements the RChild^{i>=1} (Right*|Left*)
// pattern of rule 6d.
func (vf *Verifier) rchildPatternHitsBad(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, bad []bool) bool {
	visited := map[graph.NodeID]bool{v: true}
	cur := v
	for {
		next, ok := vf.step(g, in, cur, gadget.LabRChild)
		if !ok || visited[next] {
			return false
		}
		if vf.levelPatternHitsBad(g, in, next, bad) {
			return true
		}
		visited[next] = true
		cur = next
	}
}

// subtreePatternHitsBad implements the center's RChild* (Right*|Left*)
// pattern (rule 5), starting at a sub-gadget root (i1, i2 >= 0).
func (vf *Verifier) subtreePatternHitsBad(g *graph.Graph, in *lcl.Labeling, root graph.NodeID, bad []bool) bool {
	if vf.levelPatternHitsBad(g, in, root, bad) {
		return true
	}
	visited := map[graph.NodeID]bool{root: true}
	cur := root
	for {
		next, ok := vf.step(g, in, cur, gadget.LabRChild)
		if !ok || visited[next] {
			return false
		}
		if vf.levelPatternHitsBad(g, in, next, bad) {
			return true
		}
		visited[next] = true
		cur = next
	}
}
