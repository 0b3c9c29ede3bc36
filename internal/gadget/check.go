package gadget

import (
	"fmt"

	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Checker evaluates the local constraints of Sections 4.2 and 4.3 at
// single nodes. Scope restricts which edges count as gadget edges: in a
// padded graph only GadEdge-labeled edges belong to gadgets, while a
// standalone gadget uses all edges (nil Scope).
type Checker struct {
	// Delta is the Δ the gadget family is built for (number of
	// sub-gadgets per gadget).
	Delta int
	// Scope reports whether an edge belongs to the gadget structure;
	// nil means every edge does.
	Scope func(graph.EdgeID) bool
	// Inputs, when parsed from the labeling being checked, supplies the
	// parsed node inputs; otherwise (or when nil) every lookup parses the
	// label.
	Inputs *NodeInputs
}

// inScope reports whether the edge participates in gadget constraints.
func (c *Checker) inScope(e graph.EdgeID) bool {
	return c.Scope == nil || c.Scope(e)
}

// appendScoped appends v's half-edges on gadget edges to dst.
func (c *Checker) appendScoped(dst []graph.Half, g *graph.Graph, v graph.NodeID) []graph.Half {
	for _, h := range g.Halves(v) {
		if c.inScope(h.Edge) {
			dst = append(dst, h)
		}
	}
	return dst
}

// structErr tags a violation of the gadget structure at a node.
func structErr(v graph.NodeID, format string, args ...interface{}) error {
	return lcl.Violation("gadget-structure", "node", int(v), format, args...)
}

// CheckNode verifies every local constraint of Sections 4.2/4.3 visible
// from node v. It returns nil exactly when v's constant-radius
// neighborhood is consistent with a valid gadget.
func (c *Checker) CheckNode(g *graph.Graph, in *lcl.Labeling, v graph.NodeID) error {
	ni, err := c.Inputs.Of(in, v)
	if err != nil {
		return structErr(v, "unparseable node input: %v", err)
	}
	// A gadget node has at most max(Δ, 5) gadget edges; the buffer keeps
	// the common case off the heap.
	var buf [8]graph.Half
	halves := c.appendScoped(buf[:0], g, v)

	// Constraint 1a (node-edge checkable form, Section 4.6): the
	// distance-2 coloring must be locally proper; self-loops and parallel
	// edges necessarily break it.
	if err := c.checkColors(g, in, v, ni, halves); err != nil {
		return err
	}
	// Constraint 1b: pairwise distinct half labels.
	seen := make(map[lcl.Label]bool, len(halves))
	for _, h := range halves {
		lab := in.HalfOf(h)
		if lab == "" {
			return structErr(v, "gadget edge %d has empty half label", h.Edge)
		}
		if seen[lab] {
			return structErr(v, "duplicate incident half label %q", lab)
		}
		seen[lab] = true
	}

	if ni.Center {
		return c.checkCenter(g, in, v, halves)
	}
	return c.checkSubgadgetNode(g, in, v, ni, halves)
}

// checkColors enforces local distance-2 coloring properness over gadget
// edges (constraint 1a in the formulation of Section 4.6).
func (c *Checker) checkColors(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, ni NodeInput, halves []graph.Half) error {
	nbrColors := make(map[int]graph.NodeID, len(halves))
	for _, h := range halves {
		u := g.Edge(h.Edge).Other(h.Side).Node
		if u == v {
			return structErr(v, "self-loop on gadget edge %d", h.Edge)
		}
		un, err := c.Inputs.Of(in, u)
		if err != nil {
			return structErr(v, "neighbor %d unparseable: %v", u, err)
		}
		if un.Color == ni.Color {
			return structErr(v, "neighbor %d shares distance-2 color %d", u, ni.Color)
		}
		if prev, dup := nbrColors[un.Color]; dup {
			return structErr(v, "neighbors %d and %d share distance-2 color %d (parallel edge or distance-2 clash)", prev, u, un.Color)
		}
		nbrColors[un.Color] = u
	}
	return nil
}

// checkCenter enforces the center constraints 2a-2d of Section 4.3.
func (c *Checker) checkCenter(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, halves []graph.Half) error {
	if len(halves) != c.Delta {
		return structErr(v, "center degree %d, want Δ=%d", len(halves), c.Delta)
	}
	usedIdx := make(map[int]bool, c.Delta)
	for _, h := range halves {
		i, ok := ParseDown(in.HalfOf(h))
		if !ok || i > c.Delta {
			return structErr(v, "center half label %q is not Down(1..Δ)", in.HalfOf(h))
		}
		u := g.Edge(h.Edge).Other(h.Side).Node
		un, err := c.Inputs.Of(in, u)
		if err != nil {
			return structErr(v, "root %d unparseable: %v", u, err)
		}
		if un.Index != i {
			return structErr(v, "edge labeled Down:%d reaches node with Index %d", i, un.Index)
		}
		if lab := in.HalfOf(g.OppositeHalf(h)); lab != LabUp {
			return structErr(v, "root side of Down:%d edge labeled %q, want Up", i, lab)
		}
		if usedIdx[i] {
			return structErr(v, "two sub-gadgets with index %d", i)
		}
		usedIdx[i] = true
	}
	return nil
}

// checkSubgadgetNode enforces constraints 1c-1d, 2a-2d, 3a-3h of Section
// 4.2 plus constraint 1 of Section 4.3 at a non-center node.
func (c *Checker) checkSubgadgetNode(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, ni NodeInput, halves []graph.Half) error {
	// 1c: an Indexᵢ label, matching across sub-gadget edges.
	if ni.Index < 1 || ni.Index > c.Delta {
		return structErr(v, "index %d not in 1..Δ=%d", ni.Index, c.Delta)
	}
	// 1d: Portᵢ implies matching index.
	if ni.Port > 0 && ni.Port != ni.Index {
		return structErr(v, "labeled Port:%d but Index:%d", ni.Port, ni.Index)
	}

	byLabel := make(map[lcl.Label]graph.Half, len(halves))
	for _, h := range halves {
		lab := in.HalfOf(h)
		if !IsSubgadgetHalfLabel(lab) && lab != LabUp {
			return structErr(v, "half label %q not allowed on a sub-gadget node", lab)
		}
		byLabel[lab] = h
	}
	has := func(lab lcl.Label) bool { _, ok := byLabel[lab]; return ok }

	// 1c continued + 2a/2b: pairings across each sub-gadget edge.
	for _, h := range halves {
		lab := in.HalfOf(h)
		opp := in.HalfOf(g.OppositeHalf(h))
		u := g.Edge(h.Edge).Other(h.Side).Node
		un, err := c.Inputs.Of(in, u)
		if err != nil {
			return structErr(v, "neighbor %d unparseable: %v", u, err)
		}
		switch lab {
		case LabLeft:
			if opp != LabRight {
				return structErr(v, "Left paired with %q, want Right", opp)
			}
		case LabRight:
			if opp != LabLeft {
				return structErr(v, "Right paired with %q, want Left", opp)
			}
		case LabParent:
			if opp != LabLChild && opp != LabRChild {
				return structErr(v, "Parent paired with %q, want LChild/RChild", opp)
			}
		case LabLChild, LabRChild:
			if opp != LabParent {
				return structErr(v, "%s paired with %q, want Parent", lab, opp)
			}
		case LabUp:
			if _, ok := ParseDown(opp); !ok {
				return structErr(v, "Up paired with %q, want Downᵢ", opp)
			}
			if !un.Center {
				return structErr(v, "Up edge reaches non-center node")
			}
			continue // center is exempt from the index equality below
		}
		if un.Index != ni.Index && !un.Center {
			return structErr(v, "gadget neighbor %d has index %d, want %d", u, un.Index, ni.Index)
		}
		if un.Center && lab != LabUp {
			return structErr(v, "non-Up edge labeled %q reaches the center", lab)
		}
	}

	// 2c: u(LChild, Right, Parent) = u.
	if w, ok := c.follow(g, in, v, LabLChild, LabRight, LabParent); ok && w != v {
		return structErr(v, "u(LChild,Right,Parent) = %d, want %d (constraint 2c)", w, v)
	}
	// 2d: u(Right, LChild, Left, Parent) = u.
	if w, ok := c.follow(g, in, v, LabRight, LabLChild, LabLeft, LabParent); ok && w != v {
		return structErr(v, "u(Right,LChild,Left,Parent) = %d, want %d (constraint 2d)", w, v)
	}

	// 3a/3b: boundary columns align between levels: a node on the right
	// (left) boundary must have its parent on the same boundary. (The
	// paper states these as "iff"; taken literally that rejects valid
	// sub-gadgets — a left child has a Right edge while the root has
	// none — so we implement the direction that valid gadgets satisfy
	// and that, with 3c/3d, pins the boundary to the extreme child
	// chains.)
	if par, ok := c.follow(g, in, v, LabParent); ok {
		if !has(LabRight) && c.nodeHas(g, in, par, LabRight) {
			return structErr(v, "right-boundary node's parent has a Right edge (constraint 3a)")
		}
		if !has(LabLeft) && c.nodeHas(g, in, par, LabLeft) {
			return structErr(v, "left-boundary node's parent has a Left edge (constraint 3b)")
		}
	}
	// 3c/3d: boundary nodes are the extreme children.
	if !has(LabRight) && has(LabParent) {
		if opp := in.HalfOf(g.OppositeHalf(byLabel[LabParent])); opp != LabRChild {
			return structErr(v, "right-boundary node is its parent's %q, want RChild (constraint 3c)", opp)
		}
	}
	if !has(LabLeft) && has(LabParent) {
		if opp := in.HalfOf(g.OppositeHalf(byLabel[LabParent])); opp != LabLChild {
			return structErr(v, "left-boundary node is its parent's %q, want LChild (constraint 3d)", opp)
		}
	}
	// 3e: a node with neither Left nor Right is the root: exactly
	// LChild+RChild among sub-gadget labels (the Up edge is covered by
	// the Section 4.3 constraint below).
	if !has(LabRight) && !has(LabLeft) {
		subCount := 0
		for _, h := range halves {
			if IsSubgadgetHalfLabel(in.HalfOf(h)) {
				subCount++
			}
		}
		if subCount != 2 || !has(LabLChild) || !has(LabRChild) {
			return structErr(v, "isolated-level node is not a root with exactly LChild+RChild (constraint 3e)")
		}
	}
	// 3f: children come in pairs.
	if has(LabLChild) != has(LabRChild) {
		return structErr(v, "LChild/RChild mismatch (constraint 3f)")
	}
	// 3g: the bottom boundary is level-aligned.
	if !has(LabLChild) && !has(LabRChild) {
		for _, dir := range []lcl.Label{LabLeft, LabRight} {
			if w, ok := c.follow(g, in, v, dir); ok {
				if c.nodeHas(g, in, w, LabLChild) || c.nodeHas(g, in, w, LabRChild) {
					return structErr(v, "leaf's %s-neighbor has children (constraint 3g)", dir)
				}
			}
		}
	}
	// 3h: ports are exactly the bottom-right corners.
	isCorner := !has(LabRight) && !has(LabLChild) && !has(LabRChild)
	if (ni.Port > 0) != isCorner {
		return structErr(v, "Port label %d vs corner-ness %v (constraint 3h)", ni.Port, isCorner)
	}
	// Section 4.3 constraint 1: no Parent means the root, which must hang
	// off the center via exactly one Up edge; non-roots must not.
	if !has(LabParent) {
		if !has(LabUp) {
			return structErr(v, "root has no Up edge to a center (Section 4.3 constraint 1)")
		}
	} else if has(LabUp) {
		return structErr(v, "non-root node has an Up edge")
	}
	return nil
}

// nodeHas reports whether node u has an in-scope half labeled lab.
func (c *Checker) nodeHas(g *graph.Graph, in *lcl.Labeling, u graph.NodeID, lab lcl.Label) bool {
	for _, h := range g.Halves(u) {
		if c.inScope(h.Edge) && in.HalfOf(h) == lab {
			return true
		}
	}
	return false
}

// follow walks from v along uniquely-labeled halves; ok=false when some
// step's label is absent (the "if the path exists" convention of the
// constraints).
func (c *Checker) follow(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, labs ...lcl.Label) (graph.NodeID, bool) {
	cur := v
	for _, lab := range labs {
		found := false
		for _, h := range g.Halves(cur) {
			if c.inScope(h.Edge) && in.HalfOf(h) == lab {
				cur = g.Edge(h.Edge).Other(h.Side).Node
				found = true
				break
			}
		}
		if !found {
			return cur, false
		}
	}
	return cur, true
}

// Validate runs CheckNode on every node, confirming (per Lemmas 7 and 8)
// that the graph with its input labeling is a valid gadget.
func Validate(g *graph.Graph, in *lcl.Labeling, delta int) error {
	c := &Checker{Delta: delta}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if err := c.CheckNode(g, in, v); err != nil {
			return err
		}
	}
	return nil
}

// FirstViolation returns the first node at which CheckNode fails, or
// (-1, nil) when the structure is locally valid everywhere. Used by the
// error-proof verifier V.
func FirstViolation(g *graph.Graph, in *lcl.Labeling, c *Checker) (graph.NodeID, error) {
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if err := c.CheckNode(g, in, v); err != nil {
			return v, err
		}
	}
	return -1, nil
}

// Describe summarizes a gadget for logs and examples.
func (gd *Gadget) Describe() string {
	return fmt.Sprintf("gadget Δ=%d heights=%v nodes=%d edges=%d diameter=%d",
		gd.Delta, gd.Heights, gd.G.NumNodes(), gd.G.NumEdges(), gd.G.Diameter())
}
