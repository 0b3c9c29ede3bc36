package graph

// BFSFrom computes single-source shortest-path distances (in hops) from v,
// visiting only nodes within the given radius. If radius < 0 the search is
// unbounded. It returns a map from reached node to distance.
func (g *Graph) BFSFrom(v NodeID, radius int) map[NodeID]int {
	dist := make(map[NodeID]int, 16)
	dist[v] = 0
	queue := []NodeID{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		dx := dist[x]
		if radius >= 0 && dx == radius {
			continue
		}
		for _, h := range g.Halves(x) {
			y := g.edges[h.Edge].Other(h.Side).Node
			if _, ok := dist[y]; !ok {
				dist[y] = dx + 1
				queue = append(queue, y)
			}
		}
	}
	return dist
}

// Ball is the radius-r neighborhood of a center node: the node set with
// distances, plus all edges with both endpoints inside the set.
//
// A Ball is exactly what a node can learn in r rounds of the LOCAL model
// (together with identifiers and input labels, which live outside the
// structural graph).
type Ball struct {
	Center NodeID
	Radius int
	Dist   map[NodeID]int
	// Edges lists every edge whose two endpoints are both within the
	// ball. Edges between two radius-r nodes are visible only at
	// radius r+1 in the strict LOCAL model; we follow the usual
	// convention of including them, which shifts rounds by at most 1.
	Edges []EdgeID
}

// BallAround gathers the radius-r ball around v.
func (g *Graph) BallAround(v NodeID, radius int) *Ball {
	dist := g.BFSFrom(v, radius)
	seen := make(map[EdgeID]struct{}, len(dist)*2)
	var edges []EdgeID
	for x := range dist {
		for _, h := range g.Halves(x) {
			e := h.Edge
			if _, dup := seen[e]; dup {
				continue
			}
			ed := g.edges[e]
			if _, okU := dist[ed.U.Node]; !okU {
				continue
			}
			if _, okV := dist[ed.V.Node]; !okV {
				continue
			}
			seen[e] = struct{}{}
			edges = append(edges, e)
		}
	}
	return &Ball{Center: v, Radius: radius, Dist: dist, Edges: edges}
}

// Contains reports whether node x lies in the ball.
func (b *Ball) Contains(x NodeID) bool {
	_, ok := b.Dist[x]
	return ok
}

// Components returns the connected components of g as slices of nodes,
// plus a lookup from node to component index. Components are ordered by
// their smallest NodeID, and nodes within a component are in BFS order.
func (g *Graph) Components() ([][]NodeID, []int) {
	comp := make([]int, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]NodeID
	for s := NodeID(0); int(s) < g.NumNodes(); s++ {
		if comp[s] >= 0 {
			continue
		}
		idx := len(comps)
		var nodes []NodeID
		comp[s] = idx
		queue := []NodeID{s}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			nodes = append(nodes, x)
			for _, h := range g.Halves(x) {
				y := g.edges[h.Edge].Other(h.Side).Node
				if comp[y] < 0 {
					comp[y] = idx
					queue = append(queue, y)
				}
			}
		}
		comps = append(comps, nodes)
	}
	return comps, comp
}

// Diameter returns the largest eccentricity over all nodes of the largest
// connected component. It is intended for tests and gadget validation on
// modest graphs (O(n·m) time).
func (g *Graph) Diameter() int {
	comps, _ := g.Components()
	var largest []NodeID
	for _, c := range comps {
		if len(c) > len(largest) {
			largest = c
		}
	}
	diam := 0
	for _, v := range largest {
		dist := g.BFSFrom(v, -1)
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
