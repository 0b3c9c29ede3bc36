// Package netdecomp implements deterministic network decomposition — the
// object the paper's discussion section ties to the main open question:
// by Ghaffari–Harris–Kuhn, any LCL with D(n)/R(n) = ω(log² n) would imply
// a superlogarithmic lower bound for (log n, log n)-network
// decomposition.
//
// A (c, d)-network decomposition partitions the nodes into clusters of
// (weak) diameter at most d and colors the clusters with c colors such
// that adjacent clusters get different colors. This package provides a
// deterministic ball-carving construction achieving (O(log n), O(log n))
// on bounded-degree graphs, with LOCAL-model round accounting, plus the
// validity checker.
package netdecomp

import (
	"fmt"
	"math/bits"

	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Decomposition assigns every node a cluster and every cluster a color.
type Decomposition struct {
	// Cluster[v] identifies v's cluster (dense ids from 0).
	Cluster []int
	// Color[c] is the color class of cluster c.
	Color []int
	// Radius bounds the (strong) diameter of every cluster.
	Radius int
	// Colors is the number of color classes used.
	Colors int
}

// Options tunes the construction.
type Options struct {
	// TargetRadius caps cluster radii; 0 means 2·log2(n)+1 (the classic
	// guarantee).
	TargetRadius int
}

// Build runs deterministic ball carving: in color phase k, every not-yet-
// clustered node grows a BFS ball until the ball's boundary is at most
// half its interior (possible within log2 n growth steps); carved balls
// get color k and are removed together with their boundary, which is
// deferred to later phases. Each phase halves the remaining node count,
// so O(log n) colors and radii O(log n) suffice.
//
// The measured locality of a phase is the largest carved radius; the
// total is their sum, O(log² n) — matching the classic deterministic
// bound that pre-dates the polylogarithmic breakthroughs, which is all
// the discussion section's accounting needs.
func Build(g *graph.Graph, opts Options) (*Decomposition, *lcl.Cost, error) {
	n := g.NumNodes()
	maxR := opts.TargetRadius
	if maxR <= 0 {
		maxR = 2*bits.Len(uint(n)) + 1
	}
	dec := &Decomposition{
		Cluster: make([]int, n),
		Radius:  0,
	}
	for i := range dec.Cluster {
		dec.Cluster[i] = -1
	}
	cost := lcl.NewCost(n)
	remaining := make(map[graph.NodeID]bool, n)
	for v := 0; v < n; v++ {
		remaining[graph.NodeID(v)] = true
	}
	color := 0
	for len(remaining) > 0 {
		if color > 2*bits.Len(uint(n))+4 {
			return nil, nil, fmt.Errorf("network decomposition: color budget exceeded with %d nodes left", len(remaining))
		}
		carved := carvePhase(g, remaining, maxR, dec, color, cost)
		if carved == 0 && len(remaining) > 0 {
			return nil, nil, fmt.Errorf("network decomposition: phase %d carved nothing", color)
		}
		color++
	}
	dec.Colors = color
	return dec, cost, nil
}

// carvePhase greedily carves non-adjacent balls among the remaining
// nodes. It returns the number of carved nodes.
func carvePhase(g *graph.Graph, remaining map[graph.NodeID]bool, maxR int, dec *Decomposition, color int, cost *lcl.Cost) int {
	// Deterministic seed order: ascending identifier.
	seeds := make([]graph.NodeID, 0, len(remaining))
	for v := range remaining {
		seeds = append(seeds, v)
	}
	seeds = g.SortNodesByID(seeds)
	blocked := make(map[graph.NodeID]bool, len(remaining))
	carved := 0
	phaseRadius := 0
	for _, s := range seeds {
		if !remaining[s] || blocked[s] {
			continue
		}
		ball, boundary, radius, ok := growBall(g, remaining, blocked, s, maxR)
		if !ok {
			continue
		}
		cid := len(dec.Color)
		dec.Color = append(dec.Color, color)
		for _, v := range ball {
			dec.Cluster[v] = cid
			delete(remaining, v)
		}
		// The boundary stays for later phases but cannot seed or join a
		// ball in this phase (it is adjacent to this cluster).
		for _, v := range boundary {
			blocked[v] = true
		}
		carved += len(ball)
		if radius > phaseRadius {
			phaseRadius = radius
		}
		if radius > dec.Radius {
			dec.Radius = radius
		}
	}
	// Locality: every node participates in the phase up to the largest
	// carve radius (ball growing is what nodes "see").
	for v := 0; v < g.NumNodes(); v++ {
		cost.Charge(graph.NodeID(v), cost.Radius(graph.NodeID(v))+phaseRadius+1)
	}
	return carved
}

// growBall expands a BFS ball inside the remaining/unblocked region until
// its boundary is at most half its interior (sparse cut), or gives up at
// maxR.
func growBall(g *graph.Graph, remaining, blocked map[graph.NodeID]bool, s graph.NodeID, maxR int) (ball, boundary []graph.NodeID, radius int, ok bool) {
	eligible := func(v graph.NodeID) bool { return remaining[v] && !blocked[v] }
	interior := map[graph.NodeID]bool{s: true}
	frontier := []graph.NodeID{s}
	for r := 0; r <= maxR; r++ {
		var next []graph.NodeID
		seen := map[graph.NodeID]bool{}
		for _, x := range frontier {
			for _, h := range g.Halves(x) {
				y := g.Edge(h.Edge).Other(h.Side).Node
				if interior[y] || seen[y] || !eligible(y) {
					continue
				}
				seen[y] = true
				next = append(next, y)
			}
		}
		if len(next) <= len(interior)/2 {
			ball = make([]graph.NodeID, 0, len(interior))
			for v := range interior {
				ball = append(ball, v)
			}
			return ball, next, r, true
		}
		for _, y := range next {
			interior[y] = true
		}
		frontier = next
	}
	// A sparse cut must appear within log2(n) doublings; reaching maxR
	// means the whole region is the ball (boundary empty).
	ball = make([]graph.NodeID, 0, len(interior))
	for v := range interior {
		ball = append(ball, v)
	}
	return ball, nil, maxR, true
}

// Verify checks the decomposition: full cover, cluster diameters within
// Radius (weak diameter via BFS in g), and proper cluster coloring.
func Verify(g *graph.Graph, dec *Decomposition) error {
	n := g.NumNodes()
	if len(dec.Cluster) != n {
		return fmt.Errorf("verify decomposition: %d assignments for %d nodes", len(dec.Cluster), n)
	}
	clusters := make(map[int][]graph.NodeID)
	for v := 0; v < n; v++ {
		c := dec.Cluster[v]
		if c < 0 || c >= len(dec.Color) {
			return fmt.Errorf("verify decomposition: node %d in unknown cluster %d", v, c)
		}
		clusters[c] = append(clusters[c], graph.NodeID(v))
	}
	// Weak diameter within Radius·2 (ball carving guarantees radius; the
	// diameter is at most twice that).
	for c, nodes := range clusters {
		dist := g.BFSFrom(nodes[0], -1)
		for _, v := range nodes[1:] {
			d, ok := dist[v]
			if !ok || d > 2*dec.Radius+1 {
				return fmt.Errorf("verify decomposition: cluster %d spans distance > %d", c, 2*dec.Radius+1)
			}
		}
	}
	// Adjacent clusters differ in color.
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		cu, cv := dec.Cluster[ed.U.Node], dec.Cluster[ed.V.Node]
		if cu != cv && dec.Color[cu] == dec.Color[cv] {
			return fmt.Errorf("verify decomposition: adjacent clusters %d and %d share color %d", cu, cv, dec.Color[cu])
		}
	}
	return nil
}
