package graph

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// Unreachable is the sentinel distance for nodes with no cycle in their
// component (trees), where the cycle potential is undefined.
const Unreachable = int(^uint(0) >> 2)

// ShortestCycleThrough returns the length of the shortest cycle passing
// through node v, or (Unreachable, false) if none exists. Self-loops count
// as cycles of length 1, and a pair of parallel edges as a cycle of
// length 2. The search is truncated at maxLen when maxLen >= 0.
//
// The computation runs one truncated BFS in G-v per port of v, which is
// exact on multigraphs.
func (g *Graph) ShortestCycleThrough(v NodeID, maxLen int) (int, bool) {
	best := Unreachable
	if maxLen >= 0 && maxLen < best {
		best = maxLen + 1
	}
	// Self-loop: length 1.
	for _, h := range g.Halves(v) {
		if g.IsSelfLoop(h.Edge) {
			return 1, true
		}
	}
	// For each port p, BFS in G-v from the neighbor x_p, then inspect
	// distances to the other ports' neighbors. A cycle through v using
	// first edge e_p and last edge e_q has length dist_{G-v}(x_p,x_q)+2.
	type portInfo struct {
		port int32
		nbr  NodeID
	}
	ports := make([]portInfo, 0, len(g.Halves(v)))
	for p, h := range g.Halves(v) {
		ports = append(ports, portInfo{port: int32(p), nbr: g.edges[h.Edge].Other(h.Side).Node})
	}
	for i := 0; i < len(ports); i++ {
		// Parallel edge shortcut: same neighbor on two ports.
		for j := i + 1; j < len(ports); j++ {
			if ports[i].nbr == ports[j].nbr {
				if 2 < best {
					best = 2
				}
			}
		}
	}
	if best == 2 {
		return 2, true
	}
	for i := 0; i < len(ports)-1; i++ {
		limit := best - 2 // only distances strictly better than best matter
		dist := g.bfsAvoiding(ports[i].nbr, v, limit)
		for j := i + 1; j < len(ports); j++ {
			if d, ok := dist[ports[j].nbr]; ok && d+2 < best {
				best = d + 2
			}
		}
	}
	if best >= Unreachable || (maxLen >= 0 && best > maxLen) {
		return Unreachable, false
	}
	return best, true
}

// bfsAvoiding runs a BFS from src that never visits the avoided node,
// truncated at the given radius (no truncation if radius < 0).
func (g *Graph) bfsAvoiding(src, avoid NodeID, radius int) map[NodeID]int {
	dist := make(map[NodeID]int, 16)
	if src == avoid {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		dx := dist[x]
		if radius >= 0 && dx >= radius {
			continue
		}
		for _, h := range g.Halves(x) {
			y := g.edges[h.Edge].Other(h.Side).Node
			if y == avoid {
				continue
			}
			if _, ok := dist[y]; !ok {
				dist[y] = dx + 1
				queue = append(queue, y)
			}
		}
	}
	return dist
}

// CyclePotential computes, for every node v, the potential
//
//	t(v) = min over cycles C of ( dist(v, C) + |C| )
//	     = min over nodes w of ( dist(v, w) + sc(w) )
//
// where sc(w) is the shortest cycle through w. Nodes in acyclic components
// get Unreachable. The potential is the locality radius needed by the
// deterministic sinkless-orientation algorithm: B(v, t(v)) contains the
// optimal cycle entirely.
//
// maxLen truncates the per-node shortest-cycle search (pass a bound like
// 3*log2(n)+O(1) for minimum-degree-3 graphs, or -1 for exact).
func (g *Graph) CyclePotential(maxLen int) []int {
	return g.PropagatePotential(g.ShortestCycles(maxLen))
}

// ShortestCycles returns sc(v) — the length of the shortest cycle through
// v, truncated at maxLen (pass -1 for exact) — for every node, with
// Unreachable for nodes on no cycle.
func (g *Graph) ShortestCycles(maxLen int) []int {
	n := g.NumNodes()
	sc := make([]int, n)
	for v := 0; v < n; v++ {
		length, ok := g.ShortestCycleThrough(NodeID(v), maxLen)
		if !ok {
			length = Unreachable
		}
		sc[v] = length
	}
	return sc
}

// PropagatePotential runs a multi-source Dijkstra with unit edge weights
// and per-node source offsets, returning t(v) = min_w (dist(v,w)+src[w]).
func (g *Graph) PropagatePotential(src []int) []int {
	n := g.NumNodes()
	t := make([]int, n)
	pq := make(potentialHeap, 0, n)
	for v := 0; v < n; v++ {
		t[v] = src[v]
		if src[v] < Unreachable {
			pq = append(pq, potentialItem{node: NodeID(v), val: src[v]})
		}
	}
	heap.Init(&pq)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(potentialItem)
		if it.val > t[it.node] {
			continue
		}
		for _, h := range g.Halves(it.node) {
			y := g.edges[h.Edge].Other(h.Side).Node
			if it.val+1 < t[y] {
				t[y] = it.val + 1
				heap.Push(&pq, potentialItem{node: y, val: t[y]})
			}
		}
	}
	return t
}

type potentialItem struct {
	node NodeID
	val  int
}

type potentialHeap []potentialItem

func (h potentialHeap) Len() int            { return len(h) }
func (h potentialHeap) Less(i, j int) bool  { return h[i].val < h[j].val }
func (h potentialHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *potentialHeap) Push(x interface{}) { *h = append(*h, x.(potentialItem)) }
func (h *potentialHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Cycle is a simple cycle represented as the sequence of half-edges exited
// while traversing it: Walk[i] is the half-edge attached to the i-th node
// of the traversal, and following Walk[i]'s edge leads to the (i+1 mod L)-th
// node. A self-loop is a length-1 cycle.
type Cycle struct {
	Walk []Half
}

// Len returns the number of edges on the cycle.
func (c Cycle) Len() int { return len(c.Walk) }

// Nodes returns the node sequence of the traversal in g.
func (c Cycle) Nodes(g *Graph) []NodeID {
	nodes := make([]NodeID, len(c.Walk))
	for i, h := range c.Walk {
		nodes[i] = g.HalfNode(h)
	}
	return nodes
}

// Canonicalize rewrites the cycle into its canonical oriented rotation:
// among all 2L oriented rotations (L rotations in each direction), the one
// whose (edge-ID sequence, node-ID sequence) is lexicographically smallest.
// Both endpoints of any edge on the cycle compute the same canonical form,
// which is what makes cycle-based orientation claims conflict-free.
func (c Cycle) Canonicalize(g *Graph) Cycle {
	best := c.Walk
	bestKey := cycleKey(g, best)
	for _, cand := range c.orientedRotations(g) {
		key := cycleKey(g, cand)
		if lessKey(key, bestKey) {
			best = cand
			bestKey = key
		}
	}
	return Cycle{Walk: best}
}

// orientedRotations enumerates every rotation of the cycle in both
// traversal directions.
func (c Cycle) orientedRotations(g *Graph) [][]Half {
	l := len(c.Walk)
	out := make([][]Half, 0, 2*l)
	// Forward rotations.
	for s := 0; s < l; s++ {
		rot := make([]Half, l)
		for i := 0; i < l; i++ {
			rot[i] = c.Walk[(s+i)%l]
		}
		out = append(out, rot)
	}
	// Reverse direction: traversing backwards, the half exited at node i
	// is the opposite half of the edge entered in forward direction.
	rev := make([]Half, l)
	for i := 0; i < l; i++ {
		// Forward: node_i exits via Walk[i] and arrives at node_{i+1}.
		// Backward: node_{i+1} exits via the opposite half of Walk[i].
		h := c.Walk[i]
		rev[l-1-i] = Half{Edge: h.Edge, Side: 1 - h.Side}
	}
	for s := 0; s < l; s++ {
		rot := make([]Half, l)
		for i := 0; i < l; i++ {
			rot[i] = rev[(s+i)%l]
		}
		out = append(out, rot)
	}
	return out
}

// cycleKey builds the comparison key of an oriented rotation: edge IDs
// first, node IDs second.
func cycleKey(g *Graph, walk []Half) []int64 {
	key := make([]int64, 0, 2*len(walk))
	for _, h := range walk {
		key = append(key, int64(h.Edge))
	}
	for _, h := range walk {
		key = append(key, g.ID(g.HalfNode(h)))
	}
	return key
}

func lessKey(a, b []int64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ErrCycleEnumerationTooLarge is returned when the number of shortest
// cycles through a node exceeds the enumeration cap. It does not occur on
// the graph families used in this repository; it guards against
// pathological inputs.
var ErrCycleEnumerationTooLarge = errors.New("too many shortest cycles through node")

// CanonicalShortestCycleThrough returns the canonical representative among
// all shortest cycles through v: the one with the lexicographically
// smallest canonical key. length must equal the shortest-cycle length
// through v (from ShortestCycleThrough). cap bounds the enumeration.
func (g *Graph) CanonicalShortestCycleThrough(v NodeID, length, capCycles int) (Cycle, error) {
	cycles, err := g.enumerateCyclesThrough(v, length, capCycles)
	if err != nil {
		return Cycle{}, err
	}
	if len(cycles) == 0 {
		return Cycle{}, fmt.Errorf("node %d: no cycle of length %d", v, length)
	}
	best := cycles[0].Canonicalize(g)
	bestKey := cycleKey(g, best.Walk)
	for _, c := range cycles[1:] {
		cc := c.Canonicalize(g)
		key := cycleKey(g, cc.Walk)
		if lessKey(key, bestKey) {
			best = cc
			bestKey = key
		}
	}
	return best, nil
}

// enumerateCyclesThrough lists all simple cycles of exactly the given
// length through v (each in one arbitrary orientation; duplicates under
// rotation/reflection are fine because Canonicalize collapses them).
func (g *Graph) enumerateCyclesThrough(v NodeID, length, capCycles int) ([]Cycle, error) {
	if length == 1 {
		// Self-loops.
		var out []Cycle
		for _, h := range g.Halves(v) {
			if g.IsSelfLoop(h.Edge) && h.Side == SideU {
				out = append(out, Cycle{Walk: []Half{h}})
			}
		}
		return out, nil
	}
	dist := g.BFSFrom(v, length)
	var out []Cycle
	walk := make([]Half, 0, length)
	onPath := map[NodeID]bool{v: true}

	var dfs func(cur NodeID, steps int) error
	dfs = func(cur NodeID, steps int) error {
		for _, h := range g.Halves(cur) {
			next := g.edges[h.Edge].Other(h.Side).Node
			if steps > 0 && h.Edge == walk[steps-1].Edge {
				continue // no immediate edge backtracking
			}
			if steps == length-1 {
				if next == v {
					c := make([]Half, length)
					copy(c, walk)
					c[length-1] = h
					out = append(out, Cycle{Walk: c})
					if len(out) > capCycles {
						return ErrCycleEnumerationTooLarge
					}
				}
				continue
			}
			if next == v || onPath[next] {
				continue
			}
			d, ok := dist[next]
			if !ok || steps+1+d > length {
				continue // cannot return in time
			}
			walk = append(walk, h)
			onPath[next] = true
			err := dfs(next, steps+1)
			onPath[next] = false
			walk = walk[:len(walk)-1]
			if err != nil {
				return err
			}
		}
		return nil
	}
	walk = walk[:0]
	// Seed: first step from v.
	for _, h := range g.Halves(v) {
		next := g.edges[h.Edge].Other(h.Side).Node
		if next == v {
			continue // loops handled above, and a loop cannot start a longer simple cycle
		}
		if d, ok := dist[next]; !ok || 1+d > length {
			continue
		}
		walk = append(walk, h)
		onPath[next] = true
		err := dfs(next, 1)
		onPath[next] = false
		walk = walk[:len(walk)-1]
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortNodesByID returns the node list sorted by identifier; a helper for
// canonical iteration orders in solvers and tests.
func (g *Graph) SortNodesByID(nodes []NodeID) []NodeID {
	out := make([]NodeID, len(nodes))
	copy(out, nodes)
	sort.Slice(out, func(i, j int) bool { return g.ids[out[i]] < g.ids[out[j]] })
	return out
}
