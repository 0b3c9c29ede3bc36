// Package graph provides the bounded-degree multigraph substrate used by the
// LOCAL-model simulator and the LCL machinery.
//
// Following Section 2 of the paper, graphs may be disconnected and may
// contain self-loops and parallel edges. Each node has a unique identifier
// from {1, ..., poly(n)}, and its incident edges are numbered with ports
// 0..deg-1 (the paper numbers them 1..d; we use 0-based ports internally).
//
// The set B of incident node-edge pairs ("half-edges") is first-class: each
// edge has two sides, and a Half value addresses one of them. Labels for the
// LCL layer are stored outside the graph, in slices indexed by NodeID,
// EdgeID and Half index, so the structural substrate stays label-agnostic.
package graph

import (
	"errors"
	"fmt"
	"sync"
)

// NodeID indexes a node within a Graph (dense, 0-based).
type NodeID int32

// EdgeID indexes an edge within a Graph (dense, 0-based).
type EdgeID int32

// Side selects one endpoint of an edge.
type Side int8

// Edge sides. A self-loop has both sides at the same node but on
// different ports.
const (
	SideU Side = 0
	SideV Side = 1
)

// Half addresses a node-edge pair (an element of B): one side of one edge.
type Half struct {
	Edge EdgeID
	Side Side
}

// Index returns a dense index for the half-edge, usable for label slices
// of length 2*|E|.
func (h Half) Index() int { return 2*int(h.Edge) + int(h.Side) }

// Endpoint is a node together with the port at which an edge attaches.
type Endpoint struct {
	Node NodeID
	Port int32
}

// Edge is an undirected edge between two endpoints. U and V may name the
// same node (self-loop), and several edges may share the same endpoints
// (parallel edges).
type Edge struct {
	ID EdgeID
	U  Endpoint
	V  Endpoint
}

// At returns the endpoint on the given side.
func (e Edge) At(s Side) Endpoint {
	if s == SideU {
		return e.U
	}
	return e.V
}

// Other returns the endpoint opposite the given side.
func (e Edge) Other(s Side) Endpoint {
	if s == SideU {
		return e.V
	}
	return e.U
}

// Graph is an immutable bounded-degree multigraph with port numbering.
// Build one with a Builder.
//
// Adjacency is stored in CSR (compressed sparse row) form: one flat
// halves array holding every port of every node back to back, delimited
// by an offsets array. A node's ports therefore occupy one contiguous
// run of "port slots" — slot off[v]+p is port p of node v — and the same
// slot numbering indexes the execution engine's flat message planes, so
// neighbor iteration and message delivery both walk contiguous memory.
type Graph struct {
	ids    []int64 // unique identifier of each node
	edges  []Edge
	off    []int32 // CSR offsets: ports of node v live at off[v]..off[v+1]
	halves []Half  // flat CSR halves array: halves[off[v]+p] is port p of v
	maxID  int64
	maxDeg int

	// route, built lazily, maps each port slot to the slot holding the
	// opposite half of its edge (the sender a receiving port reads from).
	routeOnce sync.Once
	route     []int32
}

// NumNodes returns n, the number of nodes.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns the number of edges (parallel edges counted separately).
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumHalves returns 2*|E|, the size of B.
func (g *Graph) NumHalves() int { return 2 * len(g.edges) }

// NumPorts returns the total number of port slots, which equals
// NumHalves: every half-edge occupies exactly one slot.
func (g *Graph) NumPorts() int { return len(g.halves) }

// ID returns the unique identifier of node v.
func (g *Graph) ID(v NodeID) int64 { return g.ids[v] }

// MaxIdentifier returns the largest node identifier present.
func (g *Graph) MaxIdentifier() int64 { return g.maxID }

// Degree returns the degree of node v; self-loops contribute 2.
func (g *Graph) Degree(v NodeID) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns Δ, the maximum degree over all nodes.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// HalfAt returns the half-edge attached at port p of node v.
func (g *Graph) HalfAt(v NodeID, p int32) Half { return g.halves[g.off[v]+p] }

// Halves returns the half-edges attached to v in port order: a view into
// the CSR halves array. The returned slice must not be modified.
func (g *Graph) Halves(v NodeID) []Half { return g.halves[g.off[v]:g.off[v+1]] }

// PortOffsets returns the CSR offsets array (length n+1): the ports of
// node v occupy slots off[v]..off[v+1] of the flat halves array and of
// any plane indexed by port slot. The returned slice must not be
// modified.
func (g *Graph) PortOffsets() []int32 { return g.off }

// RouteTable returns the delivery route in port-slot space: route[s] is
// the slot of the opposite half of the edge whose half occupies slot s,
// i.e. the slot a receiving port gathers its message from. It is computed
// once per graph and shared by every engine run; the returned slice must
// not be modified.
func (g *Graph) RouteTable() []int32 {
	g.routeOnce.Do(func() {
		route := make([]int32, len(g.halves))
		for s, h := range g.halves {
			opp := g.OppositeHalf(h)
			ep := g.edges[opp.Edge].At(opp.Side)
			route[s] = g.off[ep.Node] + ep.Port
		}
		g.route = route
	})
	return g.route
}

// HalfNode returns the node to which the half-edge h is attached.
func (g *Graph) HalfNode(h Half) NodeID { return g.edges[h.Edge].At(h.Side).Node }

// HalfPort returns the port at which half-edge h attaches to its node.
func (g *Graph) HalfPort(h Half) int32 { return g.edges[h.Edge].At(h.Side).Port }

// NeighborAt returns the node at the other end of the edge attached at
// port p of node v (which is v itself for a self-loop), together with
// that edge's ID.
func (g *Graph) NeighborAt(v NodeID, p int32) (NodeID, EdgeID) {
	h := g.halves[g.off[v]+p]
	return g.edges[h.Edge].Other(h.Side).Node, h.Edge
}

// OppositeHalf returns the half-edge on the other side of h's edge.
func (g *Graph) OppositeHalf(h Half) Half {
	return Half{Edge: h.Edge, Side: 1 - h.Side}
}

// EndpointsEqual reports whether the edge is a self-loop.
func (g *Graph) IsSelfLoop(e EdgeID) bool {
	ed := g.edges[e]
	return ed.U.Node == ed.V.Node
}

// Builder assembles a Graph incrementally.
type Builder struct {
	ids   []int64
	seen  map[int64]struct{}
	edges []Edge
	adj   [][]Half
	// err is the first sticky construction error (Node/Link); Build
	// refuses to finalize a builder carrying one.
	err error
}

// NewBuilder returns an empty Builder with capacity hints.
func NewBuilder(nodeHint, edgeHint int) *Builder {
	return &Builder{
		ids:   make([]int64, 0, nodeHint),
		seen:  make(map[int64]struct{}, nodeHint),
		edges: make([]Edge, 0, edgeHint),
		adj:   make([][]Half, 0, nodeHint),
	}
}

// AddNode adds a node with the given unique identifier and returns its
// NodeID. Identifiers must be positive and unique.
func (b *Builder) AddNode(id int64) (NodeID, error) {
	if id <= 0 {
		return 0, fmt.Errorf("add node: identifier %d is not positive", id)
	}
	if _, dup := b.seen[id]; dup {
		return 0, fmt.Errorf("add node: identifier %d already used", id)
	}
	b.seen[id] = struct{}{}
	b.ids = append(b.ids, id)
	b.adj = append(b.adj, nil)
	return NodeID(len(b.ids) - 1), nil
}

// Node is AddNode in sticky-error form for construction code: the first
// failure is recorded on the builder and surfaced by Build, so generators
// can chain additions without per-call error plumbing and malformed
// construction inputs report a message instead of crashing.
func (b *Builder) Node(id int64) NodeID {
	v, err := b.AddNode(id)
	if err != nil && b.err == nil {
		b.err = err
	}
	return v
}

// AddEdge adds an undirected edge between u and v (which may be equal,
// yielding a self-loop) and returns its EdgeID. Ports are assigned in
// insertion order.
func (b *Builder) AddEdge(u, v NodeID) (EdgeID, error) {
	if int(u) >= len(b.ids) || int(v) >= len(b.ids) || u < 0 || v < 0 {
		return 0, fmt.Errorf("add edge: node out of range (%d, %d)", u, v)
	}
	id := EdgeID(len(b.edges))
	pu := int32(len(b.adj[u]))
	b.adj[u] = append(b.adj[u], Half{Edge: id, Side: SideU})
	pv := int32(len(b.adj[v]))
	if u == v {
		// The second attachment of a self-loop lands one port later.
		pv = int32(len(b.adj[v]))
	}
	b.adj[v] = append(b.adj[v], Half{Edge: id, Side: SideV})
	b.edges = append(b.edges, Edge{
		ID: id,
		U:  Endpoint{Node: u, Port: pu},
		V:  Endpoint{Node: v, Port: pv},
	})
	return id, nil
}

// Link is AddEdge in sticky-error form: the first failure is recorded on
// the builder and surfaced by Build.
func (b *Builder) Link(u, v NodeID) EdgeID {
	e, err := b.AddEdge(u, v)
	if err != nil && b.err == nil {
		b.err = err
	}
	return e
}

// Err reports the first sticky construction error, if any.
func (b *Builder) Err() error { return b.err }

// ErrEmptyGraph is returned by Build for graphs with no nodes.
var ErrEmptyGraph = errors.New("graph has no nodes")

// Build finalizes the builder into an immutable Graph, flattening the
// per-node adjacency lists into the CSR offsets + halves arrays.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.ids) == 0 {
		return nil, ErrEmptyGraph
	}
	var maxID int64
	for _, id := range b.ids {
		if id > maxID {
			maxID = id
		}
	}
	n := len(b.ids)
	off := make([]int32, n+1)
	maxDeg := 0
	for v, ports := range b.adj {
		off[v+1] = off[v] + int32(len(ports))
		if len(ports) > maxDeg {
			maxDeg = len(ports)
		}
	}
	halves := make([]Half, 0, off[n])
	for _, ports := range b.adj {
		halves = append(halves, ports...)
	}
	return &Graph{ids: b.ids, edges: b.edges, off: off, halves: halves, maxID: maxID, maxDeg: maxDeg}, nil
}
