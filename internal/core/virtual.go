package core

import (
	"fmt"

	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// VirtualGraph is the contraction of a padded graph's valid gadgets: one
// node per valid gadget, one edge per port edge between mutually valid
// ports (Lemma 4's construction). Invalid gadgets and isolated padding
// disappear.
type VirtualGraph struct {
	H *graph.Graph
	// Comps are the GadEdge components; CompOf maps physical nodes to
	// their component.
	Comps  [][]graph.NodeID
	CompOf []int
	// Valid flags components that are valid gadgets (all-GadOk Ψ
	// output); VirtOf maps a valid component to its virtual node.
	Valid  []bool
	VirtOf []graph.NodeID
	// CompOfVirt inverts VirtOf.
	CompOfVirt []int
	// PortNode[comp][i-1] is the Portᵢ node of the component, or -1.
	PortNode [][]graph.NodeID
	// VEdgeOf maps physical port edges to virtual edges (only edges
	// between mutually valid ports appear). Physical side U corresponds
	// to virtual side U.
	VEdgeOf map[graph.EdgeID]graph.EdgeID
	// In carries the inner problem's input labeling on H.
	In *lcl.Labeling
}

// buildVirtual reconstructs the virtual graph from the decoded instance
// inputs, the Ψ node outputs, and the port-validity labels. H is nil when
// no valid gadget exists.
func buildVirtual(g *graph.Graph, dec *padInputs, psi []lcl.Label, portErr []lcl.Label, delta int) (*VirtualGraph, error) {
	piIn, scope := dec.pi, dec.scope

	vg := &VirtualGraph{
		CompOf:  make([]int, g.NumNodes()),
		VEdgeOf: make(map[graph.EdgeID]graph.EdgeID),
	}
	for i := range vg.CompOf {
		vg.CompOf[i] = -1
	}
	// Scoped components.
	for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
		if vg.CompOf[s] >= 0 {
			continue
		}
		idx := len(vg.Comps)
		vg.CompOf[s] = idx
		queue := []graph.NodeID{s}
		var nodes []graph.NodeID
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			nodes = append(nodes, x)
			for _, h := range g.Halves(x) {
				if !scope(h.Edge) {
					continue
				}
				y := g.Edge(h.Edge).Other(h.Side).Node
				if vg.CompOf[y] < 0 {
					vg.CompOf[y] = idx
					queue = append(queue, y)
				}
			}
		}
		vg.Comps = append(vg.Comps, nodes)
	}
	nc := len(vg.Comps)
	vg.Valid = make([]bool, nc)
	vg.VirtOf = make([]graph.NodeID, nc)
	vg.PortNode = make([][]graph.NodeID, nc)
	for ci, nodes := range vg.Comps {
		valid := true
		ports := make([]graph.NodeID, delta)
		for i := range ports {
			ports[i] = -1
		}
		for _, v := range nodes {
			if psi[v] != errorproof.LabGadOk {
				valid = false
			}
			gd, err := dec.nodes.Of(dec.gad, v)
			if err == nil && gd.Port >= 1 && gd.Port <= delta && ports[gd.Port-1] < 0 {
				ports[gd.Port-1] = v
			}
		}
		vg.Valid[ci] = valid
		vg.VirtOf[ci] = -1
		vg.PortNode[ci] = ports
	}

	// Virtual nodes for valid components, identified by their minimal
	// physical identifier (the paper's virtual ID rule).
	b := graph.NewBuilder(nc, g.NumEdges())
	count := 0
	for ci, nodes := range vg.Comps {
		if !vg.Valid[ci] {
			continue
		}
		minID := g.ID(nodes[0])
		for _, v := range nodes[1:] {
			if g.ID(v) < minID {
				minID = g.ID(v)
			}
		}
		vn, err := b.AddNode(minID)
		if err != nil {
			return nil, fmt.Errorf("build virtual: %w", err)
		}
		vg.VirtOf[ci] = vn
		vg.CompOfVirt = append(vg.CompOfVirt, ci)
		count++
	}
	if count == 0 {
		return vg, nil
	}

	// Virtual edges: port edges between mutually valid (NoPortErr)
	// ports.
	type vEdge struct {
		pe     graph.EdgeID
		cu, cv int
	}
	var ves []vEdge
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if scope(e) {
			continue
		}
		ed := g.Edge(e)
		u, v := ed.U.Node, ed.V.Node
		if portErr[u] != NoPortErr || portErr[v] != NoPortErr {
			continue
		}
		cu, cv := vg.CompOf[u], vg.CompOf[v]
		if cu < 0 || cv < 0 || !vg.Valid[cu] || !vg.Valid[cv] {
			continue
		}
		ves = append(ves, vEdge{pe: e, cu: cu, cv: cv})
	}
	for _, ve := range ves {
		ne, err := b.AddEdge(vg.VirtOf[ve.cu], vg.VirtOf[ve.cv])
		if err != nil {
			return nil, fmt.Errorf("build virtual edge: %w", err)
		}
		vg.VEdgeOf[ve.pe] = ne
	}
	H, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("build virtual: %w", err)
	}
	vg.H = H

	// Inner inputs: virtual node input from the gadget's Port1 node;
	// edge and half inputs from the port edge's Π-layer.
	vg.In = lcl.NewLabeling(H)
	for vi, ci := range vg.CompOfVirt {
		p1 := vg.PortNode[ci][0]
		if p1 < 0 {
			return nil, fmt.Errorf("build virtual: valid gadget (component %d) without Port1", ci)
		}
		vg.In.Node[vi] = piIn.Node[p1]
	}
	for pe, ne := range vg.VEdgeOf {
		vg.In.Edge[ne] = piIn.Edge[pe]
		vg.In.SetHalf(graph.Half{Edge: ne, Side: graph.SideU}, piIn.HalfOf(graph.Half{Edge: pe, Side: graph.SideU}))
		vg.In.SetHalf(graph.Half{Edge: ne, Side: graph.SideV}, piIn.HalfOf(graph.Half{Edge: pe, Side: graph.SideV}))
	}
	return vg, nil
}

// NumVirtualNodes returns |V(H)| (0 when no gadget is valid).
func (vg *VirtualGraph) NumVirtualNodes() int {
	if vg.H == nil {
		return 0
	}
	return vg.H.NumNodes()
}
