package core

import (
	"fmt"

	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// PaddedSolver is the Lemma-4 algorithm for Π′: run the gadget verifier V
// on every GadEdge component, mark port validity, contract valid gadgets
// into the virtual graph H, simulate the inner Π-solver on H, and expand
// the virtual solution into Σlist labels.
//
// Round accounting follows the Lemma-4 analysis: every node pays the
// verifier radius O(log n); nodes of valid gadgets additionally pay one
// gadget-dilation unit per simulated inner round (gathering radius
// T·d(n)), which yields the O(T(Π,n)·d(n)) total of Theorem 1.
//
// PaddedSolver runs the whole pipeline as centralized gather-style code;
// it is the sequential oracle the engine-backed EnginePaddedSolver is
// differential-tested against. The pipeline stages (port validity, Σlist
// assembly, cost charging) are shared package-level functions, so the two
// solvers cannot drift apart structurally.
type PaddedSolver struct {
	Delta int
	Inner lcl.Solver
}

var _ lcl.Solver = (*PaddedSolver)(nil)

// NewPaddedSolver constructs the solver.
func NewPaddedSolver(inner lcl.Solver, delta int) *PaddedSolver {
	return &PaddedSolver{Delta: delta, Inner: inner}
}

// Name implements lcl.Solver.
func (s *PaddedSolver) Name() string { return "padded(" + s.Inner.Name() + ")" }

// Randomized implements lcl.Solver.
func (s *PaddedSolver) Randomized() bool { return s.Inner.Randomized() }

// Detail exposes the internals of a padded solve for experiments.
type Detail struct {
	Out       *lcl.Labeling
	Cost      *lcl.Cost
	Virtual   *VirtualGraph
	VirtOut   *lcl.Labeling
	InnerCost *lcl.Cost
	PsiRadius int
	Dilation  int
	Valid     int
	Invalid   int
	// Engine carries the measured engine profile when the solve executed
	// on the message-passing engine (EnginePaddedSolver); nil for the
	// sequential oracle.
	Engine *EngineRunStats
	// Labels is the label table assembly composed Out's node labels
	// through. A held verify of Out starts its decode from it
	// (Level.Verifier, PiPrime.SeededVerifier); after that verify the
	// caller drops it, so the table lives for one solve and its verify.
	Labels *OutputLabels
}

// OutputLabels is the label table a padded solve assembled its output
// through (Detail.Labels), opaque outside this package. A verify seeded
// with it adds its own decodes to it, so it seeds one verify at a time.
type OutputLabels labelTable

// Solve implements lcl.Solver.
func (s *PaddedSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	d, err := s.SolveDetailed(g, in, seed)
	if err != nil {
		return nil, nil, err
	}
	return d.Out, d.Cost, nil
}

// SolveDetailed runs the algorithm and returns diagnostics.
func (s *PaddedSolver) SolveDetailed(g *graph.Graph, in *lcl.Labeling, seed int64) (*Detail, error) {
	dec, err := decodeInputs(g, in)
	if err != nil {
		return nil, fmt.Errorf("padded solve: %w", err)
	}
	n := g.NumNodes()
	cost := lcl.NewCost(n)

	// Step 1: the verifier V solves ΨG on every gadget (Definition 2),
	// run centrally with faithful round accounting.
	vf := &errorproof.Verifier{Delta: s.Delta, Scope: dec.scope}
	psiOut, psiCost, err := vf.Run(g, dec.gad, n)
	if err != nil {
		return nil, fmt.Errorf("padded solve verifier: %w", err)
	}
	cost.Merge(psiCost)

	// Steps 2-3 are shared with the engine-backed solver.
	plan, err := planPadded(g, dec, psiOut.Node, s.Delta)
	if err != nil {
		return nil, err
	}

	// Step 4, oracle style: the inner solver runs as one centralized call
	// on H. This is the sequential reference the native-machine execution
	// (EnginePaddedSolver, relay.go) is differential-tested against.
	var virtOut *lcl.Labeling
	innerCost := lcl.NewCost(plan.vg.NumVirtualNodes())
	if plan.vg.NumVirtualNodes() > 0 {
		virtOut, innerCost, err = s.Inner.Solve(plan.vg.H, plan.vg.In, seed)
		if err != nil {
			return nil, fmt.Errorf("padded solve inner: %w", err)
		}
	}

	// The oracle charges the analytical simulation cost: each inner round
	// crosses one gadget, so a valid-gadget node pays
	// (innerRounds+1)·(dilation+1) on top of its Ψ radius.
	d, err := assemblePadded(g, plan, virtOut, innerCost, psiCost, cost, s.Delta,
		func(virt graph.NodeID, dilation int) int {
			return (innerCost.Radius(virt) + 1) * (dilation + 1)
		})
	if err != nil {
		return nil, err
	}
	d.PsiRadius = vf.Radius(n)
	return d, nil
}

// paddedPlan carries the outputs of steps 2-3 of the Lemma-4 pipeline:
// the port-validity labels and the contracted virtual graph. Both the
// sequential oracle and the engine-backed solver build it through
// planPadded, which is what keeps their structural decisions byte-
// identical by construction; the inner solve itself (step 4) is the
// one stage the two paths realize differently. A prepared engine solve
// keeps its plan across Runs, so the plan holds only what assembly and
// the relay read.
type paddedPlan struct {
	portErr []lcl.Label
	vg      *VirtualGraph
	// sigmas[ci] is valid gadget ci's Σlist inputs (see gadgetSigma).
	sigmas  []gadgetSigma
	psiNode []lcl.Label
	scope   func(graph.EdgeID) bool
	// dilation is the measured gadget dilation d, computed once here: it
	// drives both the relay's super-round length and the charged cost,
	// which must agree.
	dilation int
	// compEcc[ci] is component ci's measured leader eccentricity (-1 for
	// invalid components): the per-gadget schedule the relay plane runs,
	// of which dilation is the maximum.
	compEcc []int
}

// planPadded runs steps 2-3 from the Ψ node outputs: port validity and
// the virtual contraction.
func planPadded(g *graph.Graph, dec *padInputs, psi []lcl.Label, delta int) (*paddedPlan, error) {
	n := g.NumNodes()
	scope := dec.scope

	// Step 2: port-validity labels (constraints 3 and 4).
	portErr := make([]lcl.Label, n)
	compValid, compOf := scopedValidity(g, scope, psi)
	for v := graph.NodeID(0); int(v) < n; v++ {
		portErr[v] = portValidity(g, dec, compValid, compOf, v)
	}

	// Step 3: contract valid gadgets into the virtual graph.
	vg, err := buildVirtual(g, dec, psi, portErr, delta)
	if err != nil {
		return nil, fmt.Errorf("padded solve: %w", err)
	}
	// Per-gadget eccentricities, measured once at plan time: the relay
	// plane schedules each gadget by its own eccentricity, and the
	// maximum is the dilation d that the charged cost model uses.
	compEcc := make([]int, len(vg.Comps))
	dilation := 0
	bfs := newScopedBFS(g, scope)
	for ci, nodes := range vg.Comps {
		compEcc[ci] = -1
		if !vg.Valid[ci] {
			continue
		}
		bfs.run(nodes[0])
		ecc := bfs.eccentricity()
		compEcc[ci] = ecc
		if ecc > dilation {
			dilation = ecc
		}
	}
	return &paddedPlan{
		portErr:  portErr,
		vg:       vg,
		sigmas:   gadgetSigmas(g, dec.pi, scope, portErr, vg, delta),
		psiNode:  psi,
		scope:    scope,
		dilation: dilation,
		compEcc:  compEcc,
	}, nil
}

// assemblePadded runs step 5 from a virtual solution: expand the virtual
// labels into Σlists and charge the simulation cost. simCharge reports
// the post-Ψ rounds charged to the nodes of a valid gadget — the
// analytical (T+1)(d+1) model for the oracle, the measured relay-session
// length for the native-machine execution.
func assemblePadded(g *graph.Graph, plan *paddedPlan, virtOut *lcl.Labeling,
	innerCost *lcl.Cost, psiCost, cost *lcl.Cost, delta int,
	simCharge func(virt graph.NodeID, dilation int) int) (*Detail, error) {

	n := g.NumNodes()
	vg := plan.vg
	scope := plan.scope
	dilation := plan.dilation
	out, labels, err := expandVirtual(g, scope, plan.portErr, plan.psiNode, vg, plan.sigmas, virtOut, delta)
	if err != nil {
		return nil, err
	}
	valid, invalid := 0, 0
	for ci := range vg.Comps {
		if vg.Valid[ci] {
			valid++
		} else {
			invalid++
		}
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		ci := vg.CompOf[v]
		if ci >= 0 && vg.Valid[ci] {
			cost.Charge(v, psiCost.Radius(v)+simCharge(vg.VirtOf[ci], dilation))
		}
	}
	return &Detail{
		Out:       out,
		Cost:      cost,
		Virtual:   vg,
		VirtOut:   virtOut,
		InnerCost: innerCost,
		Dilation:  dilation,
		Valid:     valid,
		Invalid:   invalid,
		Labels:    (*OutputLabels)(labels),
	}, nil
}

// expandVirtual assembles the composite Π′ output labeling from the
// virtual solution: every node of a valid gadget carries its gadget's
// Σlist, every node its port-validity and Ψ labels, and gadget elements
// the ψ placeholder. It returns the table the node labels were composed
// through, which knows every composite's parts and Σlist.
func expandVirtual(g *graph.Graph, scope func(graph.EdgeID) bool, portErr []lcl.Label, psiNode []lcl.Label,
	vg *VirtualGraph, sigmas []gadgetSigma, virtOut *lcl.Labeling, delta int) (*lcl.Labeling, *labelTable, error) {

	// Node labels are composed through one table: a few distinct
	// (Σlist, portErr, Ψ) tuples cover every node.
	labels := newLabelTable()
	noSigma := labels.intern("")
	out := lcl.NewLabeling(g)
	sigmaOf := make([]labelID, len(vg.Comps))
	for ci := range vg.Comps {
		if !vg.Valid[ci] || vg.VirtOf[ci] < 0 {
			continue
		}
		sl, err := sigmas[ci].sigma(vg.VirtOf[ci], virtOut, delta)
		if err != nil {
			return nil, nil, fmt.Errorf("padded solve: %w", err)
		}
		if sigmaOf[ci], err = labels.encodeSigma(sl); err != nil {
			return nil, nil, fmt.Errorf("padded solve: %w", err)
		}
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		ci := vg.CompOf[v]
		sigma := noSigma
		if ci >= 0 && vg.Valid[ci] {
			sigma = sigmaOf[ci]
		}
		id, err := labels.compose(sigma, labels.intern(portErr[v]), labels.intern(psiNode[v]))
		if err != nil {
			return nil, nil, fmt.Errorf("padded solve: %w", err)
		}
		out.Node[v] = labels.label(id)
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if scope(e) {
			out.Edge[e] = LabPsiEdge
			out.SetHalf(graph.Half{Edge: e, Side: graph.SideU}, LabPsiEdge)
			out.SetHalf(graph.Half{Edge: e, Side: graph.SideV}, LabPsiEdge)
		}
	}
	return out, labels, nil
}

// scopedValidity computes the scoped (GadEdge) components and whether each
// is a valid gadget (all Ψ outputs GadOk). It is shared by the sequential
// and the engine-backed pipeline so both agree on component indexing.
func scopedValidity(g *graph.Graph, scope func(graph.EdgeID) bool, psi []lcl.Label) ([]bool, []int) {
	n := g.NumNodes()
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	var valid []bool
	for st := graph.NodeID(0); int(st) < n; st++ {
		if compOf[st] >= 0 {
			continue
		}
		idx := len(valid)
		compOf[st] = idx
		ok := true
		queue := []graph.NodeID{st}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			if psi[x] != errorproof.LabGadOk {
				ok = false
			}
			for _, h := range g.Halves(x) {
				if !scope(h.Edge) {
					continue
				}
				y := g.Edge(h.Edge).Other(h.Side).Node
				if compOf[y] < 0 {
					compOf[y] = idx
					queue = append(queue, y)
				}
			}
		}
		valid = append(valid, ok)
	}
	return valid, compOf
}

// portValidity assigns the {PortErr1, PortErr2, NoPortErr} label of one
// node per the Lemma-4 algorithm. The decision is constant-radius: the
// node's own port structure, its partner across the unique port edge, and
// the component validity of both (which every node knows after Ψ).
func portValidity(g *graph.Graph, dec *padInputs, compValid []bool, compOf []int, v graph.NodeID) lcl.Label {
	scope := dec.scope
	gd, err := dec.nodes.Of(dec.gad, v)
	if err != nil || gd.Port == 0 {
		return NoPortErr
	}
	var portEdges []graph.Half
	for _, h := range g.Halves(v) {
		if !scope(h.Edge) {
			portEdges = append(portEdges, h)
		}
	}
	if len(portEdges) != 1 {
		return PortErr2
	}
	u := g.Edge(portEdges[0].Edge).Other(portEdges[0].Side).Node
	gu, err := dec.nodes.Of(dec.gad, u)
	if err != nil || gu.Port == 0 {
		return PortErr1
	}
	if !compValid[compOf[v]] || !compValid[compOf[u]] {
		return PortErr1
	}
	// The partner must itself have exactly one port edge, or the edge
	// dangles on its side.
	cnt := 0
	for _, h := range g.Halves(u) {
		if !scope(h.Edge) {
			cnt++
		}
	}
	if cnt != 1 {
		return PortErr1
	}
	return NoPortErr
}

// gadgetSigma is the instance-fixed half of a valid gadget's Σlist,
// derived at plan time: S and the input labels, copied from the Π layer
// of the gadget's Port nodes and port edges, and per port i the virtual
// half-edge halves[i-1] its output labels are read from (edge -1: none).
// A plan keeps these instead of the whole Π-layer labeling. err is a
// malformed gadget's error, reported when its Σlist is assembled.
type gadgetSigma struct {
	in     SigmaList // S, IV, IE, IB
	halves []graph.Half
	err    error
}

// gadgetSigmas derives the Σlist inputs of every valid gadget, indexed by
// component.
func gadgetSigmas(g *graph.Graph, piIn *lcl.Labeling, scope func(graph.EdgeID) bool,
	portErr []lcl.Label, vg *VirtualGraph, delta int) []gadgetSigma {

	sigmas := make([]gadgetSigma, len(vg.Comps))
	for ci := range vg.Comps {
		if !vg.Valid[ci] || vg.VirtOf[ci] < 0 {
			continue
		}
		gs := &sigmas[ci]
		p1 := vg.PortNode[ci][0]
		if p1 < 0 {
			gs.err = fmt.Errorf("valid gadget without Port1 (component %d)", ci)
			continue
		}
		gs.in = SigmaList{IV: string(piIn.Node[p1]), IE: make([]string, delta), IB: make([]string, delta)}
		gs.halves = make([]graph.Half, delta)
		for i := range gs.halves {
			gs.halves[i].Edge = -1
		}
		for i := 1; i <= delta && gs.err == nil; i++ {
			pn := vg.PortNode[ci][i-1]
			if pn < 0 || portErr[pn] != NoPortErr {
				continue
			}
			gs.in.S = append(gs.in.S, i)
			// The unique port edge at pn.
			for _, h := range g.Halves(pn) {
				if scope(h.Edge) {
					continue
				}
				gs.in.IE[i-1] = string(piIn.Edge[h.Edge])
				gs.in.IB[i-1] = string(piIn.HalfOf(h))
				ve, ok := vg.VEdgeOf[h.Edge]
				if !ok {
					gs.err = fmt.Errorf("NoPortErr port %d of component %d has no virtual edge", i, ci)
					break
				}
				// The physical U side maps to the virtual U side.
				gs.halves[i-1] = graph.Half{Edge: ve, Side: h.Side}
				break
			}
		}
	}
	return sigmas
}

// sigma builds the gadget's Σlist from the virtual solution (nil: no
// inner outputs) on virtual node virt.
func (gs *gadgetSigma) sigma(virt graph.NodeID, virtOut *lcl.Labeling, delta int) (*SigmaList, error) {
	if gs.err != nil {
		return nil, gs.err
	}
	sl := &SigmaList{
		S: gs.in.S, IV: gs.in.IV, IE: gs.in.IE, IB: gs.in.IB,
		OE: make([]string, delta), OB: make([]string, delta),
	}
	if virtOut == nil {
		return sl, nil
	}
	sl.OV = string(virtOut.Node[virt])
	for i, h := range gs.halves {
		if h.Edge >= 0 {
			sl.OE[i] = string(virtOut.Edge[h.Edge])
			sl.OB[i] = string(virtOut.HalfOf(h))
		}
	}
	return sl, nil
}

// scopedBFS runs breadth-first searches within the scoped subgraph over
// dense per-node arrays that every search reuses: a search resets only
// the nodes the previous one reached.
type scopedBFS struct {
	g     *graph.Graph
	scope func(graph.EdgeID) bool
	// dist[v] is v's distance from the last search's root, -1 when the
	// search did not reach v. For reached v ≠ root, parent[v] is v's tree
	// parent, parentPort[v] the port at v toward it, and childPort[v] the
	// port at parent[v] back toward v.
	dist                  []int32
	parent                []graph.NodeID
	parentPort, childPort []int32
	order                 []graph.NodeID // nodes reached, in search order
}

func newScopedBFS(g *graph.Graph, scope func(graph.EdgeID) bool) *scopedBFS {
	n := g.NumNodes()
	b := &scopedBFS{
		g: g, scope: scope,
		dist:       make([]int32, n),
		parent:     make([]graph.NodeID, n),
		parentPort: make([]int32, n),
		childPort:  make([]int32, n),
	}
	for v := range b.dist {
		b.dist[v] = -1
	}
	return b
}

// run searches from root.
func (b *scopedBFS) run(root graph.NodeID) {
	for _, v := range b.order {
		b.dist[v] = -1
	}
	b.order = append(b.order[:0], root)
	b.dist[root] = 0
	b.parent[root] = root
	for i := 0; i < len(b.order); i++ {
		x := b.order[i]
		for p, h := range b.g.Halves(x) {
			if !b.scope(h.Edge) {
				continue
			}
			end := b.g.Edge(h.Edge).Other(h.Side)
			y := end.Node
			if b.dist[y] >= 0 {
				continue
			}
			b.dist[y] = b.dist[x] + 1
			b.parent[y] = x
			b.parentPort[y] = end.Port
			b.childPort[y] = int32(p)
			b.order = append(b.order, y)
		}
	}
}

// eccentricity returns the largest distance the last search reached.
func (b *scopedBFS) eccentricity() int {
	return int(b.dist[b.order[len(b.order)-1]])
}
