package core

import (
	"fmt"

	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// PiPrime is the padded ne-LCL Π′ of Section 3.3, parameterized by the
// inner problem Π and the gadget family's Δ. Constraints follow the
// paper's numbering:
//
//  1. ε on port edges/halves, ΨG outputs on gadget edges/halves.
//  2. ΨG solved on every gadget (GadEdge component).
//  3. PortErr2 exactly at ports with a port-edge count != 1.
//  4. Port-edge endpoints agree on validity (no PortErr1 between two
//     GadOk ports; no NoPortErr toward NoPort/erroring partners).
//  5. Nodes of valid gadgets carry a Σlist describing the virtual node:
//     valid-port set S, faithful input copies, and outputs satisfying
//     Π's node constraint.
//  6. Equal Σlist along gadget edges; Π's edge constraint across port
//     edges between valid ports.
//
// The virtual-configuration checks (5's last bullet, 6's last bullet)
// run on hypothetical stars/edges when the inner problem is
// star-checkable (its constraints read only the immediate
// configuration, as the formal ne-LCL definition demands). Inner
// problems that are themselves PiPrime instances are validated globally
// by VerifyPadded, which reconstructs the virtual graph.
//
// A PiPrime holds no state: every check decodes the labelings it is
// given. VerifyPadded decodes each labeling once per call, and
// Verifier holds one instance's input projection across calls.
type PiPrime struct {
	Inner lcl.Problem
	Delta int
}

var _ lcl.Problem = (*PiPrime)(nil)

// NewPiPrime constructs the padded problem.
func NewPiPrime(inner lcl.Problem, delta int) *PiPrime {
	return &PiPrime{Inner: inner, Delta: delta}
}

// Name implements lcl.Problem.
func (p *PiPrime) Name() string { return "padded(" + p.Inner.Name() + ")" }

// CheckNode implements lcl.Problem. Each call decodes both labelings;
// VerifyPadded checks a whole labeling with one decode.
func (p *PiPrime) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	return (&paddedCheck{p: p}).CheckNode(g, in, out, v)
}

// CheckEdge implements lcl.Problem. Each call decodes both labelings;
// VerifyPadded checks a whole labeling with one decode.
func (p *PiPrime) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	return (&paddedCheck{p: p}).CheckEdge(g, in, out, e)
}

// StarCheckable reports whether a problem's constraints read only the
// immediate node/edge configuration, making hypothetical-star checking
// valid. Problems advertise it via an optional interface.
func StarCheckable(prob lcl.Problem) bool {
	sc, ok := prob.(interface{ StarCheckable() bool })
	return ok && sc.StarCheckable()
}

// projIn is the decoded composite input labeling: its layers, or the
// decode error, and the Ψ checker of constraint 2 with every node's
// gadget-structure verdict. It depends on the input alone, so a held
// instance builds it once (Verifier) and only reads it afterwards.
type projIn struct {
	*padInputs
	err error
	psi *errorproof.Psi
}

// projectInput decodes in and checks the gadget structure at every node.
func (p *PiPrime) projectInput(g *graph.Graph, in *lcl.Labeling) *projIn {
	pr := &projIn{}
	pr.padInputs, pr.err = decodeInputs(g, in)
	if pr.err != nil {
		return pr
	}
	pr.psi = &errorproof.Psi{Delta: p.Delta, Scope: pr.scope, Inputs: pr.nodes}
	pr.psi.Violated = pr.psi.StructureViolations(g, pr.gad)
	return pr
}

// projOut is the decoded composite output labeling of one verify call.
// Its label table is filled when it is built and only read afterwards;
// the hypothetical-star verdicts are memoized per Σlist (node checks)
// and per Σlist/port pair (edge checks) as the checks ask for them, and
// the checks share one graph per star shape.
type projOut struct {
	labels  *labelTable
	sigma   []labelID // Σlist part per node (noLabel when undecodable)
	portErr []lcl.Label
	psi     *lcl.Labeling // Ψ node outputs (node labels only)
	errs    []error       // per-node decode errors

	starNode verdicts[labelID]
	starEdge verdicts[starEdgeKey]
	// pair and stars (by degree) are the hypothetical configurations the
	// star checks fill, built on first use.
	pair  *starShape
	stars []*starShape
}

// verdicts memoizes the results of a pure check by key.
type verdicts[K comparable] map[K]error

func (vs *verdicts[K]) get(k K, check func() error) error {
	if err, ok := (*vs)[k]; ok {
		return err
	}
	if *vs == nil {
		*vs = make(verdicts[K])
	}
	err := check()
	(*vs)[k] = err
	return err
}

// starEdgeKey names one hypothetical edge: the Σlists of its endpoints
// and the physical ports it leaves them by.
type starEdgeKey struct {
	u, v   labelID
	pu, pv int
}

// projectOutput decodes every node's composite output label through t,
// a table assembly composed out through (nil: a new table).
func (p *PiPrime) projectOutput(g *graph.Graph, out *lcl.Labeling, t *labelTable) *projOut {
	n := g.NumNodes()
	if t == nil {
		t = newLabelTable()
	}
	pr := &projOut{
		labels:  t,
		sigma:   make([]labelID, n),
		portErr: make([]lcl.Label, n),
		psi:     &lcl.Labeling{Node: make([]lcl.Label, n)},
		errs:    make([]error, n),
	}
	for v := 0; v < n; v++ {
		parts, err := t.split(out.Node[v], outNodeParts)
		if err != nil {
			pr.sigma[v] = noLabel
			pr.errs[v] = err
			continue
		}
		pr.sigma[v] = parts[0]
		pr.portErr[v] = t.label(parts[1])
		pr.psi.Node[v] = t.label(parts[2])
		// Decode the Σlist now, so the table is complete before any
		// check reads it.
		t.sigma(parts[0], p.Delta)
	}
	return pr
}

// sigmaAt returns node v's decoded Σlist; v's output label must have
// decoded.
func (pr *projOut) sigmaAt(v graph.NodeID, delta int) (*sigmaIDs, error) {
	return pr.labels.sigma(pr.sigma[v], delta)
}

// paddedCheck is Π′'s checker for one verification: it reads the
// instance's input projection, held by the caller or built on first
// use, and the output projection it builds on first use, through the
// seed table when the caller has one. It is never shared between calls,
// so no output projection outlives its verify.
type paddedCheck struct {
	p    *PiPrime
	pin  *projIn
	seed *labelTable
	pout *projOut
}

// Name implements lcl.Problem.
func (c *paddedCheck) Name() string { return c.p.Name() }

func (c *paddedCheck) inputs(g *graph.Graph, in *lcl.Labeling) *projIn {
	if c.pin == nil {
		c.pin = c.p.projectInput(g, in)
	}
	return c.pin
}

func (c *paddedCheck) outputs(g *graph.Graph, out *lcl.Labeling) *projOut {
	if c.pout == nil {
		c.pout = c.p.projectOutput(g, out, c.seed)
	}
	return c.pout
}

// CheckNode implements lcl.Problem.
func (c *paddedCheck) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	p := c.p
	pin := c.inputs(g, in)
	if pin.err != nil {
		return lcl.Violation(p.Name(), "node", int(v), "composite input: %v", pin.err)
	}
	pout := c.outputs(g, out)
	if pout.errs[v] != nil {
		return lcl.Violation(p.Name(), "node", int(v), "composite output: %v", pout.errs[v])
	}
	gd, err := pin.nodes.Of(pin.gad, v)
	if err != nil {
		return lcl.Violation(p.Name(), "node", int(v), "gadget input: %v", err)
	}

	// Constraint 1, half-edge part: ε across port edges, ΨG output on
	// gadget halves.
	portEdgeCount := 0
	for _, h := range g.Halves(v) {
		lab := out.HalfOf(h)
		if pin.scope(h.Edge) {
			if lab != LabPsiEdge {
				return lcl.Violation(p.Name(), "node", int(v), "gadget half output %q, want %q", lab, LabPsiEdge)
			}
		} else {
			portEdgeCount++
			if lab != "" {
				return lcl.Violation(p.Name(), "node", int(v), "port half output %q, want ε", lab)
			}
		}
	}

	// Constraint 2: ΨG's node constraint at v.
	if err := pin.psi.CheckNode(g, pin.gad, pout.psi, v); err != nil {
		return err
	}

	// Constraint 3: PortErr2 accounting.
	pe := pout.portErr[v]
	if pe != PortErr1 && pe != PortErr2 && pe != NoPortErr {
		return lcl.Violation(p.Name(), "node", int(v), "port-validity label %q", pe)
	}
	wantErr2 := gd.Port > 0 && portEdgeCount != 1
	if wantErr2 && pe != PortErr2 {
		return lcl.Violation(p.Name(), "node", int(v), "port %d has %d port edges but label %q, want PortErr2", gd.Port, portEdgeCount, pe)
	}
	if !wantErr2 && pe == PortErr2 {
		return lcl.Violation(p.Name(), "node", int(v), "PortErr2 without a port-count violation")
	}

	// Constraint 5: excused when an LErr output appears on v or its
	// incident gadget elements (our ΨG writes content on nodes only).
	if errorproof.IsErrorLabel(pout.psi.Node[v]) {
		return nil
	}
	sl, err := pout.sigmaAt(v, p.Delta)
	if err != nil {
		return lcl.Violation(p.Name(), "node", int(v), "Σlist: %v", err)
	}
	lab := pout.labels.label
	// Bullet 1: S membership mirrors NoPortErr at ports.
	if gd.Port > 0 {
		if sl.contains(gd.Port) != (pe == NoPortErr) {
			return lcl.Violation(p.Name(), "node", int(v), "port %d: S membership %v vs label %q", gd.Port, sl.contains(gd.Port), pe)
		}
	}
	// Bullet 2: Port1 carries the virtual node's input.
	if gd.Port == 1 && lab(sl.IV) != pin.pi.Node[v] {
		return lcl.Violation(p.Name(), "node", int(v), "Σlist IV %q differs from Port1 input %q", lab(sl.IV), pin.pi.Node[v])
	}
	// Bullet 3: faithful copies of the port edge's Π-inputs.
	if gd.Port > 0 && sl.contains(gd.Port) {
		for _, h := range g.Halves(v) {
			if pin.scope(h.Edge) {
				continue
			}
			if ie := lab(sl.IE[gd.Port-1]); ie != pin.pi.Edge[h.Edge] {
				return lcl.Violation(p.Name(), "node", int(v), "Σlist IE[%d] %q differs from port edge input %q",
					gd.Port, ie, pin.pi.Edge[h.Edge])
			}
			if ib := lab(sl.IB[gd.Port-1]); ib != pin.pi.HalfOf(h) {
				return lcl.Violation(p.Name(), "node", int(v), "Σlist IB[%d] %q differs from port half input %q",
					gd.Port, ib, pin.pi.HalfOf(h))
			}
		}
	}
	// Bullet 4: the virtual node configuration satisfies Π's node
	// constraint (checked on a hypothetical star for star-checkable Π;
	// otherwise VerifyPadded validates the reconstructed virtual graph).
	if StarCheckable(p.Inner) {
		starCheck := func() error { return p.starNodeCheck(pout, sl) }
		if err := pout.starNode.get(pout.sigma[v], starCheck); err != nil {
			return lcl.Violation(p.Name(), "node", int(v), "virtual node constraint: %v", err)
		}
	}
	return nil
}

// CheckEdge implements lcl.Problem.
func (c *paddedCheck) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	p := c.p
	pin := c.inputs(g, in)
	if pin.err != nil {
		return lcl.Violation(p.Name(), "edge", int(e), "composite input: %v", pin.err)
	}
	pout := c.outputs(g, out)
	ed := g.Edge(e)
	u, v := ed.U.Node, ed.V.Node
	if pout.errs[u] != nil || pout.errs[v] != nil {
		return lcl.Violation(p.Name(), "edge", int(e), "endpoint output undecodable")
	}

	// Constraint 1, edge part.
	if pin.scope(e) {
		if out.Edge[e] != LabPsiEdge {
			return lcl.Violation(p.Name(), "edge", int(e), "gadget edge output %q, want %q", out.Edge[e], LabPsiEdge)
		}
	} else if out.Edge[e] != "" {
		return lcl.Violation(p.Name(), "edge", int(e), "port edge output %q, want ε", out.Edge[e])
	}

	uErr := errorproof.IsErrorLabel(pout.psi.Node[u])
	vErr := errorproof.IsErrorLabel(pout.psi.Node[v])

	if pin.scope(e) {
		// Constraint 6, gadget edges: equal Σlist unless excused.
		if uErr || vErr {
			return nil
		}
		if pout.sigma[u] != pout.sigma[v] {
			return lcl.Violation(p.Name(), "edge", int(e), "Σlist differs across gadget edge")
		}
		return nil
	}

	// Port edges: constraints 4 and 6.
	gu, errU := pin.nodes.Of(pin.gad, u)
	gv, errV := pin.nodes.Of(pin.gad, v)
	if errU != nil || errV != nil {
		// Unparseable inputs already trip the node-side Ψ constraint.
		return nil
	}
	// Constraint 4.
	for _, side := range []struct {
		self, other           graph.NodeID
		selfPort, otherPort   int
		selfErrL, otherErrL   bool
		selfLabel, otherLabel lcl.Label
	}{
		{u, v, gu.Port, gv.Port, uErr, vErr, pout.portErr[u], pout.portErr[v]},
		{v, u, gv.Port, gu.Port, vErr, uErr, pout.portErr[v], pout.portErr[u]},
	} {
		if side.selfPort == 0 {
			continue
		}
		bothOkPorts := side.otherPort > 0 && !side.selfErrL && !side.otherErrL
		if bothOkPorts && side.selfLabel == PortErr1 {
			return lcl.Violation(p.Name(), "edge", int(e), "PortErr1 between two GadOk ports (constraint 4)")
		}
		if (side.otherPort == 0 || side.selfErrL || side.otherErrL) && side.selfLabel == NoPortErr {
			return lcl.Violation(p.Name(), "edge", int(e), "NoPortErr toward NoPort/erroring partner (constraint 4)")
		}
	}
	// Constraint 6, port edges: only between mutually valid ports.
	if uErr || vErr || gu.Port == 0 || gv.Port == 0 {
		return nil
	}
	if pout.portErr[u] != NoPortErr || pout.portErr[v] != NoPortErr {
		return nil
	}
	slU, errSU := pout.sigmaAt(u, p.Delta)
	slV, errSV := pout.sigmaAt(v, p.Delta)
	if errSU != nil || errSV != nil {
		return lcl.Violation(p.Name(), "edge", int(e), "Σlist undecodable at a valid port edge")
	}
	lab := pout.labels.label
	i, j := gu.Port, gv.Port
	if slU.IE[i-1] != slV.IE[j-1] {
		return lcl.Violation(p.Name(), "edge", int(e), "virtual edge inputs differ: %q vs %q", lab(slU.IE[i-1]), lab(slV.IE[j-1]))
	}
	if slU.OE[i-1] != slV.OE[j-1] {
		return lcl.Violation(p.Name(), "edge", int(e), "virtual edge outputs differ: %q vs %q", lab(slU.OE[i-1]), lab(slV.OE[j-1]))
	}
	if StarCheckable(p.Inner) {
		k := starEdgeKey{u: pout.sigma[u], v: pout.sigma[v], pu: i, pv: j}
		starCheck := func() error { return p.starEdgeCheck(pout, slU, i, slV, j) }
		if err := pout.starEdge.get(k, starCheck); err != nil {
			return lcl.Violation(p.Name(), "edge", int(e), "virtual edge constraint: %v", err)
		}
	}
	return nil
}

// starShape is a hypothetical configuration's graph with the input and
// output labelings its checks fill: the two-node pair of the edge checks,
// or the star of one degree of the node checks. A verify call builds each
// shape once (projOut.pair, projOut.star) and refills its labelings per
// check; every check of a shape writes the same slots, and the slots it
// does not write (the leaves of a star) stay empty, so a refilled shape
// reads exactly like a freshly built one.
type starShape struct {
	g       *graph.Graph
	in, out *lcl.Labeling
}

func newStarShape(g *graph.Graph) *starShape {
	return &starShape{g: g, in: lcl.NewLabeling(g), out: lcl.NewLabeling(g)}
}

// star returns the verify call's star of degree deg: center 1, leaves
// 2..deg+1, edge k from the center to leaf k+2.
func (pr *projOut) star(deg int) (*starShape, error) {
	if deg < len(pr.stars) && pr.stars[deg] != nil {
		return pr.stars[deg], nil
	}
	b := graph.NewBuilder(deg+1, deg)
	center := b.Node(1)
	for k := 0; k < deg; k++ {
		leaf := b.Node(int64(k + 2))
		b.Link(center, leaf)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	for len(pr.stars) <= deg {
		pr.stars = append(pr.stars, nil)
	}
	pr.stars[deg] = newStarShape(g)
	return pr.stars[deg], nil
}

// pairShape returns the verify call's two-node pair: nodes 1 and 2
// joined by edge 0.
func (pr *projOut) pairShape() (*starShape, error) {
	if pr.pair != nil {
		return pr.pair, nil
	}
	b := graph.NewBuilder(2, 1)
	b.Link(b.Node(1), b.Node(2))
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	pr.pair = newStarShape(g)
	return pr.pair, nil
}

// starNodeCheck fills the hypothetical star of constraint 5's last
// bullet and runs Π's node constraint at its center.
func (p *PiPrime) starNodeCheck(pr *projOut, sl *sigmaIDs) error {
	sh, err := pr.star(len(sl.S))
	if err != nil {
		return fmt.Errorf("star: %w", err)
	}
	t, in, out := pr.labels, sh.in, sh.out
	const center = graph.NodeID(0)
	in.Node[center] = t.label(sl.IV)
	out.Node[center] = t.label(sl.OV)
	for k, port := range sl.S {
		e := graph.EdgeID(k)
		in.Edge[e] = t.label(sl.IE[port-1])
		out.Edge[e] = t.label(sl.OE[port-1])
		h := graph.Half{Edge: e, Side: graph.SideU} // center side
		in.SetHalf(h, t.label(sl.IB[port-1]))
		out.SetHalf(h, t.label(sl.OB[port-1]))
	}
	return p.Inner.CheckNode(sh.g, in, out, center)
}

// starEdgeCheck fills the hypothetical edge of constraint 6's last
// bullet and runs Π's edge constraint on it.
func (p *PiPrime) starEdgeCheck(pr *projOut, slU *sigmaIDs, i int, slV *sigmaIDs, j int) error {
	sh, err := pr.pairShape()
	if err != nil {
		return fmt.Errorf("pair: %w", err)
	}
	t, in, out := pr.labels, sh.in, sh.out
	const a, c, e = graph.NodeID(0), graph.NodeID(1), graph.EdgeID(0)
	in.Node[a] = t.label(slU.IV)
	in.Node[c] = t.label(slV.IV)
	out.Node[a] = t.label(slU.OV)
	out.Node[c] = t.label(slV.OV)
	in.Edge[e] = t.label(slU.IE[i-1])
	out.Edge[e] = t.label(slU.OE[i-1])
	in.SetHalf(graph.Half{Edge: e, Side: graph.SideU}, t.label(slU.IB[i-1]))
	out.SetHalf(graph.Half{Edge: e, Side: graph.SideU}, t.label(slU.OB[i-1]))
	in.SetHalf(graph.Half{Edge: e, Side: graph.SideV}, t.label(slV.IB[j-1]))
	out.SetHalf(graph.Half{Edge: e, Side: graph.SideV}, t.label(slV.OB[j-1]))
	return p.Inner.CheckEdge(sh.g, in, out, e)
}
