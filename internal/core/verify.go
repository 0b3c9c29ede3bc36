package core

import (
	"fmt"

	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// VerifyPadded validates a Π′ output end to end: first the local
// constraints 1-6 via the ne-LCL checker, then — whenever the inner
// problem is not star-checkable (e.g. it is itself a PiPrime) — the
// virtual-graph semantics: it reconstructs H and the inner labelings from
// the Σlist labels and verifies the inner problem there, recursing
// through padded levels. It decodes in and out once per call.
func VerifyPadded(g *graph.Graph, p *PiPrime, in, out *lcl.Labeling) error {
	return (&paddedCheck{p: p}).verify(g, in, out)
}

// Verifier returns VerifyPadded bound to the instance (g, in), for a
// caller that checks many outputs of one input: it decodes in and checks
// the gadget structure at every node once, and each call of the returned
// function decodes and checks only its output, in full. in must not
// change while the verifier is in use. Calls only read the held input
// projection, so they may run concurrently.
func (p *PiPrime) Verifier(g *graph.Graph, in *lcl.Labeling) func(out *lcl.Labeling) error {
	check := p.SeededVerifier(g, in)
	return func(out *lcl.Labeling) error { return check(out, nil) }
}

// SeededVerifier is Verifier for outputs of padded solves: a call also
// takes the label table the solve assembled out through (Detail.Labels,
// or nil) and decodes out through it, so the labels assembly composed
// are not decoded again. The table is keyed by label bytes, so a label
// assembly did not compose, or one changed since, is decoded from its
// bytes, and every call returns exactly what Verifier's does. A call
// adds its decodes to the table: concurrent calls need distinct tables.
func (p *PiPrime) SeededVerifier(g *graph.Graph, in *lcl.Labeling) func(out *lcl.Labeling, labels *OutputLabels) error {
	var pin *projIn
	// A mis-shaped input is left to each call's lcl.Verify to report.
	if lcl.CheckShape(g, in) == nil {
		pin = p.projectInput(g, in)
	}
	return func(out *lcl.Labeling, labels *OutputLabels) error {
		return (&paddedCheck{p: p, pin: pin, seed: (*labelTable)(labels)}).verify(g, in, out)
	}
}

// verify is VerifyPadded through c. Nested levels verify their
// reconstructed virtual graphs one-shot.
func (c *paddedCheck) verify(g *graph.Graph, in, out *lcl.Labeling) error {
	p := c.p
	if err := lcl.Verify(g, c, in, out); err != nil {
		return err
	}
	if StarCheckable(p.Inner) {
		// Constraint 5/6 virtual checks already ran on stars; the
		// reconstruction below would only repeat them.
		return nil
	}
	vg, _, virtOut, err := c.reconstruct(g, in, out)
	if err != nil {
		return fmt.Errorf("verify padded reconstruction: %w", err)
	}
	if vg.NumVirtualNodes() == 0 {
		return nil
	}
	if inner, ok := p.Inner.(*PiPrime); ok {
		return VerifyPadded(vg.H, inner, vg.In, virtOut)
	}
	return lcl.Verify(vg.H, p.Inner, vg.In, virtOut)
}

// ReconstructVirtual rebuilds the virtual graph H together with the inner
// input and output labelings from a Π′ instance and its output labeling.
func ReconstructVirtual(g *graph.Graph, p *PiPrime, in, out *lcl.Labeling) (*VirtualGraph, *lcl.Labeling, *lcl.Labeling, error) {
	return (&paddedCheck{p: p}).reconstruct(g, in, out)
}

// reconstruct is ReconstructVirtual reading c's projections, which the
// constraint checks of the same verification already built.
func (c *paddedCheck) reconstruct(g *graph.Graph, in, out *lcl.Labeling) (*VirtualGraph, *lcl.Labeling, *lcl.Labeling, error) {
	p := c.p
	pin := c.inputs(g, in)
	if pin.err != nil {
		return nil, nil, nil, pin.err
	}
	pout := c.outputs(g, out)
	for v, err := range pout.errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("node %d output: %w", v, err)
		}
	}
	vg, err := buildVirtual(g, pin.padInputs, pout.psi.Node, pout.portErr, p.Delta)
	if err != nil {
		return nil, nil, nil, err
	}
	if vg.NumVirtualNodes() == 0 {
		return vg, nil, nil, nil
	}
	lab := pout.labels.label
	virtOut := lcl.NewLabeling(vg.H)
	for vi, ci := range vg.CompOfVirt {
		rep := vg.Comps[ci][0]
		sl, err := pout.sigmaAt(rep, p.Delta)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("component %d Σlist: %w", ci, err)
		}
		virtOut.Node[vi] = lab(sl.OV)
		for i := 1; i <= p.Delta; i++ {
			pn := vg.PortNode[ci][i-1]
			if pn < 0 || pout.portErr[pn] != NoPortErr {
				continue
			}
			for _, h := range g.Halves(pn) {
				if pin.scope(h.Edge) {
					continue
				}
				ve, ok := vg.VEdgeOf[h.Edge]
				if !ok {
					continue
				}
				virtOut.Edge[ve] = lab(sl.OE[i-1])
				virtOut.SetHalf(graph.Half{Edge: ve, Side: h.Side}, lab(sl.OB[i-1]))
			}
		}
	}
	return vg, vg.In, virtOut, nil
}

// DescribeInstance summarizes a padded instance for reports: sizes,
// dilation, and gadget statistics.
func DescribeInstance(pi *PaddedInstance) string {
	return fmt.Sprintf("padded: base n=%d (Δ=%d), gadget height=%d (%d nodes each), padded N=%d, dilation=%d, corrupted=%d, isolated=%d",
		pi.Base.NumNodes(), pi.Opts.Delta, pi.Opts.GadgetHeight,
		gadget.GadgetSize(uniformHeightsFor(pi.Opts.Delta, pi.Opts.GadgetHeight)),
		pi.G.NumNodes(), pi.Dilation(), len(pi.Opts.CorruptGadgets), pi.Opts.IsolatedPadding)
}

func uniformHeightsFor(delta, h int) []int {
	hs := make([]int, delta)
	for i := range hs {
		hs[i] = h
	}
	return hs
}
