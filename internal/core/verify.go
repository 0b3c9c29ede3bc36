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
// through padded levels.
func VerifyPadded(g *graph.Graph, p *PiPrime, in, out *lcl.Labeling) error {
	if err := lcl.Verify(g, p, in, out); err != nil {
		return err
	}
	if StarCheckable(p.Inner) {
		// Constraint 5/6 virtual checks already ran on stars; the
		// reconstruction below would only repeat them.
		return nil
	}
	vg, _, virtOut, err := ReconstructVirtual(g, p, in, out)
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
// It reads the labelings through p's decoded projections, which the
// constraint checks of the same verification already built.
func ReconstructVirtual(g *graph.Graph, p *PiPrime, in, out *lcl.Labeling) (*VirtualGraph, *lcl.Labeling, *lcl.Labeling, error) {
	pin := p.inputs(g, in)
	if pin.err != nil {
		return nil, nil, nil, pin.err
	}
	pout := p.outputs(g, out)
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
