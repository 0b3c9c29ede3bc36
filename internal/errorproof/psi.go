// Package errorproof implements the error-proof LCL Ψ of Section 4.4, its
// O(log n)-round verifier algorithm V of Section 4.5, and the node-edge
// checkable proof refinements of Section 4.6 (distance-2-coloring clash
// proofs and chain proofs).
//
// Ψ's outputs per node: GadOk, Error, or exactly one error pointer from
// {Right, Left, Parent, RChild, Up, Downᵢ}. A node must output Error
// exactly when its constant-radius neighborhood violates the gadget
// structure (Sections 4.2/4.3), and pointers must chain toward an Error
// according to constraints 3(a)-(f). On a valid gadget no all-error
// labeling satisfies the constraints (Lemma 9), so a solver cannot falsely
// claim invalidity.
package errorproof

import (
	"strconv"
	"strings"

	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Output labels of Ψ.
const (
	LabGadOk lcl.Label = "GadOk"
	LabError lcl.Label = "Error"
)

// Pointer output labels. PtrDown is parameterized via ErrDown.
const (
	PtrRight  lcl.Label = "Err:Right"
	PtrLeft   lcl.Label = "Err:Left"
	PtrParent lcl.Label = "Err:Parent"
	PtrRChild lcl.Label = "Err:RChild"
	PtrUp     lcl.Label = "Err:Up"
)

// ErrDown renders the Downᵢ error pointer.
func ErrDown(i int) lcl.Label { return lcl.Label("Err:Down:" + strconv.Itoa(i)) }

// ParseErrDown recognizes Downᵢ error pointers.
func ParseErrDown(l lcl.Label) (int, bool) {
	s := string(l)
	if !strings.HasPrefix(s, "Err:Down:") {
		return 0, false
	}
	i, err := strconv.Atoi(s[len("Err:Down:"):])
	if err != nil || i < 1 {
		return 0, false
	}
	return i, true
}

// IsErrorLabel reports whether the label belongs to LErr (anything but
// GadOk).
func IsErrorLabel(l lcl.Label) bool {
	if l == LabError {
		return true
	}
	switch l {
	case PtrRight, PtrLeft, PtrParent, PtrRChild, PtrUp:
		return true
	}
	_, down := ParseErrDown(l)
	return down
}

// Psi is the Ψ ne-LCL checker over a gadget-labeled graph: it validates a
// node-output labeling against constraints 1-3 of Section 4.4. Scope
// restricts it to gadget edges in padded graphs.
type Psi struct {
	Delta int
	Scope func(graph.EdgeID) bool
	// Inputs optionally carries the parsed node inputs of the input
	// labeling (see gadget.Checker.Inputs).
	Inputs *gadget.NodeInputs
	// Violated optionally carries the gadget-structure violations of the
	// input labeling (see StructureViolations), which constraint 2 reads;
	// nil checks the structure at each checked node.
	Violated []bool
}

var _ lcl.Problem = &Psi{}

// Name implements lcl.Problem.
func (p *Psi) Name() string { return "psi-gadget-errorproof" }

func (p *Psi) checker() *gadget.Checker {
	return &gadget.Checker{Delta: p.Delta, Scope: p.Scope, Inputs: p.Inputs}
}

// StructureViolations checks the gadget structure at every node of in
// once: entry v is true exactly when v's constant-radius neighborhood is
// inconsistent with a valid gadget. A Psi with these as Violated
// reports what it reports without them.
func (p *Psi) StructureViolations(g *graph.Graph, in *lcl.Labeling) []bool {
	return structureViolations(p.checker(), g, in)
}

// structureViolations reports, per node, whether ck rejects it.
func structureViolations(ck *gadget.Checker, g *graph.Graph, in *lcl.Labeling) []bool {
	bad := make([]bool, g.NumNodes())
	for v := range bad {
		bad[v] = ck.CheckNode(g, in, graph.NodeID(v)) != nil
	}
	return bad
}

// CheckNode implements lcl.Problem: constraints 1 and 2 (label well-
// formedness and Error-iff-local-violation) plus the pointer-target rules
// of constraint 3.
func (p *Psi) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	lab := out.Node[v]
	var structOK bool
	if p.Violated != nil {
		structOK = !p.Violated[v]
	} else {
		structOK = p.checker().CheckNode(g, in, v) == nil
	}

	// Constraint 2: Error exactly at local violations.
	if !structOK {
		if lab != LabError {
			return lcl.Violation(p.Name(), "node", int(v), "local structure violated but output is %q, want Error", lab)
		}
		return nil
	}
	if lab == LabError {
		return lcl.Violation(p.Name(), "node", int(v), "output Error on locally valid structure")
	}
	if lab == LabGadOk {
		return nil
	}

	// Constraint 1+3: exactly one pointer with a legal target.
	target, allowed, err := p.pointerRule(g, in, v, lab)
	if err != nil {
		return err
	}
	tl := out.Node[target]
	if tl == LabError {
		return nil
	}
	for _, a := range allowed {
		if tl == a {
			return nil
		}
	}
	// Downⱼ targets of Up pointers carry the j != i side condition and
	// are resolved inside pointerRule by returning allowed=nil plus a
	// sentinel; handle the Up case explicitly here.
	if lab == PtrUp {
		ni, perr := p.Inputs.Of(in, v)
		if perr == nil {
			if j, okd := ParseErrDown(tl); okd && j != ni.Index {
				return nil
			}
		}
		return lcl.Violation(p.Name(), "node", int(v), "Up pointer target outputs %q, want Error or Down_j (j != own index)", tl)
	}
	return lcl.Violation(p.Name(), "node", int(v), "pointer %q target outputs %q, want Error or one of %v", lab, tl, allowed)
}

// pointerRule resolves the pointer's target node and the pointer labels
// allowed there (besides Error), per constraints 3(a)-(f).
func (p *Psi) pointerRule(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, lab lcl.Label) (graph.NodeID, []lcl.Label, error) {
	follow := func(half lcl.Label) (graph.NodeID, bool) {
		for _, h := range g.Halves(v) {
			if p.Scope != nil && !p.Scope(h.Edge) {
				continue
			}
			if in.HalfOf(h) == half {
				return g.Edge(h.Edge).Other(h.Side).Node, true
			}
		}
		return v, false
	}
	bad := func(reason string) (graph.NodeID, []lcl.Label, error) {
		return 0, nil, lcl.Violation(p.Name(), "node", int(v), "%s", reason)
	}
	switch lab {
	case PtrRight:
		if w, ok := follow(gadget.LabRight); ok {
			return w, []lcl.Label{PtrRight}, nil
		}
		return bad("Right pointer without a Right edge")
	case PtrLeft:
		if w, ok := follow(gadget.LabLeft); ok {
			return w, []lcl.Label{PtrLeft}, nil
		}
		return bad("Left pointer without a Left edge")
	case PtrParent:
		if w, ok := follow(gadget.LabParent); ok {
			return w, []lcl.Label{PtrParent, PtrLeft, PtrRight, PtrUp}, nil
		}
		return bad("Parent pointer without a Parent edge")
	case PtrRChild:
		if w, ok := follow(gadget.LabRChild); ok {
			return w, []lcl.Label{PtrRChild, PtrRight, PtrLeft}, nil
		}
		return bad("RChild pointer without an RChild edge")
	case PtrUp:
		if w, ok := follow(gadget.LabUp); ok {
			return w, nil, nil // Down_j (j != i) handled by the caller
		}
		return bad("Up pointer without an Up edge")
	}
	if i, ok := ParseErrDown(lab); ok {
		if w, okf := follow(gadget.HalfDown(i)); okf {
			return w, []lcl.Label{PtrRChild}, nil
		}
		return bad("Down pointer without the matching Down edge")
	}
	return bad("output " + string(lab) + " is not a Ψ label")
}

// CheckEdge implements lcl.Problem; Ψ's constraints are node-based (the
// pointer-target rules read the neighbor across one edge, which the
// node-edge formalism permits).
func (p *Psi) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	return nil
}

// AllGadOk reports whether every node in the given set outputs GadOk.
func AllGadOk(out *lcl.Labeling, nodes []graph.NodeID) bool {
	for _, v := range nodes {
		if out.Node[v] != LabGadOk {
			return false
		}
	}
	return true
}
