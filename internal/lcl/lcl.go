// Package lcl defines node-edge-checkable LCL problems (ne-LCLs) exactly as
// in Section 2 of the paper: inputs and outputs are labels from
// constant-size alphabets placed on nodes, edges, and half-edges (the set
// B of incident node-edge pairs), and correctness decomposes into a node
// constraint checked at every node and an edge constraint checked at every
// edge.
package lcl

import (
	"fmt"

	"locallab/internal/graph"
)

// Label is one label value. Alphabets are constant-size sets of Labels;
// the empty string is the conventional "empty label".
type Label string

// Labeling assigns one label to every node, edge, and half-edge of a
// graph. A zero label means "empty".
type Labeling struct {
	Node []Label // indexed by graph.NodeID
	Edge []Label // indexed by graph.EdgeID
	Half []Label // indexed by graph.Half.Index()
}

// NewLabeling allocates an all-empty labeling shaped for g.
func NewLabeling(g *graph.Graph) *Labeling {
	return &Labeling{
		Node: make([]Label, g.NumNodes()),
		Edge: make([]Label, g.NumEdges()),
		Half: make([]Label, g.NumHalves()),
	}
}

// Clone deep-copies the labeling.
func (l *Labeling) Clone() *Labeling {
	c := &Labeling{
		Node: make([]Label, len(l.Node)),
		Edge: make([]Label, len(l.Edge)),
		Half: make([]Label, len(l.Half)),
	}
	copy(c.Node, l.Node)
	copy(c.Edge, l.Edge)
	copy(c.Half, l.Half)
	return c
}

// HalfOf returns the label on half-edge h.
func (l *Labeling) HalfOf(h graph.Half) Label { return l.Half[h.Index()] }

// SetHalf sets the label on half-edge h.
func (l *Labeling) SetHalf(h graph.Half, lab Label) { l.Half[h.Index()] = lab }

// ViolationError reports a constraint violation with its location; it is
// the error type returned by Verify so tests can inspect where checking
// failed.
type ViolationError struct {
	Problem string
	Where   string // "node" or "edge"
	Index   int
	Reason  string
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("%s: %s %d violates constraint: %s", e.Problem, e.Where, e.Index, e.Reason)
}

// Violation constructs a ViolationError; helpers for Problem
// implementations.
func Violation(problem, where string, index int, format string, args ...interface{}) error {
	return &ViolationError{Problem: problem, Where: where, Index: index, Reason: fmt.Sprintf(format, args...)}
}

// Problem is an ne-LCL: a node constraint C_V and an edge constraint C_E
// over input and output labelings. Constraints must depend only on the
// labels of the constant-radius environment they are given (node: the
// node, its incident edges and half-edges; edge: the edge, its endpoints,
// and its two half-edges) — never on identifiers, which keeps them legal
// LCL constraints.
type Problem interface {
	// Name identifies the problem in errors and reports.
	Name() string
	// CheckNode verifies the node constraint at v.
	CheckNode(g *graph.Graph, in, out *Labeling, v graph.NodeID) error
	// CheckEdge verifies the edge constraint at e.
	CheckEdge(g *graph.Graph, in, out *Labeling, e graph.EdgeID) error
}

// Verify runs the distributed checker centrally: every node and edge
// constraint is evaluated, and the first violation is returned. A correct
// solution passes everywhere (the checker "accepts on all nodes").
func Verify(g *graph.Graph, p Problem, in, out *Labeling) error {
	if err := CheckShape(g, in); err != nil {
		return fmt.Errorf("%s input labeling: %w", p.Name(), err)
	}
	if err := CheckShape(g, out); err != nil {
		return fmt.Errorf("%s output labeling: %w", p.Name(), err)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if err := p.CheckNode(g, in, out, v); err != nil {
			return err
		}
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if err := p.CheckEdge(g, in, out, e); err != nil {
			return err
		}
	}
	return nil
}

// CheckShape reports whether l has one label per node, edge and half-edge
// of g, as Verify requires of both labelings.
func CheckShape(g *graph.Graph, l *Labeling) error {
	if l == nil {
		return fmt.Errorf("labeling is nil")
	}
	if len(l.Node) != g.NumNodes() || len(l.Edge) != g.NumEdges() || len(l.Half) != g.NumHalves() {
		return fmt.Errorf("labeling shape (%d,%d,%d) does not match graph (%d,%d,%d)",
			len(l.Node), len(l.Edge), len(l.Half), g.NumNodes(), g.NumEdges(), g.NumHalves())
	}
	return nil
}

// Solver produces an output labeling for a problem on a given instance.
// Solve returns the labeling together with the locality cost it charged;
// the cost's Rounds() is the execution's round complexity in the LOCAL
// model.
type Solver interface {
	// Name identifies the solver in reports.
	Name() string
	// Randomized reports whether the solver consumes randomness.
	Randomized() bool
	// Solve computes an output labeling. seed feeds per-node randomness
	// for randomized solvers and is ignored by deterministic ones.
	Solve(g *graph.Graph, in *Labeling, seed int64) (*Labeling, *Cost, error)
}
