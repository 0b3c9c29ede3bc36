// Package locallab is a LOCAL-model laboratory for locally checkable
// labeling problems (LCLs). It reproduces "How much does randomness help
// with locally checkable problems?" (Balliu, Brandt, Olivetti, Suomela;
// PODC 2020): the padding transform that turns the exponential
// deterministic/randomized gap of sinkless orientation into the first
// known *polynomial* gaps — LCLs Πᵢ with deterministic complexity
// Θ(logⁱ n) and randomized complexity Θ(logⁱ⁻¹ n · log log n).
//
// The facade re-exports the library's main entry points; the
// implementation lives in the internal packages:
//
//	internal/graph       bounded-degree multigraph substrate
//	internal/engine      sharded LOCAL-model message-passing runtime
//	internal/lcl         the ne-LCL formalism, checker and locality cost
//	internal/sinkless    sinkless orientation (Π₁) and its two solvers
//	internal/coloring    Figure-1 baselines (Cole–Vishkin, MIS, ...)
//	internal/gadget      the (log, Δ)-gadget family (Section 4)
//	internal/errorproof  the error-proof LCL Ψ, verifier V, and its engine machines (§4.4–4.6)
//	internal/core        padded problems Π′, sequential + engine solvers, hierarchy (§3, §5)
//	internal/solver      the unified solver registry consumed by every tool
//	internal/measure     sweeps, growth fitting, tables
//	internal/experiments one experiment per paper figure/theorem
//
// Quick start:
//
//	g, _ := locallab.NewRandomRegular(512, 3, 42, false)
//	in := locallab.NewLabeling(g)
//	out, cost, _ := locallab.NewSinklessDetSolver().Solve(g, in, 0)
//	err := locallab.Verify(g, locallab.SinklessOrientation(), in, out)
//	fmt.Println(cost.Rounds(), err)
package locallab

import (
	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/errorproof"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/measure"
	"locallab/internal/sinkless"
)

// Structural substrate.
type (
	// Graph is a bounded-degree multigraph with port numbering;
	// self-loops, parallel edges, and disconnected graphs are allowed,
	// as the paper's model requires.
	Graph = graph.Graph
	// Builder assembles graphs.
	Builder = graph.Builder
	// NodeID, EdgeID and Half address nodes, edges and half-edges.
	NodeID = graph.NodeID
	// EdgeID addresses edges.
	EdgeID = graph.EdgeID
	// Half addresses a node-edge pair (an element of B).
	Half = graph.Half
)

// LCL formalism.
type (
	// Label is one input or output label.
	Label = lcl.Label
	// Labeling assigns labels to nodes, edges and half-edges.
	Labeling = lcl.Labeling
	// Problem is a node-edge-checkable LCL.
	Problem = lcl.Problem
	// Solver computes outputs with LOCAL-model round accounting.
	Solver = lcl.Solver
	// Cost tracks per-node charged locality.
	Cost = lcl.Cost
)

// Padding machinery (the paper's contribution).
type (
	// PiPrime is the padded problem Π′ of Section 3.3.
	PiPrime = core.PiPrime
	// PaddedSolver is the Lemma-4 algorithm (sequential oracle).
	PaddedSolver = core.PaddedSolver
	// EnginePaddedSolver is the Lemma-4 algorithm executing as
	// message-passing machines on the sharded engine.
	EnginePaddedSolver = core.EnginePaddedSolver
	// PaddedInstance is a graph from the family G(G) of Definition 3.
	PaddedInstance = core.PaddedInstance
	// PadOptions configures padded-instance construction.
	PadOptions = core.PadOptions
	// HierarchyLevel bundles Πᵢ with its solvers (Theorem 11).
	HierarchyLevel = core.Level
	// Gadget is a member of the (log, Δ)-gadget family.
	Gadget = gadget.Gadget
	// GadgetVerifier is the O(log n) error-proof verifier V.
	GadgetVerifier = errorproof.Verifier
)

// Graph generators.
var (
	// NewCycle builds C_n.
	NewCycle = graph.NewCycle
	// NewPath builds P_n.
	NewPath = graph.NewPath
	// NewRandomRegular builds a random d-regular (multi)graph.
	NewRandomRegular = graph.NewRandomRegular
	// NewBitrevTree builds the deterministic hard family for sinkless
	// orientation.
	NewBitrevTree = graph.NewBitrevTree
	// NewTorus builds the 2D torus.
	NewTorus = graph.NewTorus
	// NewHypercube builds the d-dimensional hypercube.
	NewHypercube = graph.NewHypercube
)

// NewLabeling allocates an empty labeling for g.
func NewLabeling(g *Graph) *Labeling { return lcl.NewLabeling(g) }

// Verify runs the distributed ne-LCL checker.
func Verify(g *Graph, p Problem, in, out *Labeling) error { return lcl.Verify(g, p, in, out) }

// SinklessOrientation returns the Π₁ problem (Figure 3).
func SinklessOrientation() Problem { return sinkless.Problem{} }

// NewSinklessDetSolver returns the deterministic Θ(log n)-shaped solver.
func NewSinklessDetSolver() Solver { return sinkless.NewDetSolver() }

// NewSinklessRandSolver returns the randomized Θ(log log n)-shaped solver.
func NewSinklessRandSolver() Solver { return sinkless.NewRandSolver() }

// ThreeColoringCycles returns the Θ(log* n) baseline problem.
func ThreeColoringCycles() Problem { return coloring.Three{} }

// NewColeVishkinSolver returns the Cole–Vishkin cycle 3-coloring solver
// running as message-passing machines on the engine.
func NewColeVishkinSolver() Solver { return coloring.NewCVSolver() }

// NewGadget builds a (log, Δ)-family gadget with uniform sub-gadget
// heights.
func NewGadget(delta, height int) (*Gadget, error) { return gadget.BuildUniform(delta, height) }

// ValidateGadget checks the Section 4.2/4.3 structure constraints.
func ValidateGadget(g *Graph, in *Labeling, delta int) error { return gadget.Validate(g, in, delta) }

// NewPadded builds a padded instance per Definition 3.
func NewPadded(base *Graph, baseIn *Labeling, opts PadOptions) (*PaddedInstance, error) {
	return core.BuildPadded(base, baseIn, opts)
}

// NewHierarchyLevel returns the Πᵢ machinery of Theorem 11.
func NewHierarchyLevel(i int) (*HierarchyLevel, error) { return core.NewLevel(i) }

// NewHierarchyInstance builds a Πᵢ worst-case instance (Lemma 5 balance
// with Balanced: true).
func NewHierarchyInstance(level int, opts core.InstanceOptions) (*core.Instance, error) {
	return core.BuildInstance(level, opts)
}

// VerifyPadded validates a Π′ output end to end, recursing through
// hierarchy levels.
func VerifyPadded(g *Graph, p *PiPrime, in, out *Labeling) error {
	return core.VerifyPadded(g, p, in, out)
}

// BestFit fits measured rounds against the paper's growth classes.
var BestFit = measure.BestFit

// Sweep measures a solver across instance sizes, running up to workers
// (size × seed) cells at once; the series is the same at every width.
var Sweep = measure.Sweep
