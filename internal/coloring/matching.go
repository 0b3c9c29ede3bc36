package coloring

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Maximal matching labels.
const (
	Matched   lcl.Label = "matched"
	Free      lcl.Label = "free"
	MatchEdge lcl.Label = "m"
)

// MaximalMatching is the maximal matching ne-LCL: edges are matched or
// not; every node has at most one matched edge; matched nodes say so; and
// no edge connects two free nodes (maximality). Θ(log* n) on cycles.
type MaximalMatching struct{}

var _ lcl.Problem = MaximalMatching{}

// Name implements lcl.Problem.
func (MaximalMatching) Name() string { return "maximal-matching-cycle" }

// CheckNode verifies the node's label against its matched-edge count.
func (MaximalMatching) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	// Count incident matched edges; a matched self-loop counts twice and
	// is also rejected by the edge constraint.
	matched := 0
	for _, h := range g.Halves(v) {
		if out.Edge[h.Edge] == MatchEdge {
			matched++
		}
	}
	switch out.Node[v] {
	case Matched:
		if matched != 1 {
			return lcl.Violation("maximal-matching-cycle", "node", int(v), "labeled matched but %d matched edges", matched)
		}
	case Free:
		if matched != 0 {
			return lcl.Violation("maximal-matching-cycle", "node", int(v), "labeled free but %d matched edges", matched)
		}
	default:
		return lcl.Violation("maximal-matching-cycle", "node", int(v), "label %q", out.Node[v])
	}
	return nil
}

// CheckEdge verifies per-edge consistency and maximality.
func (MaximalMatching) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	ed := g.Edge(e)
	if out.Edge[e] == MatchEdge {
		if ed.U.Node == ed.V.Node {
			return lcl.Violation("maximal-matching-cycle", "edge", int(e), "self-loop matched")
		}
		if out.Node[ed.U.Node] != Matched || out.Node[ed.V.Node] != Matched {
			return lcl.Violation("maximal-matching-cycle", "edge", int(e), "matched edge with non-matched endpoint")
		}
		return nil
	}
	if out.Node[ed.U.Node] == Free && out.Node[ed.V.Node] == Free && ed.U.Node != ed.V.Node {
		return lcl.Violation("maximal-matching-cycle", "edge", int(e), "two free endpoints: matching not maximal")
	}
	return nil
}

// MatchingSolver computes a maximal matching on cycles by 3-coloring
// (Cole–Vishkin) followed by a constant number of proposal sweeps over
// the color classes. Θ(log* n).
type MatchingSolver struct {
	// Engine is the execution engine of the underlying coloring stage;
	// nil means engine.Options{}.
	Engine *engine.Engine
	// MaxSweeps caps the proposal sweeps (3 suffice on cycles; the cap
	// guards adversarial inputs).
	MaxSweeps int
}

var _ lcl.Solver = &MatchingSolver{}

// NewMatchingSolver returns the solver.
func NewMatchingSolver() *MatchingSolver {
	return &MatchingSolver{MaxSweeps: 20}
}

// Name implements lcl.Solver.
func (s *MatchingSolver) Name() string { return "cycle-matching-via-coloring" }

// Randomized implements lcl.Solver.
func (s *MatchingSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (s *MatchingSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	colored, cost, err := colorCycles(s.Engine, g, in, seed)
	if err != nil {
		return nil, nil, err
	}
	out := lcl.NewLabeling(g)
	matchedTo := make([]graph.EdgeID, g.NumNodes())
	for i := range matchedTo {
		matchedTo[i] = -1
	}
	extra := 0
	for sweep := 0; sweep < s.MaxSweeps; sweep++ {
		progress := false
		for _, class := range []lcl.Label{Color1, Color2, Color3} {
			extra++
			// Proposals: unmatched class nodes propose to an unmatched
			// neighbor (smallest port). Targets accept the proposer with
			// the smallest identifier.
			accepted := make(map[graph.NodeID]graph.NodeID) // target -> proposer
			propEdge := make(map[[2]graph.NodeID]graph.EdgeID)
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if colored.Node[v] != class || matchedTo[v] >= 0 {
					continue
				}
				for _, h := range g.Halves(v) {
					u := g.Edge(h.Edge).Other(h.Side).Node
					if u == v || matchedTo[u] >= 0 {
						continue
					}
					prev, taken := accepted[u]
					if !taken || g.ID(v) < g.ID(prev) {
						accepted[u] = v
						propEdge[[2]graph.NodeID{u, v}] = h.Edge
					}
					break
				}
			}
			for u, v := range accepted {
				if matchedTo[u] >= 0 || matchedTo[v] >= 0 {
					continue
				}
				e := propEdge[[2]graph.NodeID{u, v}]
				matchedTo[u], matchedTo[v] = e, e
				out.Edge[e] = MatchEdge
				progress = true
			}
		}
		if !hasFreePair(g, matchedTo) {
			break
		}
		if !progress {
			return nil, nil, fmt.Errorf("matching: no progress with free pairs left")
		}
	}
	if hasFreePair(g, matchedTo) {
		return nil, nil, fmt.Errorf("matching: sweep cap %d exceeded", s.MaxSweeps)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if matchedTo[v] >= 0 {
			out.Node[v] = Matched
		} else {
			out.Node[v] = Free
		}
		cost.Charge(v, cost.Radius(v)+extra)
	}
	return out, cost, nil
}

// hasFreePair reports whether some non-loop edge has two unmatched
// endpoints.
func hasFreePair(g *graph.Graph, matchedTo []graph.EdgeID) bool {
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		if ed.U.Node != ed.V.Node && matchedTo[ed.U.Node] < 0 && matchedTo[ed.V.Node] < 0 {
			return true
		}
	}
	return false
}
