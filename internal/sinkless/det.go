package sinkless

import (
	"errors"
	"fmt"

	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// ErrUnsolvable is returned when some connected component contains no
// cycle: a finite tree admits no sinkless orientation.
var ErrUnsolvable = errors.New("sinkless orientation unsolvable: component without a cycle")

// DetOptions tunes the deterministic solver.
type DetOptions struct {
	// MaxCycleLen truncates the per-node shortest-cycle search; -1 means
	// exact. On minimum-degree-3 graphs 4·log2(n)+4 is always enough.
	MaxCycleLen int
	// EnumCap bounds the canonical-cycle enumeration per local minimum.
	EnumCap int
}

// DefaultDetOptions are safe on all inputs (exact search).
func DefaultDetOptions() DetOptions {
	return DetOptions{MaxCycleLen: -1, EnumCap: 200000}
}

// DetSolver is the deterministic sinkless-orientation solver based on the
// cycle potential t(v) = min over cycles C of (dist(v,C)+|C|). Its charged
// locality at node v is t(v)+2, which is Θ(log n) on the hard families
// (any minimum-degree-3 graph has t(v) = O(log n)).
type DetSolver struct {
	Opts DetOptions
}

var _ lcl.Solver = &DetSolver{}

// NewDetSolver returns the solver with default options.
func NewDetSolver() *DetSolver { return &DetSolver{Opts: DefaultDetOptions()} }

// Name implements lcl.Solver.
func (s *DetSolver) Name() string { return "sinkless-det-cyclepotential" }

// Randomized implements lcl.Solver.
func (s *DetSolver) Randomized() bool { return false }

// Solve implements lcl.Solver. The input labeling is ignored (sinkless
// orientation has no inputs); seed is ignored (deterministic).
func (s *DetSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	n := g.NumNodes()
	cost := lcl.NewCost(n)
	sc := g.ShortestCycles(s.Opts.MaxCycleLen)
	t := g.PropagatePotential(sc)
	for v := 0; v < n; v++ {
		if t[v] >= graph.Unreachable && g.Degree(graph.NodeID(v)) > 0 {
			return nil, nil, fmt.Errorf("node %d: %w", v, ErrUnsolvable)
		}
	}

	claims, err := s.computeClaims(g, sc, t)
	if err != nil {
		return nil, nil, err
	}

	out, err := resolveClaims(g, claims)
	if err != nil {
		return nil, nil, err
	}
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) > 0 {
			cost.Charge(graph.NodeID(v), t[v]+2)
		}
	}
	return out, cost, nil
}

// computeClaims assigns each non-isolated node the half-edge it claims as
// outgoing. Descent nodes point toward their minimal strictly-smaller-t
// neighbor; local minima orient the canonical shortest cycle through
// themselves.
func (s *DetSolver) computeClaims(g *graph.Graph, sc, t []int) (map[graph.NodeID]graph.Half, error) {
	n := g.NumNodes()
	claims := make(map[graph.NodeID]graph.Half, n)
	for vi := 0; vi < n; vi++ {
		v := graph.NodeID(vi)
		if g.Degree(v) == 0 {
			continue
		}
		bestHalf, found := s.descentClaim(g, t, v)
		if found {
			claims[v] = bestHalf
			continue
		}
		// Local minimum: t(v) must equal sc(v) (it lies on its own
		// optimal cycle; see package docs).
		if t[vi] != sc[vi] {
			return nil, fmt.Errorf("internal: local minimum %d has t=%d but sc=%d", v, t[vi], sc[vi])
		}
		cyc, err := g.CanonicalShortestCycleThrough(v, sc[vi], s.Opts.EnumCap)
		if err != nil {
			return nil, fmt.Errorf("canonical cycle at local minimum %d: %w", v, err)
		}
		h, err := exitHalfAt(g, cyc, v)
		if err != nil {
			return nil, err
		}
		claims[v] = h
	}
	return claims, nil
}

// descentClaim returns the half-edge toward the minimal strictly-smaller-t
// neighbor, using (t, neighbor identifier, port) as the canonical
// tie-break, or found=false for local minima.
func (s *DetSolver) descentClaim(g *graph.Graph, t []int, v graph.NodeID) (graph.Half, bool) {
	var best graph.Half
	bestT := t[v]
	var bestID int64
	found := false
	for _, h := range g.Halves(v) {
		u := g.Edge(h.Edge).Other(h.Side).Node
		if t[u] >= t[v] {
			continue
		}
		uid := g.ID(u)
		if !found || t[u] < bestT || (t[u] == bestT && uid < bestID) {
			best, bestT, bestID, found = h, t[u], uid, true
		}
	}
	return best, found
}

// exitHalfAt finds the half-edge by which the canonical traversal of cyc
// leaves node v. Simple cycles visit v exactly once.
func exitHalfAt(g *graph.Graph, cyc graph.Cycle, v graph.NodeID) (graph.Half, error) {
	for _, h := range cyc.Walk {
		if g.HalfNode(h) == v {
			return h, nil
		}
	}
	return graph.Half{}, fmt.Errorf("internal: node %d not on its canonical cycle", v)
}

// resolveClaims turns per-node out-claims into a full orientation. Claims
// are conflict-free by construction; a detected conflict is an internal
// error. Unclaimed edges orient from the larger-identifier endpoint.
func resolveClaims(g *graph.Graph, claims map[graph.NodeID]graph.Half) (*lcl.Labeling, error) {
	out := lcl.NewLabeling(g)
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		hu := graph.Half{Edge: e, Side: graph.SideU}
		hv := graph.Half{Edge: e, Side: graph.SideV}
		claimU := claims[ed.U.Node] == hu
		claimV := claims[ed.V.Node] == hv
		var outSide graph.Side
		switch {
		case claimU && claimV && ed.U.Node != ed.V.Node:
			return nil, fmt.Errorf("internal: claim conflict on edge %d between nodes %d and %d",
				e, ed.U.Node, ed.V.Node)
		case claimU:
			outSide = graph.SideU
		case claimV:
			outSide = graph.SideV
		default:
			if g.ID(ed.U.Node) >= g.ID(ed.V.Node) {
				outSide = graph.SideU
			} else {
				outSide = graph.SideV
			}
		}
		if outSide == graph.SideU {
			out.SetHalf(hu, LabelOut)
			out.SetHalf(hv, LabelIn)
		} else {
			out.SetHalf(hu, LabelIn)
			out.SetHalf(hv, LabelOut)
		}
	}
	return out, nil
}
