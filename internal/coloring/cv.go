package coloring

import (
	"fmt"
	"math/bits"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// reductionSchedule computes the shared width schedule from the identifier
// width: W -> bitlen((2W)^2) until it stabilizes. All nodes derive the
// same schedule, so they stay in lockstep without coordination.
func reductionSchedule(idWidth int) []int {
	var sched []int
	w := idWidth
	for {
		sched = append(sched, w)
		next := bits.Len64(uint64(2*w) * uint64(2*w))
		if next >= w {
			return sched
		}
		w = next
	}
}

// cvMsg is what the Cole–Vishkin machines exchange through the engine
// core's flat []cvMsg planes: the current color and the sender's
// identifier (for elimination tie-breaks).
type cvMsg struct {
	Color int64
	ID    int64
}

// cvSchedule is the shared reduction-width schedule. It depends only on
// the 63-bit identifier width, so all machines share one package-level
// copy and track their position with an index.
var cvSchedule = reductionSchedule(63)

// cvTypedMachine runs the two-port Cole–Vishkin tuple reduction on
// cycles: in each reduction round a node replaces its color by the pair
// of (first-differing-bit index, own bit) tuples against both neighbors,
// shrinking the palette from 2^W to (2W)^2; properness is preserved
// against both neighbors. After the fixed schedule, surviving colors > 3
// are eliminated greedily: local (color, ID)-maxima among big-colored
// nodes recolor into {1,2,3}. It allocates nothing anywhere (Init
// included).
type cvTypedMachine struct {
	id       int64
	color    int64
	schedIdx int
	nbrs     [2]cvMsg
	haveNbrs bool
	started  bool
}

var _ engine.TypedMachine[cvMsg] = (*cvTypedMachine)(nil)

func (m *cvTypedMachine) Init(info engine.NodeInfo) {
	m.id = info.ID
	m.color = info.ID // initial coloring: identifiers (proper by uniqueness)
	m.schedIdx = 0
	m.haveNbrs = false
	m.started = false
}

func (m *cvTypedMachine) Round(recv, send []cvMsg) bool {
	if m.started {
		// From the second round on both ports always carry a fresh
		// neighbor message (every machine sends on every port every
		// round), so no presence probing is needed.
		m.nbrs[0] = recv[0]
		m.nbrs[1] = recv[1]
		m.haveNbrs = true
		m.step()
	}
	m.started = true
	out := cvMsg{Color: m.color, ID: m.id}
	send[0] = out
	send[1] = out
	return m.haveNbrs && m.color <= 3 && m.nbrs[0].Color <= 3 && m.nbrs[1].Color <= 3
}

// step performs one state transition given fresh neighbor colors.
func (m *cvTypedMachine) step() {
	if m.schedIdx < len(cvSchedule)-1 {
		w := cvSchedule[m.schedIdx]
		m.schedIdx++
		v0 := tupleAgainst(m.color, m.nbrs[0].Color, w)
		v1 := tupleAgainst(m.color, m.nbrs[1].Color, w)
		m.color = int64(v0)*int64(2*w) + int64(v1) + 4 // +4 keeps reduction colors out of the final palette
		return
	}
	// Elimination phase: recolor if > 3 and locally maximal by
	// (color, ID) among big-colored nodes.
	if m.color <= 3 {
		return
	}
	for _, nb := range m.nbrs {
		if nb.Color > m.color || (nb.Color == m.color && nb.ID > m.id) {
			return // a bigger neighbor goes first
		}
	}
	for c := int64(1); c <= 3; c++ {
		if c != m.nbrs[0].Color && c != m.nbrs[1].Color {
			m.color = c
			return
		}
	}
}

// tupleAgainst encodes (first differing bit index, own bit) against one
// neighbor color, a value in [0, 2w).
func tupleAgainst(own, other int64, w int) int {
	diff := uint64(own ^ other)
	i := bits.TrailingZeros64(diff)
	if diff == 0 || i >= w {
		i = w - 1 // cannot happen between properly colored neighbors; defensive
	}
	b := int((own >> uint(i)) & 1)
	return 2*i + b
}

// CVSolver three-colors disjoint unions of simple cycles with the
// Cole–Vishkin machine on the synchronous runtime; the measured rounds
// follow the Θ(log* n) class (a constant for all feasible n, since the
// reduction schedule collapses any 63-bit palette in four steps).
//
// Solve runs cvTypedMachine on the engine core as a one-shot session —
// zero steady-state allocations end to end. The root determinism grid
// pins its labelings and rounds to a fixed table for every engine
// geometry, and the in-package reference test pins it to
// engine.RunReference.
type CVSolver struct {
	// MaxRounds caps the runtime (elimination chains are short in
	// practice; the cap only guards against adversarial inputs).
	MaxRounds int
	// Engine is the execution engine; nil means engine.Options{}.
	Engine *engine.Engine
}

var _ lcl.Solver = &CVSolver{}

// NewCVSolver returns a solver with a generous round cap.
func NewCVSolver() *CVSolver { return &CVSolver{MaxRounds: 1 << 20} }

// Name implements lcl.Solver.
func (s *CVSolver) Name() string { return "cycle-3coloring-cole-vishkin" }

// Randomized implements lcl.Solver.
func (s *CVSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (s *CVSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	cs, err := s.NewSession(g)
	if err != nil {
		return nil, nil, err
	}
	defer cs.Close()
	out, cost, _, err := cs.Run(in, seed)
	return out, cost, err
}

// cvFinish validates the final palette and assembles the labeling and
// cost.
func cvFinish(g *graph.Graph, colors []int64, rounds int) (*lcl.Labeling, *lcl.Cost, error) {
	out := lcl.NewLabeling(g)
	for v, c := range colors {
		if c < 1 || c > 3 {
			return nil, nil, fmt.Errorf("cole-vishkin: node %d finished with color %d", v, c)
		}
		out.Node[v] = ColorLabel(int(c))
	}
	cost := lcl.NewCost(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		cost.Charge(graph.NodeID(v), rounds)
	}
	return out, cost, nil
}

// CVSession holds a Cole–Vishkin execution on one cycle graph: the typed
// machines and the engine session (flat message planes, shard table,
// worker pool) are allocated once and reused across Runs through
// engine.Session.Reset, so repeated solves of the same instance skip all
// session construction. Not safe for concurrent use.
type CVSession struct {
	g         *graph.Graph
	maxRounds int
	machines  []cvTypedMachine
	sess      *engine.Session[cvMsg]
}

// NewSession holds a Cole–Vishkin execution on g under the solver's
// engine and round cap.
func (s *CVSolver) NewSession(g *graph.Graph) (*CVSession, error) {
	if err := RequireCycleGraph(g); err != nil {
		return nil, fmt.Errorf("cole-vishkin: %w", err)
	}
	n := g.NumNodes()
	cs := &CVSession{g: g, maxRounds: s.MaxRounds, machines: make([]cvTypedMachine, n)}
	typed := make([]engine.TypedMachine[cvMsg], n)
	for v := range typed {
		typed[v] = &cs.machines[v]
	}
	sess, err := engine.NewSession(s.Engine.Options(), g, typed)
	if err != nil {
		return nil, err
	}
	cs.sess = sess
	return cs, nil
}

// Run solves the held graph as CVSolver.Solve does and returns the
// engine profile of this execution beside the labeling. The input
// labeling is unused (the problem has no input labels) and the seed is
// ignored by this deterministic solver.
func (cs *CVSession) Run(_ *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, engine.Stats, error) {
	stats, err := cs.sess.Run(seed, false, cs.maxRounds)
	if err != nil {
		return nil, nil, engine.Stats{}, fmt.Errorf("cole-vishkin runtime: %w", err)
	}
	colors := make([]int64, len(cs.machines))
	for v := range cs.machines {
		colors[v] = cs.machines[v].color
	}
	out, cost, err := cvFinish(cs.g, colors, stats.Rounds)
	return out, cost, stats, err
}

// Close releases the held engine session's worker pool.
func (cs *CVSession) Close() { cs.sess.Close() }

// MISSolver computes a maximal independent set on cycles by reducing to
// 3-coloring and then two greedy rounds (color class 1 joins; classes 2
// and 3 join when no earlier neighbor joined). Θ(log* n).
type MISSolver struct {
	// Engine is the execution engine of the underlying coloring stage;
	// nil means engine.Options{}.
	Engine *engine.Engine
}

var _ lcl.Solver = &MISSolver{}

// NewMISSolver returns the solver.
func NewMISSolver() *MISSolver { return &MISSolver{} }

// Name implements lcl.Solver.
func (s *MISSolver) Name() string { return "cycle-mis-via-coloring" }

// Randomized implements lcl.Solver.
func (s *MISSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (s *MISSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	colored, cost, err := colorCycles(s.Engine, g, in, seed)
	if err != nil {
		return nil, nil, err
	}
	out := lcl.NewLabeling(g)
	inSet := make([]bool, g.NumNodes())
	for _, col := range []lcl.Label{Color1, Color2, Color3} {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if colored.Node[v] != col {
				continue
			}
			free := true
			for _, h := range g.Halves(v) {
				if inSet[g.Edge(h.Edge).Other(h.Side).Node] {
					free = false
					break
				}
			}
			inSet[v] = free
		}
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if inSet[v] {
			out.Node[v] = InSet
		} else {
			out.Node[v] = OutSet
		}
		cost.Charge(v, cost.Radius(v)+2) // two greedy join rounds
	}
	return out, cost, nil
}

// colorCycles is the Cole–Vishkin stage of the coloring-based solvers,
// run on eng.
func colorCycles(eng *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	cv := NewCVSolver()
	cv.Engine = eng
	return cv.Solve(g, in, seed)
}

// TrivialSolver solves Trivial in zero rounds.
type TrivialSolver struct{}

var _ lcl.Solver = TrivialSolver{}

// Name implements lcl.Solver.
func (TrivialSolver) Name() string { return "trivial" }

// Randomized implements lcl.Solver.
func (TrivialSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (TrivialSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	out := lcl.NewLabeling(g)
	for v := range out.Node {
		out.Node[v] = LabelOK
	}
	return out, lcl.NewCost(g.NumNodes()), nil
}

// GlobalOrientationSolver solves ConsistentOrientation by full gathering:
// each node learns its whole component (diameter-many rounds, Θ(n) on a
// cycle) and orients along the canonical traversal from the minimum-ID
// node toward its smaller neighbor.
type GlobalOrientationSolver struct{}

var _ lcl.Solver = GlobalOrientationSolver{}

// Name implements lcl.Solver.
func (GlobalOrientationSolver) Name() string { return "cycle-orientation-global" }

// Randomized implements lcl.Solver.
func (GlobalOrientationSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (GlobalOrientationSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	if err := RequireCycleGraph(g); err != nil {
		return nil, nil, fmt.Errorf("global orientation: %w", err)
	}
	out := lcl.NewLabeling(g)
	cost := lcl.NewCost(g.NumNodes())
	comps, _ := g.Components()
	for _, nodes := range comps {
		// Canonical start: minimum identifier; canonical direction: its
		// incident edge with the smaller edge ID.
		start := nodes[0]
		for _, v := range nodes {
			if g.ID(v) < g.ID(start) {
				start = v
			}
		}
		h := g.Halves(start)[0]
		if g.Halves(start)[1].Edge < h.Edge {
			h = g.Halves(start)[1]
		}
		// Walk around the cycle marking the exit half of each node out.
		cur := start
		for i := 0; i < len(nodes); i++ {
			out.SetHalf(h, DirOut)
			out.SetHalf(g.OppositeHalf(h), DirIn)
			next := g.Edge(h.Edge).Other(h.Side).Node
			// Exit next by its other port (the one not holding h's edge).
			nh := g.Halves(next)[0]
			if nh.Edge == h.Edge && nh.Side == g.OppositeHalf(h).Side {
				nh = g.Halves(next)[1]
			}
			h = nh
			cur = next
		}
		if cur != start {
			return nil, nil, fmt.Errorf("global orientation: walk did not close on component of node %d", start)
		}
		// Every node needed to see the whole cycle: charge half the
		// cycle length (the eccentricity on a cycle).
		for _, v := range nodes {
			cost.Charge(v, len(nodes)/2+1)
		}
	}
	return out, cost, nil
}
