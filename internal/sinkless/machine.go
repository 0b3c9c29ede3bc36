package sinkless

import (
	"fmt"
	"math/rand"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
)

// This file implements the randomized sinkless-orientation algorithm as a
// genuine message-passing protocol on the engine's synchronous runtime
// (engine.Core) — no global state, every decision from received messages:
//
//	round 1     every node claims a uniformly random incident edge and
//	            announces (identifier, claim) on every port.
//	round 2     both endpoints resolve each edge identically: a claimed
//	            edge goes to its claimant (ties: larger identifier); an
//	            unclaimed edge to the larger identifier.
//	repair      sinks walk to surplus: each iteration a sink asks one
//	            neighbor to give up the connecting edge. Neighbors with
//	            out-degree >= 2 always grant; out-degree-1 neighbors
//	            grant with probability 1/2 and become the walking sink
//	            themselves. Surplus is dense after random claims, so
//	            walks are short.
//
// Termination: a node finishes when neither it nor any neighbor is a
// sink; the runtime stops when all machines finish.

// smMsg is the single message type exchanged; unused fields are zero.
type smMsg struct {
	ID      int64
	Claim   bool // round 1: sender claims the edge on this port
	OutDeg  int  // repair: sender's current out-degree
	IsSink  bool // repair: sender is currently a sink
	Request bool // repair: sender asks to take over this edge
	Grant   bool // repair: sender releases this edge to the receiver
}

// smTyped is the per-node state machine of the protocol above,
// exchanging smMsg values through the engine core's flat planes. Round
// writes into the engine-owned send plane, and the only mutable per-port
// scratch (granted) is allocated once in Init, so the steady-state round
// loop allocates nothing. The root determinism grid pins its labelings
// and rounds to a fixed table for every engine geometry, and the
// in-package reference test pins it to engine.RunReference.
type smTyped struct {
	info    engine.NodeInfo
	rng     *rand.Rand
	round   int
	claimP  int // claimed port
	nbrID   []int64
	out     []bool // out[p]: edge at port p currently leaves this node
	granted []bool // granted[p]: this round released the edge at port p
	reqPort int    // port requested this iteration (-1 none)
	sinkFor int    // consecutive iterations spent as a sink
}

var _ engine.TypedMachine[smMsg] = (*smTyped)(nil)

func (m *smTyped) Init(info engine.NodeInfo) {
	m.info = info
	m.rng = info.RNG
	if m.rng == nil {
		// Deterministic fallback keeps the machine usable in tests that
		// run the runtime in deterministic mode.
		m.rng = rand.New(rand.NewSource(info.ID))
	}
	m.round = 0
	m.nbrID = make([]int64, info.Degree)
	m.out = make([]bool, info.Degree)
	m.granted = make([]bool, info.Degree)
	m.reqPort = -1
	m.sinkFor = 0
	if info.Degree > 0 {
		m.claimP = m.rng.Intn(info.Degree)
	}
}

func (m *smTyped) outDeg() int {
	d := 0
	for _, o := range m.out {
		if o {
			d++
		}
	}
	return d
}

func (m *smTyped) isSink() bool { return m.info.Degree > 0 && m.outDeg() == 0 }

func (m *smTyped) Round(recv, send []smMsg) bool {
	round := m.round
	m.round++
	deg := m.info.Degree
	if round == 0 {
		// Announce identifier and claim. recv holds zero values here —
		// no messages have arrived yet.
		for p := 0; p < deg; p++ {
			send[p] = smMsg{ID: m.info.ID, Claim: p == m.claimP}
		}
		return deg == 0
	}
	if round == 1 {
		// Record all neighbor identifiers first: self-loop port pairing
		// needs the complete table.
		for p := 0; p < deg; p++ {
			m.nbrID[p] = recv[p].ID
		}
		// Resolve every edge locally and symmetrically.
		for p := 0; p < deg; p++ {
			mine := p == m.claimP
			theirs := recv[p].Claim
			switch {
			case mine && !theirs:
				m.out[p] = true
			case theirs && !mine:
				m.out[p] = false
			default:
				// Both or neither: larger identifier takes the edge.
				// Self-loops (ID == own ID) stay "out" on the lower port
				// by convention, giving the node an out-edge.
				if recv[p].ID == m.info.ID {
					m.out[p] = p < m.oppositeLoopPort(p)
				} else {
					m.out[p] = m.info.ID > recv[p].ID
				}
			}
		}
	}

	// Repair iterations alternate: even rounds send status+requests, odd
	// rounds send grants. Grants received flip edges toward us. The send
	// plane is reused across rounds, so grants are staged in granted and
	// folded into the status messages below.
	for p := 0; p < deg; p++ {
		m.granted[p] = false
	}
	if round > 1 {
		for p := 0; p < deg; p++ {
			if recv[p].Grant {
				m.out[p] = true
			}
			if recv[p].Request && m.shouldGrant(p) {
				m.out[p] = false
				m.granted[p] = true
			}
		}
	}
	if m.isSink() {
		m.sinkFor++
	} else {
		m.sinkFor = 0
		m.reqPort = -1
	}
	// Status everywhere; sinks additionally place one request.
	if m.isSink() && round%2 == 0 {
		m.reqPort = m.pickTarget(recv)
	}
	anySinkNearby := m.isSink()
	for p := 0; p < deg; p++ {
		if recv[p].IsSink {
			anySinkNearby = true
		}
		out := smMsg{ID: m.info.ID, OutDeg: m.outDeg(), IsSink: m.isSink()}
		if m.isSink() && p == m.reqPort {
			out.Request = true
		}
		if m.granted[p] {
			out.Grant = true
		}
		send[p] = out
	}
	return round >= 3 && !anySinkNearby
}

// oppositeLoopPort finds the other port of a self-loop given one side.
// With the message-only interface the machine cannot see edge identities,
// so it pairs loop ports in ascending order, which matches both sides'
// computation.
func (m *smTyped) oppositeLoopPort(p int) int {
	var loops []int
	for q := 0; q < m.info.Degree; q++ {
		if m.nbrID[q] == m.info.ID {
			loops = append(loops, q)
		}
	}
	for i := 0; i+1 < len(loops); i += 2 {
		if loops[i] == p {
			return loops[i+1]
		}
		if loops[i+1] == p {
			return loops[i]
		}
	}
	return p
}

// shouldGrant decides whether to release the edge at port p to a
// requesting sink: always with surplus, with probability 1/2 at
// out-degree 1 (the walking step), never when already a sink.
func (m *smTyped) shouldGrant(p int) bool {
	if !m.out[p] {
		return false // nothing to grant: the edge already points here
	}
	switch {
	case m.outDeg() >= 2:
		return true
	case m.outDeg() == 1:
		return m.rng.Intn(2) == 0
	default:
		return false
	}
}

// pickTarget chooses which neighbor a sink petitions: the one
// advertising the largest out-degree (staleness tolerated), ties by
// identifier, with a random tiebreak every few attempts to escape
// symmetric stand-offs.
func (m *smTyped) pickTarget(recv []smMsg) int {
	best, bestDeg := -1, -1
	var bestID int64
	for p := 0; p < m.info.Degree; p++ {
		if recv[p].OutDeg > bestDeg || (recv[p].OutDeg == bestDeg && recv[p].ID < bestID) {
			best, bestDeg, bestID = p, recv[p].OutDeg, recv[p].ID
		}
	}
	if m.sinkFor > 4 || best < 0 {
		return m.rng.Intn(m.info.Degree)
	}
	return best
}

// MessageSolver runs the protocol above on the synchronous runtime. It
// demonstrates that the randomized solver is implementable with pure
// message passing; RandSolver remains the reference implementation with
// wave-exact cost accounting.
//
// Solve runs smTyped on the engine core as a one-shot session, with no
// per-round allocation.
type MessageSolver struct {
	// MaxRounds caps the runtime.
	MaxRounds int
	// Engine overrides the execution engine; nil uses the package-level
	// engine defaults. Tests inject engines of every geometry here to
	// pin the labelings geometry-invariant.
	Engine *engine.Engine
	// LastStats is the execution profile of the most recent successful
	// Solve. Callers that need it (the scenario runner records message
	// deliveries per cell) must not share one solver across goroutines.
	LastStats engine.Stats
}

var _ lcl.Solver = &MessageSolver{}

// NewMessageSolver returns the solver with a generous round cap.
func NewMessageSolver() *MessageSolver { return &MessageSolver{MaxRounds: 4096} }

// Name implements lcl.Solver.
func (s *MessageSolver) Name() string { return MessageSolverName }

// Randomized implements lcl.Solver.
func (s *MessageSolver) Randomized() bool { return true }

// Solve implements lcl.Solver.
func (s *MessageSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	sess, err := s.NewSolverSession(g)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	return sess.Solve(in, seed)
}

// msgFinish assembles the half-edge orientation labeling and cost.
func msgFinish(g *graph.Graph, outs [][]bool, rounds int) (*lcl.Labeling, *local.Cost, error) {
	out := lcl.NewLabeling(g)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for p, o := range outs[v] {
			h := g.HalfAt(v, int32(p))
			if o {
				out.SetHalf(h, LabelOut)
			} else {
				out.SetHalf(h, LabelIn)
			}
		}
	}
	cost := local.NewCost(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		cost.Charge(graph.NodeID(v), rounds)
	}
	return out, cost, nil
}

// MsgSession pins a sinkless-orientation message-passing execution to
// one graph: the typed machines and the engine session (flat message
// planes, shard table, worker pool) are allocated once and reused across
// Solve calls through engine.Session.Reset, so repeated solves of the
// same instance skip all session construction. Not safe for concurrent
// use.
type MsgSession struct {
	s        *MessageSolver
	g        *graph.Graph
	machines []smTyped
	sess     *engine.Session[smMsg]
}

var _ lcl.SolverSession = (*MsgSession)(nil)

// NewSolverSession implements lcl.SessionSolver.
func (s *MessageSolver) NewSolverSession(g *graph.Graph) (lcl.SolverSession, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	ms := &MsgSession{s: s, g: g, machines: make([]smTyped, n)}
	typed := make([]engine.TypedMachine[smMsg], n)
	for v := range typed {
		typed[v] = &ms.machines[v]
	}
	sess, err := engine.NewCore[smMsg](s.Engine.Options()).NewSession(g, typed)
	if err != nil {
		return nil, err
	}
	ms.sess = sess
	return ms, nil
}

// Solve implements lcl.SolverSession. The input labeling is unused (the
// problem has no input labels), exactly as in MessageSolver.Solve.
func (ms *MsgSession) Solve(_ *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	stats, err := ms.sess.Run(seed, true, ms.s.MaxRounds)
	if err != nil {
		return nil, nil, fmt.Errorf("message solver: %w", err)
	}
	outs := make([][]bool, len(ms.machines))
	for v := range ms.machines {
		outs[v] = ms.machines[v].out
	}
	ms.s.LastStats = stats
	return msgFinish(ms.g, outs, stats.Rounds)
}

// Close releases the pinned engine session's worker pool.
func (ms *MsgSession) Close() { ms.sess.Close() }
