package sinkless

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// This file implements the randomized sinkless-orientation algorithm as a
// genuine message-passing protocol on the engine's synchronous runtime
// (an engine.Session of smTyped machines) — no global state, every
// decision from received messages:
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
// writes into the engine-owned send plane, and Init reuses the per-port
// state (out, granted) whenever its capacity fits, so repeated
// randomized runs of one session allocate nothing at all. The root
// determinism grid pins its labelings and rounds to a fixed table for
// every engine geometry, and the in-package reference test pins it to
// engine.RunReference.
type smTyped struct {
	info    engine.NodeInfo // info.RNG is the node's random source
	own     *engine.NodeRNG // deterministic-mode source, made on first use
	round   int
	claimP  int    // claimed port
	out     []bool // out[p]: edge at port p currently leaves this node
	granted []bool // granted[p]: this round released the edge at port p
	reqPort int    // port requested this iteration (-1 none)
	sinkFor int    // consecutive iterations spent as a sink
}

var _ engine.TypedMachine[smMsg] = (*smTyped)(nil)

func (m *smTyped) Init(info engine.NodeInfo) {
	m.info = info
	if m.info.RNG == nil {
		// Deterministic fallback keeps the machine usable in tests that
		// run the runtime in deterministic mode: the stream of
		// rand.NewSource(info.ID), reseeded in place.
		if m.own == nil {
			m.own = new(engine.NodeRNG)
		}
		m.info.RNG = m.own.Seed(info.ID)
	}
	m.round = 0
	m.out = reuse(m.out, info.Degree)
	m.granted = reuse(m.granted, info.Degree)
	m.reqPort = -1
	m.sinkFor = 0
	if info.Degree > 0 {
		m.claimP = m.info.RNG.Intn(info.Degree)
	}
}

// reuse returns s resized to n zeroed elements, reallocating only when
// its capacity is short.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
					m.out[p] = p < m.oppositeLoopPort(recv, p)
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

// oppositeLoopPort finds the other port of a self-loop given one side,
// from the first round's announcements in recv (a loop port hears the
// node's own identifier). With the message-only interface the machine
// cannot see edge identities, so it pairs loop ports in ascending order
// (the first with the second, the third with the fourth, …), which
// matches both sides' computation. An unpaired last loop port maps to
// itself.
func (m *smTyped) oppositeLoopPort(recv []smMsg, p int) int {
	rank := 0 // loop ports below p
	for q := 0; q < p; q++ {
		if recv[q].ID == m.info.ID {
			rank++
		}
	}
	if rank%2 == 1 {
		for q := p - 1; q >= 0; q-- {
			if recv[q].ID == m.info.ID {
				return q
			}
		}
	}
	for q := p + 1; q < m.info.Degree; q++ {
		if recv[q].ID == m.info.ID {
			return q
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
		return m.info.RNG.Intn(2) == 0
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
		return m.info.RNG.Intn(m.info.Degree)
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
	// Engine is the execution engine; nil means engine.Options{}. Tests
	// inject engines of every geometry here to pin the labelings
	// geometry-invariant.
	Engine *engine.Engine
}

var _ lcl.Solver = &MessageSolver{}

// MessageMaxRounds is the message solver's generous round cap; the
// native relay caps its hosted copy of the protocol by it too.
const MessageMaxRounds = 4096

// NewMessageSolver returns the solver with the MessageMaxRounds cap.
func NewMessageSolver() *MessageSolver { return &MessageSolver{MaxRounds: MessageMaxRounds} }

// Name implements lcl.Solver.
func (s *MessageSolver) Name() string { return MessageSolverName }

// Randomized implements lcl.Solver.
func (s *MessageSolver) Randomized() bool { return true }

// Solve implements lcl.Solver.
func (s *MessageSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	ms, err := s.NewSession(g)
	if err != nil {
		return nil, nil, err
	}
	defer ms.Close()
	out, cost, _, err := ms.Run(in, seed)
	return out, cost, err
}

// msgFinish assembles the half-edge orientation labeling and cost from
// the machines' final port orientations.
func msgFinish(g *graph.Graph, machines []smTyped, rounds int) (*lcl.Labeling, *lcl.Cost, error) {
	out := lcl.NewLabeling(g)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for p, o := range machines[v].out {
			h := g.HalfAt(v, int32(p))
			if o {
				out.SetHalf(h, LabelOut)
			} else {
				out.SetHalf(h, LabelIn)
			}
		}
	}
	cost := lcl.NewCost(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		cost.Charge(graph.NodeID(v), rounds)
	}
	return out, cost, nil
}

// MsgSession holds a sinkless-orientation message-passing execution on
// one graph: the typed machines and the engine session (flat message
// planes, shard table, worker pool) are allocated once and reused across
// Runs through engine.Session.Reset, so repeated solves of the same
// instance skip all session construction. Not safe for concurrent use.
type MsgSession struct {
	g         *graph.Graph
	maxRounds int
	machines  []smTyped
	sess      *engine.Session[smMsg]
}

// NewSession holds a message-passing execution on g under the solver's
// engine and round cap.
func (s *MessageSolver) NewSession(g *graph.Graph) (*MsgSession, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	ms := &MsgSession{g: g, maxRounds: s.MaxRounds, machines: make([]smTyped, n)}
	typed := make([]engine.TypedMachine[smMsg], n)
	for v := range typed {
		typed[v] = &ms.machines[v]
	}
	sess, err := engine.NewSession(s.Engine.Options(), g, typed)
	if err != nil {
		return nil, err
	}
	ms.sess = sess
	return ms, nil
}

// Run solves the held graph as MessageSolver.Solve does and returns the
// engine profile of this execution beside the labeling. The input
// labeling is unused (the problem has no input labels).
func (ms *MsgSession) Run(_ *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, engine.Stats, error) {
	stats, err := ms.sess.Run(seed, true, ms.maxRounds)
	if err != nil {
		return nil, nil, engine.Stats{}, fmt.Errorf("message solver: %w", err)
	}
	out, cost, err := msgFinish(ms.g, ms.machines, stats.Rounds)
	return out, cost, stats, err
}

// Close releases the held engine session's worker pool.
func (ms *MsgSession) Close() { ms.sess.Close() }
