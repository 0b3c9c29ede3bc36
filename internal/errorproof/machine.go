package errorproof

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// This file implements V as a genuine message-passing algorithm on the
// typed engine core: instead of the centralized BFS walks of Run, every
// node repeatedly exchanges a constant-size predicate vector with its
// gadget neighbors and the Ψ output falls out of the converged local
// state. The rules of Section 4.5 all reduce to monotone boolean
// fixpoints over the step edges:
//
//	anyBad  — "some node of my gadget violates the structure": OR-flood
//	          over all gadget edges (GadOk iff it converges to false).
//	R/L     — rules 6a/6b: R = bad(right) ∨ R(right), the Right-chain
//	          reachability of a bad node; symmetrically L.
//	lvl     — bad ∨ R ∨ L, the (Right*|Left*) level pattern.
//	A       — rule 6c: A = lvl(parent) ∨ A(parent).
//	RC      — rule 6d: RC = lvl(rchild) ∨ RC(rchild).
//	downHit — rule 5 at the center: per Downᵢ edge, lvl(root) ∨ RC(root).
//
// Every predicate only flips false → true, so iterating to global
// quiescence computes the least fixpoint — which equals the centralized
// walk semantics of Run on every structure whose step edges are acyclic
// (all members of the gadget family and all their label corruptions).
//
// Pinned Ψ semantics on step cycles: adversarial input labelings can
// close Right/Left/Parent/RChild steps into cycles, where the two
// formulations differ at the predicate level — Run's walks carry a
// visited set and stop on the first revisit, so the walk from w never
// re-examines w itself, while the fixpoint propagates all the way around
// a cycle and can set a predicate at its own seed (R(w) on a Right-cycle
// through a bad w; A/RC at the unique lvl-node of a Parent/RChild
// cycle). Every such divergence is masked by output priority: a
// predicate can only diverge at a node where a strictly higher-priority
// rule (bad ⇒ Error, or the node's own R/L ⇒ PtrRight/PtrLeft) already
// fixes the output identically on both paths. Outputs therefore agree on
// every input, cyclic or not — the contract the rewiring-adversary
// regression test (TestPsiMachineMatchesVerifierRewired) pins.
//
// The machines detect quiescence locally: a round in which no machine
// changed state is stable, and the engine's termination barrier fires
// exactly there.
//
// Round accounting: on gadget-family instances the fixpoint converges
// within the component diameter + 2 rounds, i.e. within the Lemma-10
// gathering radius Radius(n); the analytical Cost still charges Radius(n)
// per node exactly like Run, so the two paths report identical costs and
// the measured engine rounds stay at or below the analytical charge.

// psiMsg is the constant-size predicate vector exchanged on every gadget
// edge every round. Fields mirror the fixpoint predicates above; messages
// on non-gadget (port) edges carry the zero value and are ignored.
type psiMsg struct {
	Bad    bool
	AnyBad bool
	R      bool
	L      bool
	Lvl    bool
	A      bool
	RC     bool
}

// psiConfig is the per-node static context of the machine: the node's
// local-structure verdict and the port indices of its uniquely-labeled
// step edges, all derived from the input labeling before the run (the
// node's constant-radius initial knowledge).
type psiConfig struct {
	// scoped lists the in-scope (gadget-edge) port indices.
	scoped []int32
	// Step ports (first in-scope half carrying the label, port order), -1
	// when absent.
	right, left, parent, rchild int32
	bad, center, hasParent      bool
}

// psiMachine runs the fixpoint iteration for one node. A prepared
// verifier holds one per node, so the few center-only fields sit behind
// a pointer.
type psiMachine struct {
	cfg psiConfig
	// down is the center's rule-5 state (nil on every other node).
	down  *psiDown
	round int32

	anyBad, r, l, a, rc bool
}

// psiDown is a center's per-sub-gadget state: port[i-1] is its port
// toward the root of sub-gadget i (-1 when absent), hit[i-1] whether
// rule 5 fired on that port.
type psiDown struct {
	port []int32
	hit  []bool
}

var _ engine.TypedMachine[psiMsg] = (*psiMachine)(nil)

func (m *psiMachine) Init(info engine.NodeInfo) {
	m.round = 0
	m.anyBad = m.cfg.bad
	m.r, m.l, m.a, m.rc = false, false, false, false
	if m.down != nil {
		clear(m.down.hit)
	}
}

func (m *psiMachine) lvl() bool { return m.cfg.bad || m.r || m.l }

func (m *psiMachine) Round(recv, send []psiMsg) bool {
	m.round++
	changed := false
	if m.round > 1 {
		if !m.anyBad {
			for _, p := range m.cfg.scoped {
				if recv[p].AnyBad {
					m.anyBad = true
					changed = true
					break
				}
			}
		}
		if !m.r && m.cfg.right >= 0 && (recv[m.cfg.right].Bad || recv[m.cfg.right].R) {
			m.r = true
			changed = true
		}
		if !m.l && m.cfg.left >= 0 && (recv[m.cfg.left].Bad || recv[m.cfg.left].L) {
			m.l = true
			changed = true
		}
		if !m.a && m.cfg.parent >= 0 && (recv[m.cfg.parent].Lvl || recv[m.cfg.parent].A) {
			m.a = true
			changed = true
		}
		if !m.rc && m.cfg.rchild >= 0 && (recv[m.cfg.rchild].Lvl || recv[m.cfg.rchild].RC) {
			m.rc = true
			changed = true
		}
		if d := m.down; d != nil {
			for i, p := range d.port {
				if p < 0 || d.hit[i] {
					continue
				}
				if recv[p].Lvl || recv[p].RC {
					d.hit[i] = true
					changed = true
				}
			}
		}
	}
	// The send plane is reused across rounds: every slot must be written.
	for p := range send {
		send[p] = psiMsg{}
	}
	out := psiMsg{
		Bad:    m.cfg.bad,
		AnyBad: m.anyBad,
		R:      m.r,
		L:      m.l,
		Lvl:    m.lvl(),
		A:      m.a,
		RC:     m.rc,
	}
	for _, p := range m.cfg.scoped {
		send[p] = out
	}
	// Quiescence: a round in which nothing changed anywhere is a global
	// fixpoint (monotone predicates + unchanged sends ⇒ unchanged recvs).
	// The engine terminates only when every machine reports done in the
	// same round, which is exactly the first globally-quiet round.
	return m.round > 1 && !changed
}

// output maps the converged machine state to the node's Ψ label,
// mirroring Run's priority rules exactly.
func (m *psiMachine) output() lcl.Label {
	switch {
	case m.cfg.bad:
		return LabError
	case !m.anyBad:
		return LabGadOk
	case m.cfg.center:
		for i, p := range m.down.port {
			if p >= 0 && m.down.hit[i] {
				return ErrDown(i + 1)
			}
		}
		// Defensive fallback, mirroring Run.
		return ErrDown(1)
	case m.r:
		return PtrRight
	case m.l:
		return PtrLeft
	case m.a:
		return PtrParent
	case m.rc:
		return PtrRChild
	case m.hasParentEdge():
		return PtrParent
	default:
		return PtrUp
	}
}

func (m *psiMachine) hasParentEdge() bool { return m.cfg.hasParent }

// psiMaxRounds bounds the fixpoint iteration: the longest chain plus the
// flood diameter is below 2n, so the cap only ever fires on malformed
// inputs.
func psiMaxRounds(n int) int { return 2*n + 16 }

// buildPsiMachines derives the per-node configs from the input labeling.
// Port lists live in flat slabs: every node's scoped ports in one slab
// sized by the graph's port slots, the centers' Downᵢ state in three
// more.
func buildPsiMachines(vf *Verifier, g *graph.Graph, in *lcl.Labeling) []psiMachine {
	n := g.NumNodes()
	ck := &gadget.Checker{Delta: vf.Delta, Scope: vf.Scope, Inputs: vf.nodeInputs(in)}
	centers := 0
	for v := graph.NodeID(0); int(v) < n; v++ {
		if ni, err := ck.Inputs.Of(in, v); err == nil && ni.Center {
			centers++
		}
	}
	scoped := make([]int32, 0, g.NumPorts())
	downs := make([]psiDown, centers)
	downPorts := make([]int32, centers*vf.Delta)
	downHits := make([]bool, centers*vf.Delta)
	for i := range downPorts {
		downPorts[i] = -1
	}
	machines := make([]psiMachine, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		m := &machines[v]
		cfg := &m.cfg
		*cfg = psiConfig{
			bad:    ck.CheckNode(g, in, v) != nil,
			right:  -1,
			left:   -1,
			parent: -1,
			rchild: -1,
		}
		ni, err := ck.Inputs.Of(in, v)
		if err == nil && ni.Center {
			cfg.center = true
			m.down = &downs[0]
			*m.down = psiDown{port: downPorts[:vf.Delta:vf.Delta], hit: downHits[:vf.Delta:vf.Delta]}
			downs, downPorts, downHits = downs[1:], downPorts[vf.Delta:], downHits[vf.Delta:]
		}
		start := len(scoped)
		for p, h := range g.Halves(v) {
			if vf.Scope != nil && !vf.Scope(h.Edge) {
				continue
			}
			scoped = append(scoped, int32(p))
			switch lab := in.HalfOf(h); lab {
			case gadget.LabRight:
				if cfg.right < 0 {
					cfg.right = int32(p)
				}
			case gadget.LabLeft:
				if cfg.left < 0 {
					cfg.left = int32(p)
				}
			case gadget.LabParent:
				if cfg.parent < 0 {
					cfg.parent = int32(p)
					cfg.hasParent = true
				}
			case gadget.LabRChild:
				if cfg.rchild < 0 {
					cfg.rchild = int32(p)
				}
			default:
				if i, ok := gadget.ParseDown(lab); ok && cfg.center && i <= vf.Delta && m.down.port[i-1] < 0 {
					m.down.port[i-1] = int32(p)
				}
			}
		}
		if len(scoped) > start {
			cfg.scoped = scoped[start:len(scoped):len(scoped)]
		}
	}
	return machines
}

// Session is V prepared on one instance: every node's config — its
// local-structure verdict and its step ports — derived once, and the
// engine session that re-executes the fixpoint exchange on every Run.
// Like an engine.Session it is not safe for concurrent use, and Close
// releases its worker pool.
type Session struct {
	machines  []psiMachine
	sess      *engine.Session[psiMsg]
	maxRounds int
}

// NewSession prepares V's machines on (g, in) for the given engine.
// nUpper is the size upper bound RunEngine takes.
func (vf *Verifier) NewSession(eng *engine.Engine, g *graph.Graph, in *lcl.Labeling, nUpper int) (*Session, error) {
	if nUpper < g.NumNodes() {
		return nil, fmt.Errorf("verifier: upper bound %d below actual size %d", nUpper, g.NumNodes())
	}
	machines := buildPsiMachines(vf, g, in)
	typed := make([]engine.TypedMachine[psiMsg], len(machines))
	for v := range machines {
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(eng.Options(), g, typed)
	if err != nil {
		return nil, fmt.Errorf("verifier engine: %w", err)
	}
	return &Session{machines: machines, sess: sess, maxRounds: psiMaxRounds(g.NumNodes())}, nil
}

// Run executes the fixpoint exchange from scratch and returns its engine
// profile, which is deterministic across every worker/shard geometry.
func (s *Session) Run() (engine.Stats, error) {
	stats, err := s.sess.Run(0, false, s.maxRounds)
	if err != nil {
		return stats, fmt.Errorf("verifier engine: %w", err)
	}
	return stats, nil
}

// Output is node v's Ψ label as of the last Run.
func (s *Session) Output(v graph.NodeID) lcl.Label { return s.machines[v].output() }

// Close releases the engine session. The Session must not be used after.
func (s *Session) Close() { s.sess.Close() }

// RunEngine executes V on the message-passing engine: the Ψ output is
// computed by the psiMachine fixpoint exchange above instead of
// centralized walks. The returned labeling and Cost are byte-identical to
// Run's on every gadget-family instance (including label corruptions);
// the engine.Stats profile additionally reports the measured rounds and
// message deliveries of the distributed execution, deterministic across
// every worker/shard geometry.
func (vf *Verifier) RunEngine(eng *engine.Engine, g *graph.Graph, in *lcl.Labeling, nUpper int) (*lcl.Labeling, *lcl.Cost, engine.Stats, error) {
	s, err := vf.NewSession(eng, g, in, nUpper)
	if err != nil {
		return nil, nil, engine.Stats{}, err
	}
	defer s.Close()
	stats, err := s.Run()
	if err != nil {
		return nil, nil, stats, err
	}
	out := lcl.NewLabeling(g)
	cost := lcl.NewCost(g.NumNodes())
	radius := vf.Radius(nUpper)
	for v := range s.machines {
		out.Node[v] = s.Output(graph.NodeID(v))
		cost.Charge(graph.NodeID(v), radius)
	}
	return out, cost, stats, nil
}
