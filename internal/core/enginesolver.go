package core

import (
	"fmt"

	"locallab/internal/adversary"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// EngineRunStats is the measured engine profile of an engine-backed
// padded solve: one session for the Ψ verifier machines, one for the
// payload-relay session carrying the inner machines' messages, plus —
// for tower solvers whose inner is itself an EnginePaddedSolver — the
// merged profile of the nested per-component engine runs. All profiles
// are deterministic for a given instance — identical across every
// worker/shard geometry.
type EngineRunStats struct {
	Psi   engine.Stats
	Relay engine.Stats
	// RelayWords is the relay session's bandwidth: payload words handed to
	// the transport, counted at the senders (RelayRun.Words). Native
	// executions move O(1) words per virtual edge per protocol round;
	// gather executions move knowledge vectors in the rounds they change.
	RelayWords int64
	// RelayNative records whether the relay session ran native
	// constant-bandwidth protocol machines (true) or gather machines (false).
	RelayNative bool
	// Inner is the merged profile of the nested engine runs one level
	// down (nil when the inner solver is a leaf decision function).
	// Components solve concurrently in the LOCAL model, so round counts
	// merge by maximum while deliveries and words add.
	Inner *EngineRunStats
}

// Rounds is the total measured physical rounds of the solve, nested
// sessions included.
func (s *EngineRunStats) Rounds() int {
	r := s.Psi.Rounds + s.Relay.Rounds
	if s.Inner != nil {
		r += s.Inner.Rounds()
	}
	return r
}

// Deliveries is the total messages delivered across all sessions,
// nested sessions included.
func (s *EngineRunStats) Deliveries() int64 {
	d := s.Psi.Deliveries + s.Relay.Deliveries
	if s.Inner != nil {
		d += s.Inner.Deliveries()
	}
	return d
}

// TotalRelayWords is the relay bandwidth summed over every nesting level.
func (s *EngineRunStats) TotalRelayWords() int64 {
	w := s.RelayWords
	if s.Inner != nil {
		w += s.Inner.TotalRelayWords()
	}
	return w
}

// fold merges another run's profile into s as a concurrent sibling
// (components of one virtual graph solve in parallel in the LOCAL
// model): rounds take the maximum, deliveries and words add, and the
// nested profiles merge recursively.
func (s *EngineRunStats) fold(o *EngineRunStats) {
	if o.Psi.Rounds > s.Psi.Rounds {
		s.Psi.Rounds = o.Psi.Rounds
	}
	s.Psi.Deliveries += o.Psi.Deliveries
	if o.Relay.Rounds > s.Relay.Rounds {
		s.Relay.Rounds = o.Relay.Rounds
	}
	s.Relay.Deliveries += o.Relay.Deliveries
	s.RelayWords += o.RelayWords
	s.RelayNative = s.RelayNative || o.RelayNative
	if o.Inner != nil {
		if s.Inner == nil {
			s.Inner = &EngineRunStats{}
		}
		s.Inner.fold(o.Inner)
	}
}

// EnginePaddedSolver is the Lemma-4 algorithm executing end to end on the
// sharded message-passing engine: the Ψ verifier runs as a fixpoint
// exchange of predicate vectors (errorproof.Verifier.RunEngine), port
// validity is a constant-radius local decision on the converged Ψ
// outputs, and the inner algorithm runs as machines over a relay plane —
// the sinkless message solver's own protocol over the native relay when
// the virtual graph allows it, otherwise gather machines whose knowledge
// payloads the gather relay carries through gadget interiors and across
// port edges under the crossing schedule — with no centralized inner
// Solve call anywhere in the pipeline. The output labeling is
// byte-identical to the sequential PaddedSolver oracle (the assembly
// stages are shared code and the native inner execution is
// differential-tested against the oracle), while Cost charges the rounds
// actually executed: the Ψ radius plus the measured relay-session length
// for every valid-gadget node, so the measured engine rounds never
// exceed the charged bound.
type EnginePaddedSolver struct {
	Delta int
	Inner lcl.Solver
	// Engine configures the worker pool; nil means engine.Options{}.
	Engine *engine.Engine
	// ForceGather disables native relay selection, running the inner
	// solver over gather machines even when a native protocol exists.
	// The registry's gather plane (pi2-rand-gather) sets it to compare
	// the two relay executions.
	ForceGather bool

	// relayPlan is the delivery-fault plan installed by SetRelayFault
	// (nil in production): the adversary's hook into the relay plane.
	relayPlan *adversary.Plan
}

var _ lcl.Solver = (*EnginePaddedSolver)(nil)

// NewEnginePaddedSolver constructs the engine-backed solver.
func NewEnginePaddedSolver(inner lcl.Solver, delta int, eng *engine.Engine) *EnginePaddedSolver {
	return &EnginePaddedSolver{Delta: delta, Inner: inner, Engine: eng}
}

// Name implements lcl.Solver.
func (s *EnginePaddedSolver) Name() string { return "padded-engine(" + s.Inner.Name() + ")" }

// Randomized implements lcl.Solver.
func (s *EnginePaddedSolver) Randomized() bool { return s.Inner.Randomized() }

// Solve implements lcl.Solver.
func (s *EnginePaddedSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
	d, err := s.SolveDetailed(g, in, seed)
	if err != nil {
		return nil, nil, err
	}
	return d.Out, d.Cost, nil
}

// SolveDetailed runs the engine-backed pipeline and returns diagnostics,
// including the measured engine profile in Detail.Engine. It is the
// one-shot form of Prepare: prepare, one Run, Close.
func (s *EnginePaddedSolver) SolveDetailed(g *graph.Graph, in *lcl.Labeling, seed int64) (*Detail, error) {
	p, err := s.Prepare(g, in)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Run(seed)
}

// PreparedPadded is an engine-backed padded solve prepared on one
// instance. In the Lemma-4 pipeline only the inner simulation (step 4)
// reads the seed: the decoded Π′ input, every node's Ψ config, port
// validity, the contraction into H and the relay machines are fixed by
// (g, in). Prepare builds the Ψ machines and their engine session; the
// first Run builds the rest from its Ψ outputs and keeps it. Every Run
// still executes both message-passing sessions end to end, so
// Detail.Engine reports that Run's own profile, and every later Run
// checks its Ψ outputs against the ones the plan was built from.
//
// A PreparedPadded is not safe for concurrent use. It reads the solver
// it was prepared from — the inner on every Run, ForceGather and the
// relay fault plan on the first — so that solver must not change
// between Runs. Detail.Virtual is the held virtual graph, shared by
// every Run's Detail. Close releases the engine sessions.
type PreparedPadded struct {
	s       *EnginePaddedSolver
	g       *graph.Graph
	psi     *errorproof.Session
	psiCost *lcl.Cost
	radius  int

	// dec is the decoded input until the first Run's plan consumes it.
	dec *padInputs
	// plan and relay are built by the first successful plan step; relay
	// is nil when no gadget is valid.
	plan  *paddedPlan
	relay relayExec
}

// relayExec is a prepared relay session: gather (gatherRelay) or native
// (nativeRelay).
type relayExec interface {
	run(seed int64) (*RelayRun, error)
	close()
}

// Prepare decodes the Π′ input and builds the Ψ verifier machines with
// their engine session on (g, in). Run executes the prepared solve.
func (s *EnginePaddedSolver) Prepare(g *graph.Graph, in *lcl.Labeling) (*PreparedPadded, error) {
	dec, err := decodeInputs(g, in)
	if err != nil {
		return nil, fmt.Errorf("engine padded solve: %w", err)
	}
	n := g.NumNodes()
	vf := &errorproof.Verifier{Delta: s.Delta, Scope: dec.scope, Inputs: dec.nodes}
	psi, err := vf.NewSession(s.Engine, g, dec.gad, n)
	if err != nil {
		return nil, fmt.Errorf("engine padded solve verifier: %w", err)
	}
	radius := vf.Radius(n)
	psiCost := lcl.NewCost(n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		psiCost.Charge(v, radius)
	}
	return &PreparedPadded{s: s, g: g, psi: psi, psiCost: psiCost, radius: radius, dec: dec}, nil
}

// Close releases the engine sessions. The PreparedPadded must not be
// used after.
func (p *PreparedPadded) Close() {
	p.psi.Close()
	if p.relay != nil {
		p.relay.close()
	}
}

// Run executes the prepared solve under seed.
func (p *PreparedPadded) Run(seed int64) (*Detail, error) {
	s, g := p.s, p.g
	n := g.NumNodes()

	// Step 1: Ψ by real message exchange on the engine.
	psiStats, err := p.psi.Run()
	if err != nil {
		return nil, fmt.Errorf("engine padded solve verifier: %w", err)
	}
	if p.plan == nil {
		if err := p.build(); err != nil {
			return nil, err
		}
	} else if err := p.checkPsi(); err != nil {
		return nil, err
	}
	plan := p.plan
	cost := lcl.NewCost(n)
	cost.Merge(p.psiCost)

	// Step 4: the inner algorithm runs over the relay plane prepared by
	// build. Both executions pin per-virtual-node RNG streams by virtual
	// identifier, so every worker/shard geometry — and both executions —
	// produce the same bytes.
	stats := EngineRunStats{Psi: psiStats}
	var virtOut *lcl.Labeling
	innerCost := lcl.NewCost(plan.vg.NumVirtualNodes())
	if p.relay != nil {
		_, stats.RelayNative = p.relay.(*nativeRelay)
		relay, err := p.relay.run(seed)
		if err != nil {
			return nil, fmt.Errorf("engine padded solve: %w", err)
		}
		virtOut = relay.Out
		for vi, r := range relay.Rounds {
			innerCost.Charge(graph.NodeID(vi), r)
		}
		stats.Relay = relay.Stats
		stats.RelayWords = relay.Words
		// Flattened tower: when the inner solver is itself engine-backed,
		// each gather machine's decision function runs a nested engine
		// session on its reconstructed component — the recursion is
		// message passing all the way down — and the relay returns their
		// merged profiles, which this level's stats nest.
		stats.Inner = relay.Inner
	}

	// Step 5: shared assembly; every valid-gadget node is charged the
	// rounds it actually executed — Ψ radius plus the measured relay
	// session length, nested tower sessions included.
	simRounds := stats.Relay.Rounds
	if stats.Inner != nil {
		simRounds += stats.Inner.Rounds()
	}
	d, err := assemblePadded(g, plan, virtOut, innerCost, p.psiCost, cost, s.Delta,
		func(graph.NodeID, int) int { return simRounds })
	if err != nil {
		return nil, err
	}
	d.PsiRadius = p.radius
	d.Engine = &stats
	return d, nil
}

// build runs steps 2-3 on the first Run's Ψ outputs — port validity and
// the virtual contraction, shared code with the sequential oracle — and
// prepares the relay execution: the native relay when the inner has
// a constant-bandwidth protocol on H (runsNative), gather machines
// flooding knowledge vectors otherwise. Nothing is kept unless every
// step succeeds.
func (p *PreparedPadded) build() error {
	s, g := p.s, p.g
	psiNode := make([]lcl.Label, g.NumNodes())
	for v := range psiNode {
		psiNode[v] = p.psi.Output(graph.NodeID(v))
	}
	plan, err := planPadded(g, p.dec, psiNode, s.Delta)
	if err != nil {
		return err
	}
	var relay relayExec
	if plan.vg.NumVirtualNodes() > 0 {
		table := NewFactTable(plan.vg)
		// A delivery-fault plan (SetRelayFault) pins the gather execution,
		// whose relay installs the plan's interceptor on its session.
		fault := s.relayPlan
		if fault != nil && fault.Slots() != g.NumPorts() {
			return fmt.Errorf("engine padded solve: relay fault plan covers %d slots, graph has %d ports",
				fault.Slots(), g.NumPorts())
		}
		if !s.ForceGather && fault == nil && runsNative(s.Inner, plan.vg) {
			relay, err = newNativeRelay(s.Engine, g, plan, table)
		} else {
			relay, err = newGatherRelay(s.Engine, g, plan, table, s.Inner, fault)
		}
		if err != nil {
			return fmt.Errorf("engine padded solve: %w", err)
		}
	}
	p.plan, p.relay, p.dec = plan, relay, nil
	return nil
}

// checkPsi compares the last Ψ execution with the outputs the plan was
// built from. The fixpoint is deterministic on a fixed instance, so a
// difference means the prepared state no longer describes the instance:
// the Run fails rather than solving on a stale plan.
func (p *PreparedPadded) checkPsi() error {
	for v, want := range p.plan.psiNode {
		if got := p.psi.Output(graph.NodeID(v)); got != want {
			return fmt.Errorf("engine padded solve verifier: node %d Ψ output %q differs from the prepared plan's %q", v, got, want)
		}
	}
	return nil
}
