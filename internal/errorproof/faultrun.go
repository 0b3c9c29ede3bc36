package errorproof

import (
	"fmt"

	"locallab/internal/adversary"
	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// This file runs the Ψ verifier machines under the fault-injection
// plane: the same psiMachine fixpoint as RunEngine, but stepped
// explicitly on a typed session with an adversary interceptor installed,
// tracking the round at which the first machine raises a flag — the
// campaign harness's per-fault detection latency.

// psiMsg bit layout of the adversary codec: one bit per predicate, in
// struct field order. Decode masks to the low 7 bits, so an arbitrary
// Byzantine word always decodes to a well-formed predicate vector.
const (
	psiBitBad = 1 << iota
	psiBitAnyBad
	psiBitR
	psiBitL
	psiBitLvl
	psiBitA
	psiBitRC
)

func encodePsiMsg(m psiMsg) uint64 {
	var w uint64
	if m.Bad {
		w |= psiBitBad
	}
	if m.AnyBad {
		w |= psiBitAnyBad
	}
	if m.R {
		w |= psiBitR
	}
	if m.L {
		w |= psiBitL
	}
	if m.Lvl {
		w |= psiBitLvl
	}
	if m.A {
		w |= psiBitA
	}
	if m.RC {
		w |= psiBitRC
	}
	return w
}

func decodePsiMsg(w uint64) psiMsg {
	return psiMsg{
		Bad:    w&psiBitBad != 0,
		AnyBad: w&psiBitAnyBad != 0,
		R:      w&psiBitR != 0,
		L:      w&psiBitL != 0,
		Lvl:    w&psiBitLvl != 0,
		A:      w&psiBitA != 0,
		RC:     w&psiBitRC != 0,
	}
}

// psiCodec is the adversary's word view of the Ψ message plane. A Ψ
// message is a value, so Decode ignores the receiver slot.
func psiCodec() adversary.Codec[psiMsg] {
	return adversary.Codec[psiMsg]{
		Encode: encodePsiMsg,
		Decode: func(_ int32, w uint64) psiMsg { return decodePsiMsg(w) },
	}
}

// FaultRun is one (possibly adversarial) execution of the Ψ machines.
type FaultRun struct {
	// Out is the converged Ψ output labeling.
	Out *lcl.Labeling
	// Rounds and Deliveries profile the execution (deterministic across
	// every worker/shard geometry, faults included).
	Rounds     int
	Deliveries int64
	// FirstFlag is the earliest round at which some machine held a
	// violation flag (its local check failed or the AnyBad flood reached
	// it): 0 means flagged at initialization — a structural fault caught
	// by the constant-radius local checks before any message moved —
	// and -1 means no machine ever flagged (the clean all-GadOk run).
	FirstFlag int
}

// RunEngineUnderFaults executes the Ψ verifier machines on a typed
// engine session with an optional delivery-fault plan injected through
// the engine's delivery interceptor. A nil plan is the clean execution
// (used for structurally corrupted instances, which need no delivery
// faults to be caught). The fixpoint's monotone predicates only ever
// flip false→true, so even adversarial executions quiesce; exceeding
// the round cap is reported as an error, never as a hang.
func (vf *Verifier) RunEngineUnderFaults(g *graph.Graph, in *lcl.Labeling, nUpper int, opts engine.Options, plan *adversary.Plan) (*FaultRun, error) {
	s, err := vf.NewSession(engine.New(opts), g, in, nUpper)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if plan != nil && plan.Slots() != g.NumPorts() {
		return nil, fmt.Errorf("verifier: plan covers %d slots, graph has %d ports", plan.Slots(), g.NumPorts())
	}
	machines, sess := s.machines, s.sess
	if plan != nil {
		sess.SetInterceptor(adversary.NewInterceptor(plan, psiCodec()))
	}
	sess.Reset(0, false)

	// A machine "flags" when any violation predicate is raised: its own
	// local check failed, the AnyBad flood reached it, or a chain/level
	// predicate fired. On a clean valid-gadget run all of these stay
	// false forever.
	flagged := func() bool {
		for v := range machines {
			m := &machines[v]
			if m.cfg.bad || m.anyBad || m.r || m.l || m.a || m.rc {
				return true
			}
		}
		return false
	}
	first := -1
	if flagged() {
		first = 0
	}
	done := false
	for round := 1; round <= s.maxRounds; round++ {
		fin := sess.Step()
		if first < 0 && flagged() {
			first = round
		}
		if fin {
			done = true
			break
		}
	}
	if !done {
		return nil, fmt.Errorf("verifier engine: %w", engine.ErrRoundLimit)
	}
	out := lcl.NewLabeling(g)
	for v := range machines {
		out.Node[v] = machines[v].output()
	}
	return &FaultRun{
		Out:        out,
		Rounds:     sess.Rounds(),
		Deliveries: sess.Deliveries(),
		FirstFlag:  first,
	}, nil
}
