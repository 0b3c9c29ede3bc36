package campaign

import (
	"fmt"

	"locallab/internal/adversary"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/lcl"
	"locallab/internal/solver"
)

// The relay campaign plane: delivery faults injected into the padded
// pipeline's payload relay — the knowledge-word flood that carries the
// inner algorithm through the gadgets (internal/core, relay.go) — via
// core.EnginePaddedSolver.SetRelayFault. The verdict calculus differs
// from the Ψ plane because the relay run computes a full Π₂ output
// rather than a verifier fixpoint:
//
//	detected           — the faulted run failed loudly (starvation hit
//	                     the session round cap, a decision function
//	                     refused its gathered knowledge) or converged to
//	                     an output the padded ne-LCL verifier rejects.
//	degraded-but-valid — the fault was absorbed: the run converged to a
//	                     verifier-accepted output byte-identical to the
//	                     fault-free reference.
//	silent-corruption  — the run converged to a verifier-accepted output
//	                     that differs from the reference: the fault
//	                     steered the computation without tripping any
//	                     check. The CI gate asserts this stays empty.
//
// Drop and corrupt faults are expected to land in degraded-but-valid,
// and the session lengths show they really fire: a knowledge bit marks
// a TRUE fact of the instance as learned (the fact table is fixed at
// plan time), so the OR-monotone flood re-delivers dropped words and a
// flipped bit can only grant true knowledge early or withhold it for a
// round — it cannot inject a false fact. The faulted sessions run
// different lengths than the clean one while converging to the same
// bytes; what CI pins is that no fault regime ever crosses into
// silent-corruption.

// Relay-plane fixture seeds: the padded instance and the solve's master
// seed are fixed per scenario, so the cell's seed axis drives only the
// adversary — exactly the role Seeds play on the Ψ plane.
const (
	relayInstanceSeed int64 = 1
	relaySolveSeed    int64 = 1
)

func runRelayScenario(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{
		BaseNodes: sc.Base, Seed: relayInstanceSeed, Balanced: true,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign scenario %q: %w", sc.Name, err)
	}
	// The fault-free reference run, on the same gather execution the
	// faulted cells use: its checksum separates absorbed faults from
	// silent corruption.
	refOut, _, err := relaySolve(inst, engineOptions(sc, opts), nil)
	if err != nil {
		return nil, fmt.Errorf("campaign scenario %q: fault-free reference: %w", sc.Name, err)
	}
	refSum := solver.LabelingChecksum(refOut)

	cells, err := runCellGrid(sc, opts, func(f adversary.Fault, seed int64, eng engine.Options) (CellResult, error) {
		return runRelayCell(inst, eng, f, seed, refSum)
	})
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{
		Name:   sc.Name,
		Plane:  PlaneRelay,
		Base:   sc.Base,
		Nodes:  inst.G.NumNodes(),
		Engine: sc.Engine,
		Cells:  cells,
	}, nil
}

// runRelayCell executes one (fault, seed) cell on the relay plane.
func runRelayCell(inst *core.Instance, eng engine.Options, f adversary.Fault, seed int64, refSum uint64) (CellResult, error) {
	cell := CellResult{
		Fault: f.ID,
		Kind:  string(f.Kind),
		Class: classDelivery,
		Seed:  seed,
		// No Ψ machine tracks flag latency on this plane.
		LatencyRounds: -1,
	}
	plan, err := f.CompileGraph(inst.G, seed)
	if err != nil {
		return cell, err
	}
	out, stats, err := relaySolve(inst, eng, plan)
	if err != nil {
		// A loud failure IS the detection: the closure check or the
		// session round cap refused to let the corruption converge.
		cell.Verdict = VerdictDetected
		return cell, nil
	}
	cell.Rounds = stats.Rounds()
	cell.Deliveries = stats.Deliveries()
	lvl, err := core.NewLevel(2)
	if err != nil {
		return cell, err
	}
	cell.Checksum = fmt.Sprintf("%016x", solver.LabelingChecksum(out))
	switch {
	case lvl.Verify(inst.G, inst.In, out) != nil:
		cell.Verdict = VerdictDetected
	case solver.LabelingChecksum(out) == refSum:
		cell.Verdict = VerdictDegraded
	default:
		cell.Verdict = VerdictSilent
	}
	return cell, nil
}

// relaySolve runs one padded Π₂ solve over the gather relay execution
// (pi2-det's inner has no native protocol), with an optional
// delivery-fault plan installed on the relay session.
// A fresh solver tower per call keeps concurrent cells independent.
func relaySolve(inst *core.Instance, eng engine.Options, plan *adversary.Plan) (*lcl.Labeling, *core.EngineRunStats, error) {
	lvl, err := core.NewLevel(2)
	if err != nil {
		return nil, nil, err
	}
	det, _, err := lvl.EngineSolvers(engine.New(eng))
	if err != nil {
		return nil, nil, err
	}
	if err := det.SetRelayFault(plan); err != nil {
		return nil, nil, err
	}
	d, err := det.SolveDetailed(inst.G, inst.In, relaySolveSeed)
	if err != nil {
		return nil, nil, err
	}
	return d.Out, d.Engine, nil
}
