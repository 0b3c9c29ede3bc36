package campaign

import (
	"fmt"
	"runtime"

	"locallab/internal/adversary"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/measure"
	"locallab/internal/solver"
)

// Cell classes: structural faults corrupt the instance before the run,
// delivery faults corrupt the execution through the engine interceptor.
const (
	classStructural = "structural"
	classDelivery   = "delivery"
)

// RunOptions tune campaign execution without affecting report bytes.
type RunOptions struct {
	// GridWorkers bounds concurrent cells (0 = GOMAXPROCS).
	GridWorkers int
	// EngineWorkers / EngineShards override every scenario's pinned
	// engine geometry — the lever CI uses to prove reports are
	// byte-identical across geometries (0 = keep the scenario's value).
	EngineWorkers int
	EngineShards  int
}

// Run executes every (scenario, fault, seed) cell of the spec and
// reduces it to a machine-checked verdict. Cells run concurrently but
// land in deterministic fault-major, seed-minor order, so the report is
// byte-identical for any GridWorkers and any engine geometry.
func Run(spec *Spec, opts RunOptions) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Schema: SchemaVersion, Tool: "lcl-campaign", Name: spec.Name}
	for i := range spec.Scenarios {
		sr, err := runScenario(&spec.Scenarios[i], opts)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, *sr)
	}
	rep.tally()
	return rep, nil
}

func runScenario(sc *Scenario, opts RunOptions) (*ScenarioResult, error) {
	if sc.Plane == PlaneRelay {
		return runRelayScenario(sc, opts)
	}
	gd, err := gadget.BuildUniform(sc.Delta, sc.Height)
	if err != nil {
		return nil, fmt.Errorf("campaign scenario %q: %w", sc.Name, err)
	}
	cells, err := runCellGrid(sc, opts, func(f adversary.Fault, seed int64, eng engine.Options) (CellResult, error) {
		return runCell(gd, eng, f, seed)
	})
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{
		Name:   sc.Name,
		Delta:  sc.Delta,
		Height: sc.Height,
		Nodes:  gd.NumNodes(),
		Engine: sc.Engine,
		Cells:  cells,
	}, nil
}

// engineOptions resolves the scenario's pinned engine geometry against
// the run-level overrides.
func engineOptions(sc *Scenario, opts RunOptions) engine.Options {
	eng := engine.Options{Workers: sc.Engine.Workers, Shards: sc.Engine.Shards}
	if opts.EngineWorkers > 0 {
		eng.Workers = opts.EngineWorkers
	}
	if opts.EngineShards > 0 {
		eng.Shards = opts.EngineShards
	}
	return eng
}

// runCellGrid sweeps the scenario's fault × seed grid through runOne,
// GridWorkers cells at once (measure.FanOut). Cells land in
// deterministic fault-major, seed-minor order regardless of the width.
func runCellGrid(sc *Scenario, opts RunOptions,
	runOne func(f adversary.Fault, seed int64, eng engine.Options) (CellResult, error)) ([]CellResult, error) {

	eng := engineOptions(sc, opts)
	faults := sc.faults()
	seeds := len(sc.Seeds)
	workers := opts.GridWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cells := make([]CellResult, len(faults)*seeds)
	err := measure.FanOut(len(cells), workers, nil, func(i int) error {
		f, seed := faults[i/seeds], sc.Seeds[i%seeds]
		var err error
		if cells[i], err = runOne(f, seed, eng); err != nil {
			return fmt.Errorf("campaign scenario %q: fault %s seed %d: %w", sc.Name, f.ID, seed, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// runCell executes one (fault, seed) cell and applies the verdict
// rules. The shared gadget is read-only: structural faults corrupt a
// clone, delivery faults only read the topology while compiling.
func runCell(gd *gadget.Gadget, eng engine.Options, f adversary.Fault, seed int64) (CellResult, error) {
	vf := &errorproof.Verifier{Delta: gd.Delta}
	cell := CellResult{
		Fault: f.ID,
		Kind:  string(f.Kind),
		Seed:  seed,
	}
	var g *graph.Graph
	var in *lcl.Labeling
	var plan *adversary.Plan
	var err error
	if f.Delivery() {
		cell.Class = classDelivery
		g, in = gd.G, gd.In
		if plan, err = f.Compile(gd, seed); err != nil {
			return cell, err
		}
	} else {
		cell.Class = classStructural
		if g, in, err = f.ApplyStructural(gd, seed); err != nil {
			return cell, err
		}
	}
	// The fault runner and the Ψ check read one parse of the node inputs.
	vf.Inputs = gadget.ParseNodeInputs(in)
	fr, err := vf.RunEngineUnderFaults(g, in, g.NumNodes(), eng, plan)
	if err != nil {
		return cell, err
	}
	cell.LatencyRounds = fr.FirstFlag
	cell.Rounds = fr.Rounds
	cell.Deliveries = fr.Deliveries
	cell.Checksum = fmt.Sprintf("%016x", solver.LabelingChecksum(fr.Out))

	psiOK := lcl.Verify(g, &errorproof.Psi{Delta: gd.Delta, Inputs: vf.Inputs}, in, fr.Out) == nil
	if f.Delivery() {
		cell.Verdict = deliveryVerdict(g, fr, psiOK)
		return cell, nil
	}
	cell.Verdict = structuralVerdict(g, in, gd.Delta, fr, psiOK, &cell)
	return cell, nil
}

// structuralVerdict: a corrupted instance is detected iff the engine's
// converged output is a Ψ-valid error labeling whose Error-labeled set
// is exactly the non-empty node set the centralized gadget checker
// condemns, flagged before any message moved. Anything short of that is
// a hard failure — including flagging the wrong nodes.
func structuralVerdict(g *graph.Graph, in *lcl.Labeling, delta int, fr *errorproof.FaultRun, psiOK bool, cell *CellResult) Verdict {
	checker := &gadget.Checker{Delta: delta}
	allErr := true
	for v := range fr.Out.Node {
		id := graph.NodeID(v)
		expected := checker.CheckNode(g, in, id) != nil
		flagged := fr.Out.Node[v] == errorproof.LabError
		if expected {
			cell.ExpectedNodes++
		}
		if flagged {
			cell.FlaggedNodes++
		}
		if expected != flagged {
			allErr = false
		}
		if !errorproof.IsErrorLabel(fr.Out.Node[v]) {
			allErr = false
		}
	}
	if cell.ExpectedNodes > 0 && allErr && psiOK && fr.FirstFlag == 0 {
		return VerdictDetected
	}
	return VerdictSilent
}

// deliveryVerdict: a delivery fault on a valid instance is absorbed
// (degraded-but-valid) iff the run still converged to the unique
// Ψ-valid all-GadOk output; it is detected iff the Ψ ne-LCL checker
// rejects the corrupted output. A Ψ-valid non-GadOk output on a valid
// gadget would be silent corruption — provably impossible, and CI
// keeps it that way.
func deliveryVerdict(g *graph.Graph, fr *errorproof.FaultRun, psiOK bool) Verdict {
	nodes := make([]graph.NodeID, g.NumNodes())
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
	}
	switch {
	case errorproof.AllGadOk(fr.Out, nodes) && psiOK:
		return VerdictDegraded
	case !psiOK:
		return VerdictDetected
	default:
		return VerdictSilent
	}
}
