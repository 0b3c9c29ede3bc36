package experiments

import (
	"fmt"
)

// Experiment is one registered artifact generator: a stable identifier
// (the E-* ids that lcl-bench -only selects and its reports carry) plus
// its runner.
type Experiment struct {
	ID  string
	Run func(Scale) (*Result, error)
}

// Registry lists every experiment in canonical order, the order the
// harness runs them in. sweepWorkers is the grid width of the two
// experiments that sweep, E-F1 and E-T11 (see measure.Sweep); every
// other experiment runs inline.
func Registry(sweepWorkers int) []Experiment {
	return []Experiment{
		{ID: "E-F1", Run: func(sc Scale) (*Result, error) { return Fig1Landscape(sc, sweepWorkers) }},
		{ID: "E-F2", Run: Fig2Padding},
		{ID: "E-F3", Run: Fig3SinklessChecker},
		{ID: "E-F4", Run: Fig4PortMapping},
		{ID: "E-F5", Run: Fig5SubGadget},
		{ID: "E-F6", Run: Fig6Gadget},
		{ID: "E-F7", Run: Fig7ColorProof},
		{ID: "E-F8", Run: Fig8ChainProof},
		{ID: "E-T1", Run: Thm1Transform},
		{ID: "E-T6", Run: Thm6GadgetFamily},
		{ID: "E-T11", Run: func(sc Scale) (*Result, error) { return Thm11Hierarchy(sc, sweepWorkers) }},
		{ID: "E-E1", Run: EnginePaddedParity},
		{ID: "E-E2", Run: RelayDeliveryComparison},
		{ID: "E-A1", Run: AblationBalance},
		{ID: "E-A2", Run: AblationRandRepair},
		{ID: "E-D1", Run: DiscussionNetDecomp},
		{ID: "E-L1", Run: LowerBoundWitness},
		{ID: "E-A3", Run: AblationDoubling},
		{ID: "E-A4", Run: AblationMessageProtocol},
	}
}

// Harness runs the selected experiments one after another in Registry
// order. Its one width, SweepWorkers, is how many (size × seed) cells
// each measurement sweep runs at once; it is the only layer that
// parallelises, since every engine-aware solver inside a cell runs on a
// one-worker engine (serialEngine). Results are identical at every
// width: every experiment derives all randomness from fixed seeds.
type Harness struct {
	// Scale selects quick or full experiment sizes.
	Scale Scale
	// SweepWorkers is the sweep-grid width; <= 1 sweeps inline.
	SweepWorkers int
	// Only restricts the run to the given experiment ids (nil or empty
	// runs everything).
	Only map[string]bool
}

// Run executes the selected experiments and returns their results in
// Registry order. An unknown id in Only fails before anything runs. On
// failure it returns the results of the experiments before the failing
// one plus its error.
func (h *Harness) Run() ([]*Result, error) {
	var selected []Experiment
	for _, e := range Registry(h.SweepWorkers) {
		if len(h.Only) == 0 || h.Only[e.ID] {
			selected = append(selected, e)
		}
	}
	if len(h.Only) > 0 && len(selected) != len(h.Only) {
		seen := map[string]bool{}
		for _, e := range selected {
			seen[e.ID] = true
		}
		for id := range h.Only {
			if !seen[id] {
				return nil, fmt.Errorf("unknown experiment id %q", id)
			}
		}
	}
	out := make([]*Result, 0, len(selected))
	for _, e := range selected {
		r, err := e.Run(h.Scale)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
