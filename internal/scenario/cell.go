package scenario

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/solver"
)

// CellRequest names one grid cell — the unit of work the serving layer
// accepts: a (family, solver, n, seed) point plus engine parameters.
// It is validated against the same registries and with the same tested
// error-message bodies as a scenario spec, just prefixed "cell".
type CellRequest struct {
	Family string       `json:"family"`
	Solver string       `json:"solver"`
	N      int          `json:"n"`
	Seed   int64        `json:"seed"`
	Engine EngineParams `json:"engine,omitzero"`
}

// scenario wraps the request into a one-cell scenario so validation and
// grid semantics stay single-sourced.
func (c *CellRequest) scenario() *Scenario {
	return &Scenario{
		Name:   "cell",
		Family: c.Family,
		Solver: c.Solver,
		Sizes:  []int{c.N},
		Seeds:  []int64{c.Seed},
		Engine: c.Engine,
	}
}

// Validate checks the request against the family and solver registries.
// Error messages are part of the contract (the serving handler returns
// them verbatim and tests assert them exactly).
func (c *CellRequest) Validate() error {
	if c.Solver == "" {
		return fmt.Errorf("cell: missing solver")
	}
	if c.Family == "" {
		return fmt.Errorf("cell: missing family")
	}
	return c.scenario().validateAs("cell")
}

// CellRunner is a prepared cell: the graph (or padded instance) and any
// reusable solver session are built once at construction, and every Run
// re-executes the solve on that pinned instance. Runs are deterministic —
// repeated Run calls return identical results, byte-for-byte the same
// CellResult a fresh lcl-scenario run of the cell would report — which is
// what lets the serving layer pool runners across requests. A CellRunner
// is not safe for concurrent use; Close releases pinned resources.
type CellRunner struct {
	req  CellRequest
	prep solver.Prepared
}

// NewRunner validates the request and prepares its instance on the
// request's cell engine (cellEngine), the one runScenario gives it.
func NewRunner(req CellRequest) (*CellRunner, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sol, _ := solver.ByName(req.Solver)
	prep, err := sol.Prepare(solver.Request{Family: req.Family, N: req.N, Seed: req.Seed, Engine: cellEngine(sol, req.Engine)})
	if err != nil {
		return nil, fmt.Errorf("cell: %w", err)
	}
	return &CellRunner{req: req, prep: prep}, nil
}

// cellEngine is the engine a scenario cell of sol runs on: nil for a
// solver that does not execute on the engine, else p with workers
// defaulting to 1, because the grid is the layer that parallelises.
func cellEngine(sol solver.Entry, p EngineParams) *engine.Engine {
	if !sol.EngineAware {
		return nil
	}
	w := p.Workers
	if w <= 0 {
		w = 1
	}
	return engine.New(engine.Options{Workers: w, Shards: p.Shards})
}

// Request returns the cell the runner was prepared for.
func (r *CellRunner) Request() CellRequest { return r.req }

// Run executes the prepared cell and maps the outcome to the report
// schema's CellResult — the same mapping runScenario uses, so a served
// cell fragment is byte-identical to the lcl-scenario report cell.
func (r *CellRunner) Run() (*CellResult, error) {
	o, err := r.prep.Run()
	if err != nil {
		return nil, fmt.Errorf("cell: %w", err)
	}
	res := newCellResult(r.req.N, r.req.Seed, o)
	return &res, nil
}

// Close releases the prepared instance. The runner must not be used
// after.
func (r *CellRunner) Close() { r.prep.Close() }

// RunCell is the one-shot form: validate, prepare, run once, release.
func RunCell(req CellRequest) (*CellResult, error) {
	r, err := NewRunner(req)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Run()
}

// newCellResult maps a solver outcome to the report cell schema. Both
// runScenario and CellRunner.Run go through it, which is what pins the
// served-vs-scenario byte-identity contract to one place.
func newCellResult(n int, seed int64, o *solver.Outcome) CellResult {
	return CellResult{
		N:          n,
		Seed:       seed,
		Nodes:      o.Nodes,
		Edges:      o.Edges,
		Rounds:     o.Rounds,
		Messages:   o.Stats.Deliveries,
		RelayWords: o.RelayWords,
		TowerDepth: o.TowerDepth,
		Checksum:   fmt.Sprintf("%016x", o.Checksum),
	}
}
