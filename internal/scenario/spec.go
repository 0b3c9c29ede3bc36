// Package scenario is the declarative workload subsystem: a JSON spec
// names a graph family, a size × seed grid, a solver, and engine
// parameters; the runner fans the grid through the sharded engine (via
// measure.FanOut) and emits a structured, machine-readable report
// whose canonical JSON is byte-identical across runs and worker counts —
// the format CI records as a per-commit benchmark artifact. The report
// schema (locallab.report/v1) is documented in docs/REPORT_SCHEMA.md.
//
// Invariants:
//
//   - Canonical report ordering: scenarios in spec order, cells in
//     size-major (size × seed) grid order, fixed JSON field order,
//     two-space indent, trailing newline.
//   - Byte-identity: every report field except the opt-in wall_nanos is
//     deterministic for the spec — independent of grid workers, engine
//     workers/shards, and scheduling — so whole reports can be cmp'd.
//   - Loud failure: spec validation rejects unknown fields and names
//     with exact, tested error messages, and runtime flags that cannot
//     take effect (shard overrides without an engine-aware scenario, an
//     explicit grid width conflicting with spec-pinned engine workers)
//     are errors, never silent no-ops.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"locallab/internal/graph"
	"locallab/internal/solver"
)

// PaddedFamily is the pseudo-family of hierarchy (Π₂) instances: sizes
// are base-graph node counts, and instances are built with
// core.BuildInstance rather than a graph generator.
const PaddedFamily = solver.PaddedFamily

// PaddedMinSize is core.BuildInstance's base-size floor, re-exported for
// listings.
const PaddedMinSize = solver.PaddedMinSize

// EngineParams are the sharded-engine knobs a scenario may pin. They only
// affect scheduling, never outputs: the engine is deterministic across
// every workers/shards setting.
type EngineParams struct {
	// Workers is the engine worker-pool size for engine-aware solvers
	// (0 = engine default).
	Workers int `json:"workers,omitempty"`
	// Shards is the engine shard count (0 = engine default).
	Shards int `json:"shards,omitempty"`
}

// Scenario is one declarative workload: a (family, solver) pair swept
// over a size × seed grid.
type Scenario struct {
	Name   string       `json:"name"`
	Family string       `json:"family"`
	Solver string       `json:"solver"`
	Sizes  []int        `json:"sizes"`
	Seeds  []int64      `json:"seeds"`
	Engine EngineParams `json:"engine,omitzero"`
}

// Spec is a named collection of scenarios — the top-level document of a
// spec file.
type Spec struct {
	Name      string     `json:"name"`
	Scenarios []Scenario `json:"scenarios"`
}

// Load parses and validates a spec. Two document shapes are accepted: a
// full spec ({"name": ..., "scenarios": [...]}) or a single scenario
// object, which is wrapped into a one-scenario spec of the same name.
// Unknown fields are rejected, so typos fail loudly instead of silently
// running a default.
func Load(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var probe struct {
		Scenarios json.RawMessage `json:"scenarios"`
	}
	_ = json.Unmarshal(data, &probe)
	spec := &Spec{}
	if probe.Scenarios != nil {
		if err := strictDecode(data, spec); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	} else {
		var sc Scenario
		if err := strictDecode(data, &sc); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		spec.Name = sc.Name
		spec.Scenarios = []Scenario{sc}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// LoadFile is Load on a file path.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	defer f.Close()
	return Load(f)
}

func strictDecode(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Validate checks the spec against the family and solver registries. The
// error messages are part of the package's contract (tests assert them
// exactly), so tooling can rely on their shape.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: missing name")
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("spec: no scenarios")
	}
	seen := map[string]bool{}
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		if sc.Name == "" {
			return fmt.Errorf("spec: scenario %d missing name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("spec: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (sc *Scenario) validate() error {
	return sc.validateAs(fmt.Sprintf("scenario %q", sc.Name))
}

// validateAs checks one scenario's (family, solver, grid, engine) shape,
// prefixing errors with subject — `scenario "name"` for spec scenarios,
// `cell` for single-cell serving requests — so the exact tested message
// bodies are shared by both entry points.
func (sc *Scenario) validateAs(subject string) error {
	sol, ok := solver.ByName(sc.Solver)
	if !ok {
		return fmt.Errorf("%s: unknown solver %q (known: %s)",
			subject, sc.Solver, strings.Join(solver.Names(), ", "))
	}
	minSize := PaddedMinSize
	if sc.Family != PaddedFamily {
		f, ok := graph.FamilyByName(sc.Family)
		if !ok {
			return fmt.Errorf("%s: unknown graph family %q (known: %s, %s)",
				subject, sc.Family, strings.Join(graph.FamilyNames(), ", "), PaddedFamily)
		}
		minSize = f.MinSize
	}
	if err := sol.CheckFamily(sc.Family); err != nil {
		return fmt.Errorf("%s: %w", subject, err)
	}
	if len(sc.Sizes) == 0 {
		return fmt.Errorf("%s: no sizes", subject)
	}
	if len(sc.Seeds) == 0 {
		return fmt.Errorf("%s: no seeds", subject)
	}
	sizeSeen := map[int]bool{}
	for _, n := range sc.Sizes {
		if n < minSize {
			return fmt.Errorf("%s: size %d below family %q minimum %d", subject, n, sc.Family, minSize)
		}
		if sizeSeen[n] {
			return fmt.Errorf("%s: duplicate size %d", subject, n)
		}
		sizeSeen[n] = true
	}
	seedSeen := map[int64]bool{}
	for _, seed := range sc.Seeds {
		if seedSeen[seed] {
			return fmt.Errorf("%s: duplicate seed %d", subject, seed)
		}
		seedSeen[seed] = true
	}
	if !sol.EngineAware && (sc.Engine.Workers != 0 || sc.Engine.Shards != 0) {
		return fmt.Errorf("%s: solver %q does not take engine parameters", subject, sc.Solver)
	}
	if sc.Engine.Workers < 0 || sc.Engine.Shards < 0 {
		return fmt.Errorf("%s: negative engine parameters", subject)
	}
	return nil
}
