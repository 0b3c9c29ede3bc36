// Package solver is the unified runtime registry: every workload the
// repository can execute — engine-backed message-passing solvers,
// view-gathering solvers, network decomposition, and the padded
// hierarchy — behind one named entry with uniform instance construction,
// verification, and measurement. internal/scenario, cmd/lcl-run, and the
// experiment harness behind cmd/lcl-bench all consume this registry, so
// there is exactly one place where a solver name maps to code.
//
// The registry collapses the former split between "engine-aware" and
// "padded" solver worlds: padded entries construct their hierarchy
// instances and run the whole Lemma-4 pipeline on the sharded engine
// (core.EnginePaddedSolver) — including the inner algorithm as native
// machines over the payload relay plane — honoring the same engine
// parameters as every other message-passing entry and reporting real
// engine.Stats delivery counts. Padded entries are the rows of one table
// (paddedRows): a level, a sequential padded solver, and the plane that
// executes it — the engine, the engine with gather machines forced, or
// the sequential Lemma-4 oracle. Rows sharing (level, solver) must
// fingerprint identically cell for cell.
//
// Invariants:
//
//   - Byte-identity: every Outcome field except G/In/Out/Cost is
//     deterministic for its Request — identical across engine
//     worker/shard settings — which is what makes scenario reports
//     byte-diffable.
//   - Checksums fingerprint verified outputs only: every Run verifies
//     against the problem before fingerprinting, so two equal checksums
//     mean two identical, correct labelings.
//   - Loud failure at the declaration layer: family/solver constraint
//     violations (CycleOnly, Padded) are errors with stable messages,
//     and the CLIs and spec validator reject engine parameters aimed at
//     engine-unaware entries. Request.Engine itself is advisory: entries
//     that do not execute on the engine ignore it (callers that need
//     loud rejection validate through CheckFamily and the scenario
//     validator, as cmd/lcl-run and internal/scenario do).
package solver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/netdecomp"
	"locallab/internal/sinkless"
)

// PaddedFamily is the pseudo-family of hierarchy (Π₂) instances: sizes
// are base-graph node counts, and instances are built with
// core.BuildInstance rather than a graph generator.
const PaddedFamily = "padded"

// PaddedMinSize is core.BuildInstance's base-size floor.
const PaddedMinSize = core.MinBaseNodes

// Request names one grid cell: the instance family, its size and seed,
// and the engine the solver should execute on (nil means
// engine.Options{}; only meaningful for engine-aware entries).
type Request struct {
	// Family is a graph-family name, PaddedFamily, or "" for the entry's
	// DefaultFamily.
	Family string
	// N is the instance size (base-graph nodes for padded entries).
	N int
	// Seed drives instance construction and solver randomness.
	Seed int64
	// Engine configures engine-aware solvers; ignored by the rest.
	Engine *engine.Engine
}

// Outcome is one completed, verified cell measurement. Every field except
// G/In/Out/Cost is deterministic for the request, which is what makes
// scenario reports byte-diffable.
type Outcome struct {
	// Nodes and Edges are the actual instance shape.
	Nodes, Edges int
	// Rounds is the analytical round complexity (Cost.Rounds()).
	Rounds int
	// Stats is the engine execution profile (zero for solvers that do not
	// execute on the engine). Deterministic across worker/shard settings.
	Stats engine.Stats
	// RelayWords is the padded entries' relay-plane bandwidth: payload
	// words handed to the transport over the relay session, counted at
	// the senders, summed over every nesting level of a flattened tower
	// (zero for non-padded and oracle entries). Deterministic across
	// worker/shard settings.
	RelayWords int64
	// TowerDepth is the padded entries' hierarchy depth: the number of
	// padding layers of the Πᵢ tower (level−1, so 1 for Π₂, 2 for Π₃;
	// zero for non-padded entries). Engine entries run one engine layer
	// per padding level; oracle entries report the same depth so parity
	// cells stay byte-identical.
	TowerDepth int
	// Checksum fingerprints the verified output (FNV-1a 64).
	Checksum uint64
	// G, In, Out, Cost expose the instance and solution for callers that
	// inspect or dump them (cmd/lcl-run, examples). Out is nil for
	// non-labeling workloads (netdecomp). In is the cell's input: every
	// Run of a padded cell returns the same labeling, which its held
	// verifier has decoded, so callers must treat it as read-only.
	G    *graph.Graph
	In   *lcl.Labeling
	Out  *lcl.Labeling
	Cost *lcl.Cost
	// Padded carries the Lemma-4 diagnostics of padded entries.
	Padded *core.Detail
	// Instance is the padded entries' construction trail.
	Instance *core.Instance
	// Decomposition carries the verified decomposition of the netdecomp
	// entry.
	Decomposition *netdecomp.Decomposition
}

// Entry is one registry row: a named workload plus the constraints spec
// validation and CLIs enforce.
type Entry struct {
	// Name is the canonical registry key; Aliases are accepted by ByName
	// for backward-compatible CLI spellings.
	Name    string
	Aliases []string
	// Description is a one-line summary for listings.
	Description string
	// DefaultFamily is the family used when a request leaves it empty.
	DefaultFamily string
	// CycleOnly restricts the solver to the cycle families.
	CycleOnly bool
	// Padded marks solvers running on hierarchy instances; their sizes
	// are base-graph node counts.
	Padded bool
	// EngineAware marks solvers that execute on the sharded engine and
	// honor a request's engine parameters.
	EngineAware bool
	// Oracle marks sequential reference entries: centralized executions
	// kept as differential baselines for a native engine entry. Oracle
	// entries are exempt from the "padded entries run on the engine"
	// invariant and must fingerprint identically to their native
	// counterpart cell for cell.
	Oracle bool

	// Prepare builds one grid cell's instance — and whatever the entry
	// can pin for reuse: hierarchy instances, typed engine sessions — and
	// returns a runner executing the cell. One-shot callers use the Run
	// method instead; the serving layer holds Prepared cells in its
	// session pool to amortize construction across repeated requests.
	Prepare func(req Request) (Prepared, error)
}

// Prepared is one built grid cell: the instance is constructed and any
// reusable execution state (typed engine sessions with their message
// planes and worker pools, padded hierarchy instances) is held ready, so
// Run can be invoked repeatedly without paying construction again. Every
// Run re-solves the identical cell under the request's seed and must
// fingerprint identically each time — the serving layer's
// pooled-vs-fresh parity tests pin this. Prepared cells are not safe for
// concurrent use; Close releases pinned engine resources.
type Prepared interface {
	Run() (*Outcome, error)
	Close()
}

// prepared is the common Prepared implementation: a run closure over
// state built at Prepare time plus an optional release hook.
type prepared struct {
	run     func() (*Outcome, error)
	release func()
}

func (p *prepared) Run() (*Outcome, error) { return p.run() }

func (p *prepared) Close() {
	if p.release != nil {
		p.release()
	}
}

// Run measures one grid cell end to end: Prepare, a single Run, Close.
// It is the one-shot path the batch CLIs and the scenario grid use.
func (e Entry) Run(req Request) (*Outcome, error) {
	p, err := e.Prepare(req)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Run()
}

// CheckFamily validates a resolved family name against the entry's
// constraints.
func (e Entry) CheckFamily(family string) error {
	if e.Padded {
		if family != PaddedFamily {
			return fmt.Errorf("solver %q requires family %q", e.Name, PaddedFamily)
		}
		return nil
	}
	if family == PaddedFamily {
		return fmt.Errorf("solver %q does not run on padded instances", e.Name)
	}
	if _, ok := graph.FamilyByName(family); !ok {
		return fmt.Errorf("unknown graph family %q", family)
	}
	if e.CycleOnly && family != "cycle" && family != "cycle-advid" {
		return fmt.Errorf("solver %q runs on cycles only (family %q)", e.Name, family)
	}
	return nil
}

// lclRun solves a family cell's graph on input in, returning the engine
// profile of the execution beside the labeling (zero for solvers that do
// not execute on the engine); release, when non-nil, closes what run
// holds.
type lclRun struct {
	run     func(in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, engine.Stats, error)
	release func()
}

// solveOn is a plain solver's lclRun: Solve on the cell's graph.
func solveOn(s lcl.Solver) func(*graph.Graph) (lclRun, error) {
	return func(g *graph.Graph) (lclRun, error) {
		return lclRun{run: func(in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, engine.Stats, error) {
			out, cost, err := s.Solve(g, in, seed)
			return out, cost, engine.Stats{}, err
		}}, nil
	}
}

// lclPrepare builds a family instance once, hands its graph to hold, and
// returns a runner that solves through the returned lclRun, verifies
// against the problem, and fingerprints the labeling on every Run.
// Engine-aware rows hold their typed engine session on the graph here,
// so repeated Runs reuse the session's message planes and worker pool
// through Reset instead of rebuilding them.
func lclPrepare(req Request, p lcl.Problem, hold func(*graph.Graph) (lclRun, error)) (Prepared, error) {
	g, err := graph.BuildFamily(req.Family, req.N, req.Seed)
	if err != nil {
		return nil, err
	}
	r, err := hold(g)
	if err != nil {
		return nil, err
	}
	run := func() (*Outcome, error) {
		in := lcl.NewLabeling(g)
		out, cost, stats, err := r.run(in, req.Seed)
		if err != nil {
			return nil, err
		}
		if err := lcl.Verify(g, p, in, out); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		return &Outcome{
			Nodes:    g.NumNodes(),
			Edges:    g.NumEdges(),
			Rounds:   cost.Rounds(),
			Stats:    stats,
			Checksum: LabelingChecksum(out),
			G:        g,
			In:       in,
			Out:      out,
			Cost:     cost,
		}, nil
	}
	return &prepared{run: run, release: r.release}, nil
}

// paddedSolve is a bound SolveDetailed of one padded solver.
type paddedSolve func(g *graph.Graph, in *lcl.Labeling, seed int64) (*core.Detail, error)

// heldSolve binds an engine-backed padded solver to one cell: the first
// call prepares the solve on its instance (core.EnginePaddedSolver.
// Prepare), so construction errors still surface from Run, and every
// call runs the prepared solve. release closes it. The cell's instance
// never changes, so later calls ignore g and in.
func heldSolve(s *core.EnginePaddedSolver) (paddedSolve, func()) {
	var p *core.PreparedPadded
	solve := func(g *graph.Graph, in *lcl.Labeling, seed int64) (*core.Detail, error) {
		if p == nil {
			prep, err := s.Prepare(g, in)
			if err != nil {
				return nil, err
			}
			p = prep
		}
		return p.Run(seed)
	}
	release := func() {
		if p != nil {
			p.Close()
		}
	}
	return solve, release
}

// paddedPlane is where a padded row executes.
type paddedPlane int

const (
	// planeEngine runs the whole Lemma-4 pipeline — Ψ fixpoint machines
	// and the inner algorithm — on the sharded engine, the inner as native
	// machines over the payload relay plane where it has a registered
	// protocol and as gather machines otherwise. Levels above 2 flatten
	// the Π-tower: every padding layer is its own engine run
	// (core.EngineTower), so no layer falls back to a centralized solve.
	planeEngine paddedPlane = iota
	// planeGather is planeEngine with gather machines forced
	// (EnginePaddedSolver.ForceGather): the bandwidth baseline a native
	// inner is compared against.
	planeGather
	// planeOracle is the sequential Lemma-4 reference (centralized Ψ walk
	// + one centralized inner Solve per padding level) the engine rows are
	// differential-tested against.
	planeOracle
)

// paddedInner names a row's sequential padded solver.
type paddedInner int

const (
	innerDet     paddedInner = iota // the level's Det tower
	innerRand                       // the level's Rand tower
	innerMessage                    // padded sinkless message solver, the inner with a native protocol
)

// solver returns the sequential padded solver k names at lvl. The padded
// message solver's inner runs on eng wherever it solves a whole graph:
// as the oracle's inner Solve and as the gather relay's leaf solve.
func (k paddedInner) solver(lvl *core.Level, eng *engine.Engine) lcl.Solver {
	switch k {
	case innerDet:
		return lvl.Det
	case innerRand:
		return lvl.Rand
	}
	ms := sinkless.NewMessageSolver()
	ms.Engine = eng
	return core.NewPaddedSolver(ms, core.LevelDelta(lvl.Index))
}

// paddedRow is one padded registry entry: a hierarchy level, the
// sequential padded solver, and the plane that executes it. Every engine
// and gather row is built from the very solver its oracle row runs, so
// rows sharing (level, inner) fingerprint identically cell for cell.
type paddedRow struct {
	name, description string
	level             int
	inner             paddedInner
	plane             paddedPlane
}

// paddedRows are the padded entries in canonical registry order.
var paddedRows = []paddedRow{
	{"pi2-det", "Π₂ = padded(sinkless) on the sharded engine, deterministic (Θ(log² n)); sizes are base-graph nodes", 2, innerDet, planeEngine},
	{"pi2-rand", "Π₂ = padded(sinkless) on the sharded engine, randomized (Θ(log n·loglog n)); sizes are base-graph nodes", 2, innerRand, planeEngine},
	{"pi3-det", "Π₃ = padded(padded(sinkless)) flattened onto the engine, deterministic (Θ(log³ n)): every padding layer its own engine run; sizes are base-graph nodes", 3, innerDet, planeEngine},
	{"pi3-rand", "Π₃ = padded(padded(sinkless)) flattened onto the engine, randomized (Θ(log² n·loglog n)): every padding layer its own engine run; sizes are base-graph nodes", 3, innerRand, planeEngine},
	{"pi2-rand-native", "Π₂ with the sinkless message solver as inner, run as native constant-bandwidth port machines over the relay plane", 2, innerMessage, planeEngine},
	{"pi2-rand-gather", "Π₂ with the sinkless message solver as inner, forced onto gather machines — the bandwidth baseline for pi2-rand-native", 2, innerMessage, planeGather},
	{"pi2-det-oracle", "Π₂ sequential Lemma-4 oracle, deterministic — reference for the native-machine pi2-det (identical checksums)", 2, innerDet, planeOracle},
	{"pi2-rand-oracle", "Π₂ sequential Lemma-4 oracle, randomized — reference for the native-machine pi2-rand (identical checksums)", 2, innerRand, planeOracle},
	{"pi3-det-oracle", "Π₃ sequential tower oracle, deterministic — reference for the flattened pi3-det (identical checksums)", 3, innerDet, planeOracle},
	{"pi3-rand-oracle", "Π₃ sequential tower oracle, randomized — reference for the flattened pi3-rand (identical checksums)", 3, innerRand, planeOracle},
	{"pi2-rand-native-oracle", "Π₂ sequential Lemma-4 oracle over the sinkless message solver — reference for pi2-rand-native and pi2-rand-gather (identical checksums)", 2, innerMessage, planeOracle},
}

// entry derives the registry Entry of a padded row.
func (r paddedRow) entry() Entry {
	return Entry{
		Name:          r.name,
		Description:   r.description,
		DefaultFamily: PaddedFamily,
		Padded:        true,
		EngineAware:   r.plane != planeOracle,
		Oracle:        r.plane == planeOracle,
		Prepare:       r.prepare,
	}
}

// prepare builds a balanced level instance once — BuildInstance is by
// far the dominant construction cost of padded cells — and returns a
// runner executing the row's solve on it. An oracle row runs its
// sequential solver; an engine or gather row runs that solver's engine
// tower and holds the prepared top-level solve across Runs (heldSolve),
// recording the engine profile (Stats, RelayWords). Every row verifies
// through a verifier holding the input's Π′ projection. The nested
// per-component solves and verifies of a tower stay one-shot, because
// their reconstructed graphs are new on every Run.
func (r paddedRow) prepare(req Request) (Prepared, error) {
	lvl, err := core.NewLevel(r.level)
	if err != nil {
		return nil, err
	}
	solve, release, err := r.solver(lvl, req.Engine)
	if err != nil {
		return nil, err
	}
	inst, err := core.BuildInstance(r.level, core.InstanceOptions{BaseNodes: req.N, Seed: req.Seed, Balanced: true})
	if err != nil {
		return nil, err
	}
	// No solver writes to its input, so every Run reads the cell's one
	// input labeling, and the verifier built at the first Run holds its
	// decoded projection; only the output is decoded and checked per Run,
	// starting from the label table its assembly built.
	var verify func(out *lcl.Labeling, labels *core.OutputLabels) error
	run := func() (*Outcome, error) {
		d, err := solve(inst.G, inst.In, req.Seed)
		if err != nil {
			return nil, err
		}
		if verify == nil {
			verify = lvl.Verifier(inst.G, inst.In)
		}
		err = verify(d.Out, d.Labels)
		d.Labels = nil // the table served its one verify; no Outcome keeps it
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		o := &Outcome{
			Nodes:      inst.G.NumNodes(),
			Edges:      inst.G.NumEdges(),
			Rounds:     d.Cost.Rounds(),
			Checksum:   LabelingChecksum(d.Out),
			TowerDepth: r.level - 1,
			G:          inst.G,
			In:         inst.In,
			Out:        d.Out,
			Cost:       d.Cost,
			Padded:     d,
			Instance:   inst,
		}
		if r.plane != planeOracle {
			o.Stats = engine.Stats{Rounds: d.Engine.Rounds(), Deliveries: d.Engine.Deliveries()}
			o.RelayWords = d.Engine.TotalRelayWords()
		}
		return o, nil
	}
	return &prepared{run: run, release: release}, nil
}

// solver returns the row's solve at lvl: the sequential padded solver
// for an oracle row, else its engine tower held across calls, with the
// release of the held solve.
func (r paddedRow) solver(lvl *core.Level, eng *engine.Engine) (paddedSolve, func(), error) {
	ps, ok := r.inner.solver(lvl, eng).(*core.PaddedSolver)
	if !ok {
		return nil, nil, fmt.Errorf("level %d has no sequential padded solver", r.level)
	}
	if r.plane == planeOracle {
		return ps.SolveDetailed, func() {}, nil
	}
	s := core.EngineTower(ps, eng)
	s.ForceGather = r.plane == planeGather
	solve, release := heldSolve(s)
	return solve, release, nil
}

// Registry returns the unified registry in canonical order.
func Registry() []Entry {
	entries := []Entry{
		{
			Name:          "cole-vishkin",
			Aliases:       []string{"3coloring"},
			Description:   "3-coloring of cycles via Cole–Vishkin on the sharded engine (Θ(log* n))",
			DefaultFamily: "cycle",
			CycleOnly:     true,
			EngineAware:   true,
			Prepare: func(req Request) (Prepared, error) {
				s := coloring.NewCVSolver()
				s.Engine = req.Engine
				return lclPrepare(req, coloring.Three{}, func(g *graph.Graph) (lclRun, error) {
					cs, err := s.NewSession(g)
					if err != nil {
						return lclRun{}, err
					}
					return lclRun{run: cs.Run, release: cs.Close}, nil
				})
			},
		},
		{
			Name:          "mis",
			Description:   "maximal independent set on cycles via coloring (Θ(log* n))",
			DefaultFamily: "cycle",
			CycleOnly:     true,
			Prepare: func(req Request) (Prepared, error) {
				return lclPrepare(req, coloring.MIS{}, solveOn(coloring.NewMISSolver()))
			},
		},
		{
			Name:          "matching",
			Description:   "maximal matching on cycles via coloring (Θ(log* n))",
			DefaultFamily: "cycle",
			CycleOnly:     true,
			Prepare: func(req Request) (Prepared, error) {
				return lclPrepare(req, coloring.MaximalMatching{}, solveOn(coloring.NewMatchingSolver()))
			},
		},
		{
			Name:          "orientation",
			Description:   "consistent cycle orientation (Θ(n), the global corner)",
			DefaultFamily: "cycle",
			CycleOnly:     true,
			Prepare: func(req Request) (Prepared, error) {
				return lclPrepare(req, coloring.ConsistentOrientation{}, solveOn(coloring.GlobalOrientationSolver{}))
			},
		},
		{
			Name:          "trivial",
			Description:   "the trivial problem (0 rounds) on any family",
			DefaultFamily: "regular",
			Prepare: func(req Request) (Prepared, error) {
				return lclPrepare(req, coloring.Trivial{}, solveOn(coloring.TrivialSolver{}))
			},
		},
		{
			Name:          "sinkless-det",
			Description:   "sinkless orientation, deterministic cycle-potential solver (Θ(log n))",
			DefaultFamily: "regular",
			Prepare: func(req Request) (Prepared, error) {
				return lclPrepare(req, sinkless.Problem{}, solveOn(sinkless.NewDetSolver()))
			},
		},
		{
			Name:          "sinkless-rand",
			Description:   "sinkless orientation, randomized claims+repair solver (Θ(loglog n)-shaped)",
			DefaultFamily: "regular",
			Prepare: func(req Request) (Prepared, error) {
				return lclPrepare(req, sinkless.Problem{}, solveOn(sinkless.NewRandSolver()))
			},
		},
		{
			Name:          "sinkless-msg",
			Description:   "sinkless orientation via message passing on the sharded engine",
			DefaultFamily: "regular",
			EngineAware:   true,
			Prepare: func(req Request) (Prepared, error) {
				s := sinkless.NewMessageSolver()
				s.Engine = req.Engine
				return lclPrepare(req, sinkless.Problem{}, func(g *graph.Graph) (lclRun, error) {
					ms, err := s.NewSession(g)
					if err != nil {
						return lclRun{}, err
					}
					return lclRun{run: ms.Run, release: ms.Close}, nil
				})
			},
		},
		{
			Name:          "netdecomp",
			Description:   "deterministic (O(log n), O(log n)) network decomposition by ball carving",
			DefaultFamily: "regular",
			Prepare: func(req Request) (Prepared, error) {
				g, err := graph.BuildFamily(req.Family, req.N, req.Seed)
				if err != nil {
					return nil, err
				}
				run := func() (*Outcome, error) {
					dec, cost, err := netdecomp.Build(g, netdecomp.Options{})
					if err != nil {
						return nil, err
					}
					if err := netdecomp.Verify(g, dec); err != nil {
						return nil, fmt.Errorf("verify: %w", err)
					}
					return &Outcome{
						Nodes:         g.NumNodes(),
						Edges:         g.NumEdges(),
						Rounds:        cost.Rounds(),
						Checksum:      DecompositionChecksum(dec),
						G:             g,
						Cost:          cost,
						Decomposition: dec,
					}, nil
				}
				return &prepared{run: run}, nil
			},
		},
	}
	for _, r := range paddedRows {
		entries = append(entries, r.entry())
	}
	return entries
}

// extra holds entries added at runtime via Register, after the builtin
// registry in registration order.
var (
	extraMu sync.Mutex
	extra   []Entry
)

// Register adds a runtime entry to the registry (after the builtins, in
// registration order) and returns a function that removes it again.
// It rejects entries whose name or aliases collide with an existing
// entry. The intended use is test instrumentation — e.g. the serving
// layer registering a deliberately faulty solver to exercise its
// failure paths — so production registries stay declarative.
func Register(e Entry) (func(), error) {
	if e.Name == "" {
		return nil, fmt.Errorf("solver: register: empty name")
	}
	if e.Prepare == nil {
		return nil, fmt.Errorf("solver: register %q: nil Prepare", e.Name)
	}
	for _, name := range append([]string{e.Name}, e.Aliases...) {
		if _, ok := ByName(name); ok {
			return nil, fmt.Errorf("solver: register %q: name %q already registered", e.Name, name)
		}
	}
	extraMu.Lock()
	defer extraMu.Unlock()
	extra = append(extra, e)
	name := e.Name
	return func() {
		extraMu.Lock()
		defer extraMu.Unlock()
		for i := range extra {
			if extra[i].Name == name {
				extra = append(extra[:i], extra[i+1:]...)
				return
			}
		}
	}, nil
}

// allEntries is the builtin registry plus runtime registrations.
func allEntries() []Entry {
	entries := Registry()
	extraMu.Lock()
	entries = append(entries, extra...)
	extraMu.Unlock()
	return entries
}

// ByName looks an entry up by its canonical name or an alias.
func ByName(name string) (Entry, bool) {
	for _, e := range allEntries() {
		if e.Name == name {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, true
			}
		}
	}
	return Entry{}, false
}

// Names returns the canonical registry names in canonical order,
// runtime registrations last.
func Names() []string {
	entries := allEntries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// DecompositionChecksum fingerprints a network decomposition: cluster
// assignment, cluster colors, and the reported radius/color counts.
func DecompositionChecksum(d *netdecomp.Decomposition) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	writeInt := func(x int) {
		n := binary.PutVarint(buf[:], int64(x))
		h.Write(buf[:n])
	}
	for _, c := range d.Cluster {
		writeInt(c)
	}
	h.Write([]byte{0xff})
	for _, c := range d.Color {
		writeInt(c)
	}
	h.Write([]byte{0xff})
	writeInt(d.Radius)
	writeInt(d.Colors)
	return h.Sum64()
}
