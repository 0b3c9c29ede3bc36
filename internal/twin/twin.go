// Package twin is the analytical cost twin: a predictive model of
// per-cell cost — rounds, deliveries, relay words, and wall-clock — as a
// function of (family, n, solver, workers, shards). The analytical
// skeleton comes from the paper's complexity landscape (the same growth
// classes measure.Models fits experiment sweeps against, and that
// lcl.Cost realizes per run); the constants are calibrated by
// least-squares from any locallab.report/v1 report and serialized as a
// canonical locallab.twin/v1 artifact (TWIN_0.json at the repo root).
//
// The twin is a scheduling oracle, never a source of truth: predictions
// drive worker splits (scenario autoscaling) and admission accounting
// (serve Retry-After and Prewarm ordering), and none of those paths may change any byte of any
// report. The byte-identity grids pin that contract.
//
// Invariants:
//
//   - Geometry invariance: Predict's Nodes, Edges, Rounds, Deliveries,
//     and RelayWords depend only on (family, solver, n) — never on
//     workers or shards. Only WallNs models the pool geometry.
//   - Determinism: calibrating the same report bytes yields the same
//     artifact bytes on every host (all float arithmetic is written as
//     single-operation statements, so no FMA contraction can change
//     results across compilers/architectures).
//   - Error transparency: the artifact records the twin-vs-measured
//     relative error over every calibration cell plus the pinned
//     tolerance; the CI twin-smoke job gates on both.
package twin

import (
	"fmt"
	"math"

	"locallab/internal/measure"
)

// SchemaVersion identifies the twin JSON schema.
const SchemaVersion = "locallab.twin/v1"

// DefaultTolerance is the pinned relative-error budget: calibration must
// land every baseline cell's rounds/deliveries/relay_words prediction
// within this relative error (the CI twin-smoke gate enforces it). The
// value is set by the worst fit on BENCH_0.json — the scale-only
// Cole–Vishkin rounds fit (log*(64) == log*(256) makes the basis
// singular) predicts 9 rounds where one cell measured 10 (rel 0.10) —
// plus headroom for nightly drift.
const DefaultTolerance = 0.15

// LinFit is a one-dimensional affine fit y ≈ Scale·x + Offset.
type LinFit struct {
	Scale  float64 `json:"scale"`
	Offset float64 `json:"offset"`
}

// at evaluates the fit. Two statements, not one expression: a fused
// multiply-add would round differently than the serialized constants
// imply, breaking cross-host artifact byte-identity.
func (f LinFit) at(x float64) float64 {
	p := f.Scale * x
	p = p + f.Offset
	return p
}

// MetricError aggregates the twin-vs-measured relative error of one
// metric over the calibration cells that carry it.
type MetricError struct {
	MaxRel  float64 `json:"max_rel"`
	MeanRel float64 `json:"mean_rel"`
	Cells   int     `json:"cells"`
}

// Errors is the artifact's error section: one aggregate per predicted
// report metric. The CI twin-smoke jq gate reads these against
// Tolerance.
type Errors struct {
	Rounds     MetricError `json:"rounds"`
	Deliveries MetricError `json:"deliveries"`
	RelayWords MetricError `json:"relay_words"`
}

// Model is the calibrated cost model of one (solver, family) pair.
// Nodes and edges are affine in the requested size n; rounds are affine
// in the solver's growth shape F(n); deliveries are affine in the
// analytical skeleton rounds(n)·2·edges(n) (every engine round delivers
// one message per half-edge, modulo early termination — the fit absorbs
// the slack); relay words are affine in n. Deliveries and RelayWords
// are nil for solvers whose reports never carry the metric.
type Model struct {
	Solver string `json:"solver"`
	Family string `json:"family"`
	// Shape names the rounds growth class F(n); it must resolve in
	// measure.Models (the paper's Figure-1 landscape).
	Shape string `json:"shape"`
	// Cells is the number of calibration cells behind the fit.
	Cells int `json:"cells"`

	Nodes      LinFit  `json:"nodes"`
	Edges      LinFit  `json:"edges"`
	Rounds     LinFit  `json:"rounds"`
	Deliveries *LinFit `json:"deliveries,omitempty"`
	RelayWords *LinFit `json:"relay_words,omitempty"`

	// MaxRel records the model's worst per-cell relative error per
	// metric over its own calibration cells.
	MaxRel Errors `json:"errors"`

	shape func(float64) float64 // resolved from Shape; not serialized
}

// WallModel prices a predicted execution in nanoseconds:
//
//	wall ≈ Build·(nodes+edges)                      construction + init
//	     + rounds·(Round + Sync·(weff−1))           per-round fixed + barrier cost
//	     + work·Word / weff                          per-delivery compute, split across workers
//
// where weff is the effective worker count (clamped by shards and
// nodes) and work is predicted deliveries for engine solvers or
// nodes·rounds for solvers that run off the engine (their per-round
// sweep is serial, so weff divides only the engine term). The defaults
// below are hand-measured magnitudes, not calibrated truth; reports
// recorded with -timing let Calibrate replace them by least squares
// (Calibrated flips to true).
type WallModel struct {
	BuildNsPerElement float64 `json:"build_ns_per_element"`
	RoundNs           float64 `json:"round_ns"`
	SyncNsPerWorker   float64 `json:"sync_ns_per_worker"`
	WordNs            float64 `json:"word_ns"`
	Calibrated        bool    `json:"calibrated"`
}

// DefaultWall is the uncalibrated wall-clock pricing. The magnitudes
// matter only relatively: Word/Sync sets the break-even point where an
// extra engine worker pays for its barrier, which is what autoscaling
// consumes.
var DefaultWall = WallModel{
	BuildNsPerElement: 120,
	RoundNs:           2000,
	SyncNsPerWorker:   1500,
	WordNs:            12,
}

// Twin is a calibrated cost twin: the full model set plus the wall
// pricing and the calibration error ledger. The zero value is not
// usable; construct via Calibrate, CalibrateFile, or LoadFile.
type Twin struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	// Source is the name of the report the twin was calibrated from.
	Source string `json:"source"`
	// Tolerance is the pinned per-cell relative-error budget the
	// calibration is gated against (CI fails when Errors exceed it).
	Tolerance float64   `json:"tolerance"`
	Wall      WallModel `json:"wall"`
	// Models are sorted by (solver, family) for canonical bytes.
	Models []Model `json:"models"`
	Errors Errors  `json:"errors"`

	index map[modelKey]*Model
}

type modelKey struct{ solver, family string }

// Prediction is one cell's predicted cost. All fields except WallNs are
// geometry-invariant (see the package invariants).
type Prediction struct {
	Nodes      int
	Edges      int
	Rounds     int
	Deliveries int64
	RelayWords int64
	// WallNs is the predicted wall-clock of the cell under the given
	// engine geometry, in nanoseconds.
	WallNs int64
}

// solverShapes maps registry solver names (canonical names and aliases)
// to the growth class of their round complexity in the paper's
// landscape. Solvers missing here fall back to defaultShape — a wrong
// shape costs fit quality, never correctness, and the recorded errors
// make it visible.
var solverShapes = map[string]string{
	"cole-vishkin":           "log*",
	"3coloring":              "log*",
	"mis":                    "log*",
	"matching":               "log*",
	"orientation":            "n",
	"trivial":                "1",
	"sinkless-det":           "log",
	"sinkless-rand":          "loglog",
	"sinkless-msg":           "log",
	"netdecomp":              "log",
	"pi2-det":                "log^2",
	"pi2-det-oracle":         "log^2",
	"pi2-rand":               "log^2",
	"pi2-rand-oracle":        "log^2",
	"pi2-rand-native":        "log^2",
	"pi2-rand-native-oracle": "log^2",
	"pi2-rand-gather":        "log^2",
	"pi3-det":                "log^3",
	"pi3-det-oracle":         "log^3",
	"pi3-rand":               "log^3",
	"pi3-rand-oracle":        "log^3",
}

const defaultShape = "log"

// shapeByName resolves a growth-class name against the paper landscape
// in measure.Models.
func shapeByName(name string) (func(float64) float64, bool) {
	for _, m := range measure.Models() {
		if m.Name == name {
			return m.F, true
		}
	}
	return nil, false
}

// ShapeFor returns the growth-class name used for a solver's rounds.
func ShapeFor(solver string) string {
	if s, ok := solverShapes[solver]; ok {
		return s
	}
	return defaultShape
}

// buildIndex resolves every model's shape and builds the lookup map.
func (t *Twin) buildIndex() error {
	t.index = make(map[modelKey]*Model, len(t.Models))
	for i := range t.Models {
		m := &t.Models[i]
		f, ok := shapeByName(m.Shape)
		if !ok {
			return fmt.Errorf("twin: model %s/%s has unknown shape %q", m.Solver, m.Family, m.Shape)
		}
		m.shape = f
		t.index[modelKey{m.Solver, m.Family}] = m
	}
	return nil
}

// Model returns the calibrated model for (solver, family), if any.
func (t *Twin) Model(family, solver string) (*Model, bool) {
	m, ok := t.index[modelKey{solver, family}]
	return m, ok
}

// predictF is the float pipeline behind Predict; calibration reuses it
// so recorded errors describe exactly what Predict will return.
type predictF struct {
	nodes, edges, rounds float64
	deliveries           float64
	relayWords           float64
	hasDeliveries        bool
	hasRelay             bool
}

func (m *Model) predictF(n int) predictF {
	var p predictF
	x := float64(n)
	p.nodes = m.Nodes.at(x)
	p.edges = m.Edges.at(x)
	p.rounds = m.Rounds.at(m.shape(x))
	if m.Deliveries != nil {
		skel := p.rounds * p.edges
		skel = skel * 2
		p.deliveries = m.Deliveries.at(skel)
		p.hasDeliveries = true
	}
	if m.RelayWords != nil {
		p.relayWords = m.RelayWords.at(x)
		p.hasRelay = true
	}
	return p
}

// roundNonNeg converts a float prediction to a non-negative integer the
// way every Predict consumer sees it.
func roundNonNeg(x float64) int64 {
	r := math.Round(x)
	if r < 0 {
		return 0
	}
	return int64(r)
}

// Predict returns the predicted cost of one cell under the given engine
// geometry. ok is false when the twin has no model for (solver, family)
// — callers must fall back to their static behaviour, never guess.
func (t *Twin) Predict(family, solver string, n, workers, shards int) (Prediction, bool) {
	m, ok := t.Model(family, solver)
	if !ok {
		return Prediction{}, false
	}
	pf := m.predictF(n)
	p := Prediction{
		Nodes:  int(roundNonNeg(pf.nodes)),
		Edges:  int(roundNonNeg(pf.edges)),
		Rounds: int(roundNonNeg(pf.rounds)),
	}
	if pf.hasDeliveries {
		p.Deliveries = roundNonNeg(pf.deliveries)
	}
	if pf.hasRelay {
		p.RelayWords = roundNonNeg(pf.relayWords)
	}
	p.WallNs = int64(t.wallNs(p, pf.hasDeliveries, workers, shards))
	return p, true
}

// wallNs prices a prediction under the wall model. engineBacked selects
// whether the per-delivery work term parallelizes across weff (engine
// solvers) or runs serially (sequential solvers, priced at
// nodes·rounds work units).
func (t *Twin) wallNs(p Prediction, engineBacked bool, workers, shards int) float64 {
	weff := workers
	if weff < 1 {
		weff = 1
	}
	if shards > 0 && weff > shards {
		weff = shards
	}
	if p.Nodes > 0 && weff > p.Nodes {
		weff = p.Nodes
	}
	w := t.Wall
	elems := float64(p.Nodes + p.Edges)
	build := w.BuildNsPerElement * elems
	rounds := float64(p.Rounds)
	fixed := rounds * w.RoundNs
	sync := rounds * w.SyncNsPerWorker
	sync = sync * float64(weff-1)
	var work float64
	if engineBacked {
		work = float64(p.Deliveries) * w.WordNs
		work = work / float64(weff)
	} else {
		work = float64(p.Nodes) * rounds
		work = work * w.WordNs
	}
	total := build + fixed
	total = total + sync
	total = total + work
	return total
}

// OptimalWorkers returns the engine worker count in [1, budget] that
// minimizes the predicted wall-clock of the cell, preferring the
// smallest count on ties (extra workers that don't pay for their
// barrier cost stay on the grid layer). Returns 1 when the twin has no
// model for the cell.
func (t *Twin) OptimalWorkers(family, solver string, n, budget int) int {
	if budget < 1 {
		budget = 1
	}
	m, ok := t.Model(family, solver)
	if !ok {
		return 1
	}
	pf := m.predictF(n)
	p := Prediction{
		Nodes:      int(roundNonNeg(pf.nodes)),
		Edges:      int(roundNonNeg(pf.edges)),
		Rounds:     int(roundNonNeg(pf.rounds)),
		Deliveries: roundNonNeg(pf.deliveries),
	}
	best, bestWall := 1, math.Inf(1)
	for w := 1; w <= budget; w++ {
		wall := t.wallNs(p, pf.hasDeliveries, w, 0)
		if wall < bestWall {
			best, bestWall = w, wall
		}
	}
	return best
}
