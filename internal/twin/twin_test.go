package twin

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"locallab/internal/solver"
)

const (
	baselinePath = "../../BENCH_0.json"
	artifactPath = "../../TWIN_0.json"
)

func calibrateBaseline(t *testing.T) (*Twin, []byte) {
	t.Helper()
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := Calibrate(data)
	if err != nil {
		t.Fatal(err)
	}
	return tw, data
}

func relErr(pred, meas float64) float64 {
	denom := meas
	if denom < 1 {
		denom = 1
	}
	return math.Abs(pred-meas) / denom
}

// TestCalibrateBaselineWithinTolerance is the calibration round-trip
// gate: every cell of the baseline report must be predicted — through
// the same integer Predict pipeline consumers see — within the pinned
// tolerance, for every metric the cell's model carries.
func TestCalibrateBaselineWithinTolerance(t *testing.T) {
	tw, data := calibrateBaseline(t)
	var doc reportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, sc := range doc.Scenarios {
		m, ok := tw.Model(sc.Family, sc.Solver)
		if !ok {
			t.Fatalf("no model for %s/%s", sc.Solver, sc.Family)
		}
		for _, c := range sc.Cells {
			p, ok := tw.Predict(sc.Family, sc.Solver, c.N, 1, 0)
			if !ok {
				t.Fatalf("%s/%s n=%d: Predict has no model", sc.Solver, sc.Family, c.N)
			}
			cells++
			if e := relErr(float64(p.Rounds), float64(c.Rounds)); e > tw.Tolerance {
				t.Errorf("%s/%s n=%d seed=%d: rounds pred %d meas %d rel %.4f > %.2f",
					sc.Solver, sc.Family, c.N, c.Seed, p.Rounds, c.Rounds, e, tw.Tolerance)
			}
			if m.Deliveries != nil {
				if e := relErr(float64(p.Deliveries), float64(c.Messages)); e > tw.Tolerance {
					t.Errorf("%s/%s n=%d seed=%d: deliveries pred %d meas %d rel %.4f > %.2f",
						sc.Solver, sc.Family, c.N, c.Seed, p.Deliveries, c.Messages, e, tw.Tolerance)
				}
			}
			if m.RelayWords != nil {
				if e := relErr(float64(p.RelayWords), float64(c.RelayWords)); e > tw.Tolerance {
					t.Errorf("%s/%s n=%d seed=%d: relay_words pred %d meas %d rel %.4f > %.2f",
						sc.Solver, sc.Family, c.N, c.Seed, p.RelayWords, c.RelayWords, e, tw.Tolerance)
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("baseline report had no cells")
	}
	// The recorded error ledger must agree with the gate above.
	for name, e := range map[string]MetricError{
		"rounds": tw.Errors.Rounds, "deliveries": tw.Errors.Deliveries, "relay_words": tw.Errors.RelayWords,
	} {
		if e.Cells == 0 {
			t.Errorf("%s: error ledger covers no cells", name)
		}
		if e.MaxRel > tw.Tolerance {
			t.Errorf("%s: recorded max_rel %.4f exceeds tolerance %.2f", name, e.MaxRel, tw.Tolerance)
		}
		if e.MeanRel > e.MaxRel {
			t.Errorf("%s: mean_rel %.4f > max_rel %.4f", name, e.MeanRel, e.MaxRel)
		}
	}
}

// TestPredictGeometryInvariance pins the package invariant: everything
// but WallNs depends only on (family, solver, n), never on the engine
// geometry.
func TestPredictGeometryInvariance(t *testing.T) {
	tw, _ := calibrateBaseline(t)
	geometries := [][2]int{{1, 0}, {2, 8}, {4, 16}, {8, 2}, {64, 0}}
	for _, m := range tw.Models {
		for _, n := range []int{12, 64, 256, 4096, 65536} {
			base, ok := tw.Predict(m.Family, m.Solver, n, 1, 0)
			if !ok {
				t.Fatalf("no model for %s/%s", m.Solver, m.Family)
			}
			for _, g := range geometries {
				p, _ := tw.Predict(m.Family, m.Solver, n, g[0], g[1])
				p.WallNs = base.WallNs
				if p != base {
					t.Fatalf("%s/%s n=%d: prediction changed under geometry %v:\n got %+v\nwant %+v",
						m.Solver, m.Family, n, g, p, base)
				}
			}
		}
	}
}

// TestArtifactBytesPinned: recalibrating from the committed baseline
// report reproduces the committed TWIN_0.json byte for byte — the same
// comparison the CI twin-smoke job runs with cmp. A failure means either
// the baseline or the calibration math changed; regenerate with
// `lcl-bench -calibrate BENCH_0.json -json TWIN_0.json`.
func TestArtifactBytesPinned(t *testing.T) {
	tw, _ := calibrateBaseline(t)
	got, err := tw.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(artifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recalibrated artifact differs from committed TWIN_0.json (%d vs %d bytes); regenerate with lcl-bench -calibrate", len(got), len(want))
	}
}

// TestLoadRoundTrip: Load(CanonicalJSON) reproduces the same bytes and
// the same predictions as the calibrated twin.
func TestLoadRoundTrip(t *testing.T) {
	tw, _ := calibrateBaseline(t)
	data, err := tw.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := loaded.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("canonical bytes changed across Load round-trip")
	}
	for _, m := range tw.Models {
		for _, n := range []int{64, 1024} {
			a, okA := tw.Predict(m.Family, m.Solver, n, 4, 8)
			b, okB := loaded.Predict(m.Family, m.Solver, n, 4, 8)
			if okA != okB || a != b {
				t.Fatalf("%s/%s n=%d: loaded twin predicts %+v, calibrated %+v", m.Solver, m.Family, n, b, a)
			}
		}
	}
}

// TestLoadRejects pins the artifact validation surface.
func TestLoadRejects(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema":"locallab.twin/v0","models":[{"solver":"x","family":"y","shape":"log"}]}`,
		"no models":     `{"schema":"locallab.twin/v1","models":[]}`,
		"unknown shape": `{"schema":"locallab.twin/v1","models":[{"solver":"x","family":"y","shape":"exp"}]}`,
		"not json":      `nope`,
	}
	for name, data := range cases {
		if _, err := Load([]byte(data)); err == nil {
			t.Errorf("%s: Load accepted %q", name, data)
		}
	}
	if _, err := Calibrate([]byte(`{"schema":"locallab.report/v1","name":"empty","scenarios":[]}`)); err == nil {
		t.Error("Calibrate accepted a report with no cells")
	}
	if _, err := Calibrate([]byte(`{"schema":"locallab.load/v1"}`)); err == nil {
		t.Error("Calibrate accepted a non-report schema")
	}
}

// TestFitAffine covers the three fit regimes: a healthy spread recovers
// the exact affine law, a singular basis (all x equal — the ci-smoke
// log* plateau) degrades to scale-only, and an all-zero basis to a pure
// offset.
func TestFitAffine(t *testing.T) {
	fit := fitAffine([]float64{1, 2, 3, 4}, []float64{5, 7, 9, 11}) // y = 2x + 3
	if math.Abs(fit.Scale-2) > 1e-12 || math.Abs(fit.Offset-3) > 1e-12 {
		t.Fatalf("affine fit = %+v, want scale 2 offset 3", fit)
	}
	fit = fitAffine([]float64{4, 4, 4}, []float64{8, 9, 10}) // singular: a = Σxy/Σx² = 2.25
	if fit.Offset != 0 || math.Abs(fit.Scale-2.25) > 1e-12 {
		t.Fatalf("singular fit = %+v, want scale-only 2.25", fit)
	}
	fit = fitAffine([]float64{0, 0}, []float64{3, 5}) // degenerate: pure offset mean
	if fit.Scale != 0 || fit.Offset != 4 {
		t.Fatalf("degenerate fit = %+v, want offset 4", fit)
	}
}

// TestOptimalWorkers: unknown cells stay at 1, known cells stay within
// the budget, and a cell whose predicted work dwarfs the barrier cost
// claims more than one worker.
func TestOptimalWorkers(t *testing.T) {
	tw, _ := calibrateBaseline(t)
	if w := tw.OptimalWorkers("cycle", "nope", 64, 8); w != 1 {
		t.Fatalf("unknown solver: optimal workers %d, want 1", w)
	}
	if w := tw.OptimalWorkers("cycle", "cole-vishkin", 64, 0); w != 1 {
		t.Fatalf("budget 0: optimal workers %d, want 1", w)
	}
	small := tw.OptimalWorkers("cycle", "cole-vishkin", 64, 8)
	big := tw.OptimalWorkers("cycle", "cole-vishkin", 65536, 8)
	if small < 1 || small > 8 || big < 1 || big > 8 {
		t.Fatalf("optimal workers out of budget: small %d big %d", small, big)
	}
	if big <= 1 {
		t.Fatalf("65536-node cell should claim engine workers, got %d", big)
	}
	if big < small {
		t.Fatalf("bigger cell wants fewer workers: small %d big %d", small, big)
	}
}

// TestSolverShapesCoverRegistry: every registry name and alias has an
// explicit growth class, so no entry silently falls back to defaultShape.
func TestSolverShapesCoverRegistry(t *testing.T) {
	for _, e := range solver.Registry() {
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			if _, ok := solverShapes[name]; !ok {
				t.Errorf("registry name %q has no entry in solverShapes", name)
			}
		}
	}
}

// TestShapeFor pins the solver → growth-class table and its fallback.
func TestShapeFor(t *testing.T) {
	for solver, want := range map[string]string{
		"cole-vishkin": "log*",
		"trivial":      "1",
		"pi2-det":      "log^2",
		"unheard-of":   defaultShape,
	} {
		if got := ShapeFor(solver); got != want {
			t.Errorf("ShapeFor(%q) = %q, want %q", solver, got, want)
		}
	}
	for name := range solverShapes {
		if _, ok := shapeByName(solverShapes[name]); !ok {
			t.Errorf("solver %q maps to shape %q absent from measure.Models", name, solverShapes[name])
		}
	}
}
