package scenario

import (
	"bytes"
	"testing"

	"locallab/internal/measure"
	"locallab/internal/twin"
)

func loadTwin(t *testing.T) *twin.Twin {
	t.Helper()
	tw, err := twin.LoadFile("../../TWIN_0.json")
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// TestAutoscaleByteIdentity is the acceptance pin: an autoscaled run —
// per-cell engine workers, heavy-first dispatch, a planned grid width —
// emits byte-for-byte the same canonical report as the static split on
// the same spec.
func TestAutoscaleByteIdentity(t *testing.T) {
	tw := loadTwin(t)
	for _, name := range []string{"ci-smoke", "autoscale-mixed"} {
		spec, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		static, err := Run(spec, RunOptions{GridWorkers: 1})
		if err != nil {
			t.Fatalf("%s static: %v", name, err)
		}
		wantBytes, err := static.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1, 4} {
			scaled, err := Run(spec, RunOptions{GridWorkers: budget, GridWorkersExplicit: true, Autoscale: true, Twin: tw})
			if err != nil {
				t.Fatalf("%s autoscale budget %d: %v", name, budget, err)
			}
			gotBytes, err := scaled.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s: autoscaled report (budget %d) differs from static report bytes", name, budget)
			}
		}
	}
}

// TestAutoscaleRequiresTwin: autoscaling never guesses — without a
// calibrated twin the run is rejected loudly.
func TestAutoscaleRequiresTwin(t *testing.T) {
	spec, _ := Builtin("ci-smoke")
	if _, err := Run(spec, RunOptions{GridWorkers: 4, Autoscale: true}); err == nil {
		t.Fatal("autoscale without a twin was accepted")
	}
}

// TestAutoscaleLiftsWorkersConflict: the static-split conflict rule
// (explicit grid -workers vs spec-pinned engine workers) does not apply
// under autoscale, where the budget is divided instead of multiplied.
// ci-smoke pins engine workers 2 in several scenarios, so the same
// options without Autoscale are rejected.
func TestAutoscaleLiftsWorkersConflict(t *testing.T) {
	spec, _ := Builtin("ci-smoke")
	opts := RunOptions{GridWorkers: 4, GridWorkersExplicit: true}
	if _, err := Run(spec, opts); err == nil {
		t.Fatal("static explicit-workers conflict was not rejected")
	}
	opts.Autoscale = true
	opts.Twin = loadTwin(t)
	if _, err := Run(spec, opts); err != nil {
		t.Fatalf("autoscale rejected the divided budget: %v", err)
	}
}

// TestPlanAutoscale unit-tests the planner: budget accounting, spec-pin
// precedence, heavy-first dispatch, and the static fallback for cells
// the twin has no model for.
func TestPlanAutoscale(t *testing.T) {
	tw := loadTwin(t)
	sc := &Scenario{Name: "cv-mixed", Family: "cycle", Solver: "cole-vishkin",
		Sizes: []int{512, 65536}, Seeds: []int64{1, 2}}
	grid := []measure.CellSpec{{N: 512, Seed: 1}, {N: 512, Seed: 2}, {N: 65536, Seed: 1}, {N: 65536, Seed: 2}}
	const budget = 8

	plan := planAutoscale(sc, true, EngineParams{}, tw, budget, grid)
	if plan.GridWorkers < 1 || plan.GridWorkers > budget {
		t.Fatalf("grid workers %d outside budget %d", plan.GridWorkers, budget)
	}
	share := budget / plan.GridWorkers
	if share < 1 {
		share = 1
	}
	for i, e := range plan.EngineWorkers {
		if e < 1 || e > share {
			t.Fatalf("cell %d engine workers %d outside share %d", i, e, share)
		}
	}
	if plan.Order != nil {
		seen := make([]bool, len(grid))
		for _, i := range plan.Order {
			seen[i] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("dispatch order is not a permutation: missing cell %d", i)
			}
		}
		if grid[plan.Order[0]].N != 65536 {
			t.Fatalf("heavy-first dispatch starts at n=%d, want 65536", grid[plan.Order[0]].N)
		}
	}

	// A spec that pins engine workers keeps the pin (capped at the share).
	pinned := planAutoscale(sc, true, EngineParams{Workers: 2}, tw, budget, grid)
	pinnedShare := budget / pinned.GridWorkers
	for i, e := range pinned.EngineWorkers {
		want := 2
		if want > pinnedShare {
			want = pinnedShare
		}
		if e != want {
			t.Fatalf("pinned cell %d engine workers %d, want %d", i, e, want)
		}
	}

	// No model → static behaviour: one engine worker.
	unknown := &Scenario{Name: "mis", Family: "cycle", Solver: "mis",
		Sizes: []int{512}, Seeds: []int64{1}}
	uplan := planAutoscale(unknown, true, EngineParams{}, tw, budget, grid[:1])
	for i, e := range uplan.EngineWorkers {
		if e != 1 {
			t.Fatalf("unpredicted cell %d got engine workers %d, want static 1", i, e)
		}
	}
}
