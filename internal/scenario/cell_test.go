package scenario

import (
	"strings"
	"testing"

	"locallab/internal/graph"
	"locallab/internal/solver"
)

// TestCellRequestValidateMessages pins the cell validation messages:
// the serving handler returns them verbatim, so they are contract.
func TestCellRequestValidateMessages(t *testing.T) {
	cases := []struct {
		name string
		req  CellRequest
		want string
	}{
		{"missing solver", CellRequest{Family: "cycle", N: 16, Seed: 1},
			"cell: missing solver"},
		{"missing family", CellRequest{Solver: "cole-vishkin", N: 16, Seed: 1},
			"cell: missing family"},
		{"unknown solver", CellRequest{Family: "cycle", Solver: "nope", N: 16, Seed: 1},
			`cell: unknown solver "nope" (known: ` + joinSolverNames() + ")"},
		{"unknown family", CellRequest{Family: "nope", Solver: "cole-vishkin", N: 16, Seed: 1},
			`cell: unknown graph family "nope" (known: ` + joinFamilyNames() + ")"},
		{"cycle-only", CellRequest{Family: "regular", Solver: "cole-vishkin", N: 16, Seed: 1},
			`cell: solver "cole-vishkin" runs on cycles only (family "regular")`},
		{"padded on graph family", CellRequest{Family: "cycle", Solver: "pi2-det", N: 16, Seed: 1},
			`cell: solver "pi2-det" requires family "padded"`},
		{"graph solver on padded", CellRequest{Family: PaddedFamily, Solver: "mis", N: 16, Seed: 1},
			`cell: solver "mis" does not run on padded instances`},
		{"size floor", CellRequest{Family: "cycle", Solver: "cole-vishkin", N: 1, Seed: 1},
			`cell: size 1 below family "cycle" minimum 3`},
		{"engine params on non-engine solver", CellRequest{Family: "cycle", Solver: "mis", N: 16, Seed: 1,
			Engine: EngineParams{Workers: 2}},
			`cell: solver "mis" does not take engine parameters`},
		{"negative engine params", CellRequest{Family: "cycle", Solver: "cole-vishkin", N: 16, Seed: 1,
			Engine: EngineParams{Workers: -1}},
			"cell: negative engine parameters"},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if err == nil {
			t.Errorf("%s: no error, want %q", tc.name, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, err.Error(), tc.want)
		}
	}
	ok := CellRequest{Family: "cycle", Solver: "cole-vishkin", N: 64, Seed: 1,
		Engine: EngineParams{Workers: 2, Shards: 8}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func joinSolverNames() string { return strings.Join(solver.Names(), ", ") }

func joinFamilyNames() string {
	return strings.Join(graph.FamilyNames(), ", ") + ", " + PaddedFamily
}

// TestRunCellMatchesScenarioReport: every ci-smoke cell served through
// the cell entry point must be byte-identical (field for field) to the
// corresponding lcl-scenario report cell — the serving layer's
// correctness anchor.
func TestRunCellMatchesScenarioReport(t *testing.T) {
	spec, ok := Builtin("ci-smoke")
	if !ok {
		t.Fatal("ci-smoke builtin missing")
	}
	rep, err := Run(spec, RunOptions{GridWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep.Scenarios {
		for _, want := range sr.Cells {
			req := CellRequest{Family: sr.Family, Solver: sr.Solver, N: want.N, Seed: want.Seed, Engine: sr.Engine}
			got, err := RunCell(req)
			if err != nil {
				t.Fatalf("%s n=%d seed=%d: %v", sr.Name, want.N, want.Seed, err)
			}
			if *got != want {
				t.Errorf("%s n=%d seed=%d:\n got %+v\nwant %+v", sr.Name, want.N, want.Seed, *got, want)
			}
		}
	}
}

// TestCellRunnerRepeatable: a pooled runner must return identical
// results on every Run — the property that makes session pooling safe.
func TestCellRunnerRepeatable(t *testing.T) {
	for _, req := range []CellRequest{
		{Family: "cycle", Solver: "cole-vishkin", N: 64, Seed: 1, Engine: EngineParams{Workers: 2, Shards: 8}},
		{Family: "regular", Solver: "sinkless-msg", N: 64, Seed: 1, Engine: EngineParams{Workers: 2, Shards: 8}},
		{Family: PaddedFamily, Solver: "pi2-rand-native", N: 12, Seed: 1, Engine: EngineParams{Workers: 2, Shards: 8}},
		{Family: "tree", Solver: "netdecomp", N: 63, Seed: 1},
	} {
		r, err := NewRunner(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Solver, err)
		}
		first, err := r.Run()
		if err != nil {
			r.Close()
			t.Fatalf("%s: %v", req.Solver, err)
		}
		for i := 0; i < 2; i++ {
			again, err := r.Run()
			if err != nil {
				r.Close()
				t.Fatalf("%s run %d: %v", req.Solver, i+2, err)
			}
			if *again != *first {
				r.Close()
				t.Fatalf("%s run %d differs:\n got %+v\nwant %+v", req.Solver, i+2, *again, *first)
			}
		}
		r.Close()
	}
}
