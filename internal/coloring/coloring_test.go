package coloring

import (
	"strconv"
	"testing"
	"testing/quick"

	"locallab/internal/graph"
	"locallab/internal/lcl"
)

func TestCVSolverColorsCycles(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10, 64, 333, 1024} {
		g, err := graph.NewCycle(n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		in := lcl.NewLabeling(g)
		out, cost, err := NewCVSolver().Solve(g, in, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := lcl.Verify(g, Three{}, in, out); err != nil {
			t.Fatalf("n=%d: invalid coloring: %v", n, err)
		}
		if cost.Rounds() < 1 {
			t.Errorf("n=%d: rounds = %d, want >= 1", n, cost.Rounds())
		}
	}
}

func TestCVSolverRoundsNearlyConstant(t *testing.T) {
	// Θ(log* n): measured rounds must not grow meaningfully over three
	// orders of magnitude.
	small, large := 0, 0
	{
		g, _ := graph.NewCycle(16, 1)
		_, cost, err := NewCVSolver().Solve(g, lcl.NewLabeling(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		small = cost.Rounds()
	}
	{
		g, _ := graph.NewCycle(16384, 1)
		_, cost, err := NewCVSolver().Solve(g, lcl.NewLabeling(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		large = cost.Rounds()
	}
	if large > 4*small+16 {
		t.Errorf("CV rounds grew from %d (n=16) to %d (n=16384); want log*-flat growth", small, large)
	}
}

func TestCVSolverRejectsNonCycles(t *testing.T) {
	g, err := graph.NewRandomRegular(10, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewCVSolver().Solve(g, lcl.NewLabeling(g), 0); err == nil {
		t.Error("CV on a 3-regular graph should be rejected")
	}
}

func TestMISSolver(t *testing.T) {
	for _, n := range []int{3, 7, 50, 513} {
		g, err := graph.NewCycle(n, int64(2*n+1))
		if err != nil {
			t.Fatal(err)
		}
		in := lcl.NewLabeling(g)
		out, _, err := NewMISSolver().Solve(g, in, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := lcl.Verify(g, MIS{}, in, out); err != nil {
			t.Fatalf("n=%d: invalid MIS: %v", n, err)
		}
	}
}

func TestTrivialSolver(t *testing.T) {
	g, _ := graph.NewRandomRegular(12, 3, 1, false)
	in := lcl.NewLabeling(g)
	out, cost, err := TrivialSolver{}.Solve(g, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lcl.Verify(g, Trivial{}, in, out); err != nil {
		t.Fatal(err)
	}
	if cost.Rounds() != 0 {
		t.Errorf("trivial rounds = %d, want 0", cost.Rounds())
	}
}

func TestGlobalOrientationSolver(t *testing.T) {
	for _, n := range []int{2, 3, 8, 101} {
		g, err := graph.NewCycle(n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		in := lcl.NewLabeling(g)
		out, cost, err := GlobalOrientationSolver{}.Solve(g, in, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := lcl.Verify(g, ConsistentOrientation{}, in, out); err != nil {
			t.Fatalf("n=%d: invalid orientation: %v", n, err)
		}
		if n >= 8 && cost.Rounds() < n/2 {
			t.Errorf("n=%d: rounds = %d, want >= n/2 (global problem)", n, cost.Rounds())
		}
	}
}

func TestGlobalOrientationDisconnected(t *testing.T) {
	g1, _ := graph.NewCycle(5, 1)
	g2, _ := graph.NewCycle(9, 2)
	g, _, err := graph.DisjointUnion(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	out, _, err := GlobalOrientationSolver{}.Solve(g, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lcl.Verify(g, ConsistentOrientation{}, in, out); err != nil {
		t.Fatal(err)
	}
}

func TestThreeCheckerRejects(t *testing.T) {
	g, _ := graph.NewCycle(5, 3)
	in := lcl.NewLabeling(g)
	out, _, err := NewCVSolver().Solve(g, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Copy a neighbor's color onto node 0: must be rejected.
	bad := out.Clone()
	u, _ := g.NeighborAt(0, 0)
	bad.Node[0] = bad.Node[u]
	if err := lcl.Verify(g, Three{}, in, bad); err == nil {
		t.Error("monochromatic edge went undetected")
	}
	bad2 := out.Clone()
	bad2.Node[0] = "c9"
	if err := lcl.Verify(g, Three{}, in, bad2); err == nil {
		t.Error("out-of-palette color went undetected")
	}
}

func TestMISCheckerRejects(t *testing.T) {
	g, _ := graph.NewCycle(6, 4)
	in := lcl.NewLabeling(g)
	out := lcl.NewLabeling(g)
	// All out-set: not maximal.
	for v := range out.Node {
		out.Node[v] = OutSet
	}
	if err := lcl.Verify(g, MIS{}, in, out); err == nil {
		t.Error("empty set accepted as maximal")
	}
	// All in-set: not independent.
	for v := range out.Node {
		out.Node[v] = InSet
	}
	if err := lcl.Verify(g, MIS{}, in, out); err == nil {
		t.Error("full set accepted as independent")
	}
}

// Property: CV coloring is valid on cycles of any size and any ID
// placement seed.
func TestCVProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%200)
		g, err := graph.NewCycle(n, seed)
		if err != nil {
			return false
		}
		in := lcl.NewLabeling(g)
		out, _, err := NewCVSolver().Solve(g, in, 0)
		if err != nil {
			return false
		}
		return lcl.Verify(g, Three{}, in, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestColorLabelMatchesRendering: the table of small colors holds exactly
// the bytes "c"+strconv.Itoa(k) renders, inside the table and past both
// of its ends, and a table color costs no allocation.
func TestColorLabelMatchesRendering(t *testing.T) {
	for k := -1; k <= 100; k++ {
		if got, want := ColorLabel(k), lcl.Label("c"+strconv.Itoa(k)); got != want {
			t.Fatalf("ColorLabel(%d) = %q, want %q", k, got, want)
		}
	}
	var sink lcl.Label
	if a := testing.AllocsPerRun(100, func() { sink = ColorLabel(3) }); a != 0 {
		t.Fatalf("ColorLabel(3) allocates %.0f times", a)
	}
	_ = sink
}
