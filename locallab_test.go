package locallab_test

import (
	"fmt"
	"testing"

	"locallab"
)

// TestFacadeQuickstart exercises the documented public-API happy path.
func TestFacadeQuickstart(t *testing.T) {
	g, err := locallab.NewRandomRegular(128, 3, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	in := locallab.NewLabeling(g)
	for _, s := range []locallab.Solver{locallab.NewSinklessDetSolver(), locallab.NewSinklessRandSolver()} {
		out, cost, err := s.Solve(g, in, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := locallab.Verify(g, locallab.SinklessOrientation(), in, out); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if cost.Rounds() < 1 {
			t.Errorf("%s: rounds = %d", s.Name(), cost.Rounds())
		}
	}
}

func TestFacadeColoring(t *testing.T) {
	g, err := locallab.NewCycle(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := locallab.NewLabeling(g)
	out, _, err := locallab.NewColeVishkinSolver().Solve(g, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := locallab.Verify(g, locallab.ThreeColoringCycles(), in, out); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGadgetAndPadding(t *testing.T) {
	gd, err := locallab.NewGadget(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := locallab.ValidateGadget(gd.G, gd.In, 3); err != nil {
		t.Fatal(err)
	}
	base, err := locallab.NewRandomRegular(8, 3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := locallab.NewPadded(base, locallab.NewLabeling(base), locallab.PadOptions{Delta: 3, GadgetHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := locallab.NewHierarchyLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := lvl.Det.Solve(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	prime, ok := lvl.Problem.(*locallab.PiPrime)
	if !ok {
		t.Fatal("level-2 problem is not a PiPrime")
	}
	if err := locallab.VerifyPadded(pi.G, prime, pi.In, out); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMeasurement(t *testing.T) {
	s, err := locallab.Sweep("demo", []int{64, 256}, 1, 1, func(n int, seed int64) (int, error) {
		g, err := locallab.NewRandomRegular(n, 3, seed, false)
		if err != nil {
			return 0, err
		}
		in := locallab.NewLabeling(g)
		_, cost, err := locallab.NewSinklessDetSolver().Solve(g, in, 0)
		if err != nil {
			return 0, err
		}
		return cost.Rounds(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fits := locallab.BestFit(s.Points)
	if len(fits) == 0 {
		t.Fatal("no fits")
	}
}

// ExampleVerify demonstrates the documented quickstart flow; its output
// is checked by go test.
func ExampleVerify() {
	g, err := locallab.NewRandomRegular(64, 3, 42, false)
	if err != nil {
		fmt.Println(err)
		return
	}
	in := locallab.NewLabeling(g)
	out, _, err := locallab.NewSinklessDetSolver().Solve(g, in, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(locallab.Verify(g, locallab.SinklessOrientation(), in, out))
	// Output: <nil>
}

// ExampleNewGadget shows gadget construction and validation.
func ExampleNewGadget() {
	gd, err := locallab.NewGadget(3, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(gd.NumNodes(), locallab.ValidateGadget(gd.G, gd.In, 3))
	// Output: 46 <nil>
}
