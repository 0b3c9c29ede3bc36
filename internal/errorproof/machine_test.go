package errorproof

import (
	"math/rand"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// psiEngineGrid is the worker/shard geometry grid the Ψ-machine
// differential tests sweep, from the inline single-worker mode to heavy
// oversharding.
var psiEngineGrid = []engine.Options{
	{Workers: 1}, // inline, default shard count
	{Workers: 1, Shards: 1},
	{Workers: 2, Shards: 5},
	{Workers: 4, Shards: 16},
}

// comparePsi runs the centralized verifier and the machine verifier on
// the same instance and asserts byte-identical outputs and costs across
// the whole engine grid, plus the round-accounting contract: the measured
// engine rounds never exceed the analytical Radius(n) charge.
func comparePsi(t *testing.T, name string, delta int, g *graph.Graph, in *lcl.Labeling, scope func(graph.EdgeID) bool) {
	t.Helper()
	vf := &Verifier{Delta: delta, Scope: scope}
	want, wantCost, err := vf.Run(g, in, g.NumNodes())
	if err != nil {
		t.Fatalf("%s: centralized verifier: %v", name, err)
	}
	for _, opts := range psiEngineGrid {
		got, gotCost, stats, err := vf.RunEngine(engine.New(opts), g, in, g.NumNodes())
		if err != nil {
			t.Fatalf("%s %+v: engine verifier: %v", name, opts, err)
		}
		if !lcl.Equal(want, got) {
			for v := range want.Node {
				if want.Node[v] != got.Node[v] {
					t.Fatalf("%s %+v: node %d: centralized %q, engine %q", name, opts, v, want.Node[v], got.Node[v])
				}
			}
			t.Fatalf("%s %+v: engine Ψ output differs from centralized verifier", name, opts)
		}
		if wantCost.Rounds() != gotCost.Rounds() {
			t.Fatalf("%s %+v: cost %d, want %d", name, opts, gotCost.Rounds(), wantCost.Rounds())
		}
		if stats.Rounds > vf.Radius(g.NumNodes()) {
			t.Fatalf("%s %+v: measured %d engine rounds exceed the analytical radius %d",
				name, opts, stats.Rounds, vf.Radius(g.NumNodes()))
		}
		if stats.Deliveries <= 0 {
			t.Fatalf("%s %+v: engine verifier delivered no messages", name, opts)
		}
	}
}

// TestPsiMachineMatchesVerifierValid: on valid gadgets the machines
// converge to all-GadOk, byte-identical to the centralized verifier.
func TestPsiMachineMatchesVerifierValid(t *testing.T) {
	for _, tc := range []struct{ delta, height int }{{2, 2}, {3, 3}, {3, 5}, {4, 4}, {5, 3}} {
		gd, err := gadget.BuildUniform(tc.delta, tc.height)
		if err != nil {
			t.Fatal(err)
		}
		comparePsi(t, gd.Describe(), tc.delta, gd.G, gd.In, nil)
		out, _, _, err := (&Verifier{Delta: tc.delta}).RunEngine(engine.New(engine.Options{}), gd.G, gd.In, gd.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		for v := range out.Node {
			if out.Node[v] != LabGadOk {
				t.Fatalf("valid gadget node %d got %q, want GadOk", v, out.Node[v])
			}
		}
	}
}

// TestPsiMachineMatchesVerifierCorrupted: every standard corruption of
// the gadget family yields byte-identical error proofs on both paths,
// and the machine output still satisfies Ψ's constraints.
func TestPsiMachineMatchesVerifierCorrupted(t *testing.T) {
	for _, delta := range []int{2, 3} {
		gd, err := gadget.BuildUniform(delta, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for _, c := range gadget.StandardCorruptions(gd, rng) {
			g, in, err := c.Apply(gd)
			if err != nil {
				t.Fatalf("corruption %s: %v", c.Name, err)
			}
			comparePsi(t, c.Name, delta, g, in, nil)
			vf := &Verifier{Delta: delta}
			out, _, _, err := vf.RunEngine(engine.New(engine.Options{}), g, in, g.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Verify(g, &Psi{Delta: delta}, in, out); err != nil {
				t.Fatalf("corruption %s: machine Ψ output rejected: %v", c.Name, err)
			}
		}
	}
}

// TestPsiMachineUpperBound: the machine verifier must error instead of
// rejecting silently when the size upper bound is wrong.
func TestPsiMachineUpperBound(t *testing.T) {
	gd, err := gadget.BuildUniform(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	vf := &Verifier{Delta: 3}
	if _, _, _, err := vf.RunEngine(engine.New(engine.Options{}), gd.G, gd.In, 1); err == nil {
		t.Fatal("upper bound below n accepted")
	}
}
