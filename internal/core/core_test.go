package core

import (
	"testing"
	"testing/quick"

	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

func buildBase(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.NewRandomRegular(n, 3, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestComposeSplitRoundTrip(t *testing.T) {
	f := func(a, b string) bool {
		parts, err := Split(mustCompose(t, lcl.Label(a), lcl.Label(b)), 2)
		if err != nil {
			return false
		}
		return string(parts[0]) == a && string(parts[1]) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Nested composition survives.
	inner := mustCompose(t, "x", "y")
	outer := mustCompose(t, inner, "z")
	parts, err := Split(outer, 2)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0] != inner {
		t.Error("nested composite corrupted")
	}
	if _, err := Split("not json", 2); err == nil {
		t.Error("garbage accepted by Split")
	}
}

func TestSigmaListRoundTrip(t *testing.T) {
	sl := NewSigmaList(3)
	sl.S = []int{1, 3}
	sl.IV = "iv"
	sl.IE[0], sl.IB[0] = "e1", "b1"
	sl.IE[2], sl.IB[2] = "e3", "b3"
	sl.OV = "ov"
	got, err := DecodeSigmaList(mustEncode(t, sl), 3)
	if err != nil {
		t.Fatal(err)
	}
	tbl := newLabelTable()
	ids, err := tbl.sigma(tbl.intern(mustEncode(t, sl)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ids.contains(1) || ids.contains(2) || !ids.contains(3) {
		t.Error("S membership broken")
	}
	if got.IV != "iv" || got.IE[2] != "e3" {
		t.Error("fields broken")
	}
	// Bad S orderings rejected.
	sl.S = []int{3, 1}
	if _, err := DecodeSigmaList(mustEncode(t, sl), 3); err == nil {
		t.Error("descending S accepted")
	}
	sl.S = []int{0}
	if _, err := DecodeSigmaList(mustEncode(t, sl), 3); err == nil {
		t.Error("port 0 accepted")
	}
}

func TestBuildPaddedShape(t *testing.T) {
	base := buildBase(t, 8, 3)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 8 gadgets of 3*(2^3-1)+1 = 22 nodes.
	if got, want := pi.G.NumNodes(), 8*22; got != want {
		t.Fatalf("padded nodes = %d, want %d", got, want)
	}
	if got, want := len(pi.PortEdges), base.NumEdges(); got != want {
		t.Fatalf("port edges = %d, want %d", got, want)
	}
	// Port edges carry the PortEdge mark; gadget edges the GadEdge mark.
	scope := GadScope(pi.G, pi.In)
	for _, pe := range pi.PortEdges {
		if scope(pe) {
			t.Fatalf("port edge %d in gadget scope", pe)
		}
	}
	gadCount := 0
	for e := graph.EdgeID(0); int(e) < pi.G.NumEdges(); e++ {
		if scope(e) {
			gadCount++
		}
	}
	if gadCount != pi.G.NumEdges()-base.NumEdges() {
		t.Fatalf("gadget edge count %d, want %d", gadCount, pi.G.NumEdges()-base.NumEdges())
	}
	if d := pi.Dilation(); d < 4 {
		t.Errorf("dilation = %d, want >= 4 for height-3 gadgets", d)
	}
}

func TestBuildPaddedRejectsHighDegree(t *testing.T) {
	base, err := graph.NewRandomRegular(8, 4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 2}); err == nil {
		t.Error("degree-4 base accepted by Δ=3 padding")
	}
}

func TestPaddedSolveAndVerifyDet(t *testing.T) {
	base := buildBase(t, 10, 5)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	solver := NewPaddedSolver(sinkless.NewDetSolver(), 3)
	d, err := solver.SolveDetailed(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Valid != base.NumNodes() || d.Invalid != 0 {
		t.Fatalf("valid/invalid = %d/%d, want %d/0", d.Valid, d.Invalid, base.NumNodes())
	}
	if d.Virtual.NumVirtualNodes() != base.NumNodes() {
		t.Fatalf("virtual nodes = %d, want %d", d.Virtual.NumVirtualNodes(), base.NumNodes())
	}
	if d.Virtual.H.NumEdges() != base.NumEdges() {
		t.Fatalf("virtual edges = %d, want %d", d.Virtual.H.NumEdges(), base.NumEdges())
	}
	prime := NewPiPrime(sinkless.Problem{}, 3)
	if err := VerifyPadded(pi.G, prime, pi.In, d.Out); err != nil {
		t.Fatalf("padded output rejected: %v", err)
	}
	// Cost shape: inner rounds times dilation dominate the Ψ radius.
	if d.Cost.Rounds() <= d.PsiRadius {
		t.Errorf("total rounds %d not above Ψ radius %d; simulation cost missing", d.Cost.Rounds(), d.PsiRadius)
	}
}

func TestPaddedSolveAndVerifyRand(t *testing.T) {
	base := buildBase(t, 10, 7)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	solver := NewPaddedSolver(sinkless.NewRandSolver(), 3)
	out, _, err := solver.Solve(pi.G, pi.In, 42)
	if err != nil {
		t.Fatal(err)
	}
	prime := NewPiPrime(sinkless.Problem{}, 3)
	if err := VerifyPadded(pi.G, prime, pi.In, out); err != nil {
		t.Fatalf("padded randomized output rejected: %v", err)
	}
}

func TestPaddedWithInvalidGadgets(t *testing.T) {
	base := buildBase(t, 12, 9)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{
		Delta:        3,
		GadgetHeight: 3,
		// Corrupt three gadgets: their neighbors must mark PortErr1 and
		// the virtual graph shrinks (Figure 4).
		CorruptGadgets: []graph.NodeID{0, 5, 7},
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	solver := NewPaddedSolver(sinkless.NewDetSolver(), 3)
	d, err := solver.SolveDetailed(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Invalid != 3 {
		t.Fatalf("invalid gadgets = %d, want 3", d.Invalid)
	}
	if d.Virtual.NumVirtualNodes() != base.NumNodes()-3 {
		t.Fatalf("virtual nodes = %d, want %d", d.Virtual.NumVirtualNodes(), base.NumNodes()-3)
	}
	prime := NewPiPrime(sinkless.Problem{}, 3)
	if err := VerifyPadded(pi.G, prime, pi.In, d.Out); err != nil {
		t.Fatalf("output with invalid gadgets rejected: %v", err)
	}
	// Ports facing corrupted gadgets carry PortErr1.
	sawPortErr1 := false
	for v := graph.NodeID(0); int(v) < pi.G.NumNodes(); v++ {
		parts, err := Split(d.Out.Node[v], outNodeParts)
		if err != nil {
			t.Fatal(err)
		}
		if parts[1] == PortErr1 {
			sawPortErr1 = true
		}
	}
	if !sawPortErr1 {
		t.Error("no PortErr1 labels despite corrupted gadgets")
	}
}

func TestPaddedWithIsolatedPadding(t *testing.T) {
	base := buildBase(t, 8, 13)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{
		Delta: 3, GadgetHeight: 2, IsolatedPadding: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pi.Isolated) != 17 {
		t.Fatalf("isolated = %d, want 17", len(pi.Isolated))
	}
	solver := NewPaddedSolver(sinkless.NewDetSolver(), 3)
	out, _, err := solver.Solve(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	prime := NewPiPrime(sinkless.Problem{}, 3)
	if err := VerifyPadded(pi.G, prime, pi.In, out); err != nil {
		t.Fatalf("output with isolated padding rejected: %v", err)
	}
	// Isolated nodes are invalid one-node gadgets: they carry error
	// labels.
	for _, v := range pi.Isolated {
		parts, err := Split(out.Node[v], outNodeParts)
		if err != nil {
			t.Fatal(err)
		}
		if !errorproof.IsErrorLabel(parts[2]) {
			t.Fatalf("isolated node %d output %q, want an error label", v, parts[2])
		}
	}
}

func TestCheckerRejectsPaddedCheating(t *testing.T) {
	base := buildBase(t, 8, 17)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	solver := NewPaddedSolver(sinkless.NewDetSolver(), 3)
	out, _, err := solver.Solve(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	prime := NewPiPrime(sinkless.Problem{}, 3)
	if err := VerifyPadded(pi.G, prime, pi.In, out); err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(c *lcl.Labeling)) {
		t.Run(name, func(t *testing.T) {
			c := out.Clone()
			f(c)
			if err := VerifyPadded(pi.G, prime, pi.In, c); err == nil {
				t.Errorf("cheat %q accepted", name)
			}
		})
	}
	somePort := pi.PortsOf[0][0]
	someNode := pi.NodesOf[0][1]
	mutate("claim-error-on-valid-gadget", func(c *lcl.Labeling) {
		parts, _ := Split(c.Node[someNode], outNodeParts)
		c.Node[someNode] = mustCompose(t, parts[0], parts[1], errorproof.LabError)
	})
	mutate("port-err1-between-valid", func(c *lcl.Labeling) {
		parts, _ := Split(c.Node[somePort], outNodeParts)
		c.Node[somePort] = mustCompose(t, parts[0], PortErr1, parts[2])
	})
	mutate("flip-virtual-orientation-one-side", func(c *lcl.Labeling) {
		// Corrupt one port's OB entry: the virtual edge constraint or OE
		// equality must fire.
		parts, _ := Split(c.Node[somePort], outNodeParts)
		sl, err := DecodeSigmaList(parts[0], 3)
		if err != nil {
			t.Fatal(err)
		}
		if sl.OB[0] == string(sinkless.LabelOut) {
			sl.OB[0] = string(sinkless.LabelIn)
		} else {
			sl.OB[0] = string(sinkless.LabelOut)
		}
		lab := mustCompose(t, mustEncode(t, sl), parts[1], parts[2])
		// Apply to every node of the gadget to survive the GadEdge
		// equality check.
		for _, v := range pi.NodesOf[0] {
			c.Node[v] = lab
		}
	})
	mutate("garbage-node-output", func(c *lcl.Labeling) {
		c.Node[someNode] = "garbage"
	})
	mutate("psi-output-on-port-edge", func(c *lcl.Labeling) {
		c.Edge[pi.PortEdges[0]] = LabPsiEdge
	})
	mutate("eps-on-gadget-edge", func(c *lcl.Labeling) {
		scope := GadScope(pi.G, pi.In)
		for e := graph.EdgeID(0); int(e) < pi.G.NumEdges(); e++ {
			if scope(e) {
				c.Edge[e] = ""
				break
			}
		}
	})
	mutate("sigma-divergence-within-gadget", func(c *lcl.Labeling) {
		parts, _ := Split(c.Node[someNode], outNodeParts)
		sl, err := DecodeSigmaList(parts[0], 3)
		if err != nil {
			t.Fatal(err)
		}
		sl.IV = "tampered"
		c.Node[someNode] = mustCompose(t, mustEncode(t, sl), parts[1], parts[2])
	})
}

func TestLevel2Hierarchy(t *testing.T) {
	lvl, err := NewLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 12, Seed: 3, GadgetHeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []lcl.Solver{lvl.Det, lvl.Rand} {
		out, cost, err := solver.Solve(inst.G, inst.In, 5)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if err := lvl.Verify(inst.G, inst.In, out); err != nil {
			t.Fatalf("%s output rejected: %v", solver.Name(), err)
		}
		if cost.Rounds() < 1 {
			t.Errorf("%s rounds = %d", solver.Name(), cost.Rounds())
		}
	}
}

func TestLevel3Hierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("level-3 instance is large")
	}
	lvl, err := NewLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(3, InstanceOptions{BaseNodes: 6, Seed: 5, GadgetHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := lvl.Det.Solve(inst.G, inst.In, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lvl.Verify(inst.G, inst.In, out); err != nil {
		t.Fatalf("level-3 output rejected: %v", err)
	}
}

func TestBalancedInstance(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 30, Seed: 7, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	pad := inst.Pads[0]
	gadgetSize := pad.NodesOf[0]
	ratio := float64(len(gadgetSize)) / float64(pad.Base.NumNodes())
	if ratio < 0.3 || ratio > 3.5 {
		t.Errorf("balanced gadget/base ratio = %.2f, want near 1 (Lemma 5 balance)", ratio)
	}
}

// TestMixedGadgetHeights exercises Definition 3's freedom to pick a
// different gadget per base node — the paper's "challenge 2" (gadgets of
// different depths). Solving and end-to-end verification must go through
// unchanged, and the dilation reflects the largest gadget.
func TestMixedGadgetHeights(t *testing.T) {
	base := buildBase(t, 10, 31)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{
		Delta:        3,
		GadgetHeight: 2,
		HeightOf: func(v graph.NodeID) int {
			return 2 + int(v)%3 // heights 2, 3, 4 interleaved
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sizes differ across gadgets.
	sizes := map[int]bool{}
	for _, nodes := range pi.NodesOf {
		sizes[len(nodes)] = true
	}
	if len(sizes) < 3 {
		t.Fatalf("expected 3 distinct gadget sizes, got %v", sizes)
	}
	for _, solver := range []lcl.Solver{
		NewPaddedSolver(sinkless.NewDetSolver(), 3),
		NewPaddedSolver(sinkless.NewRandSolver(), 3),
	} {
		d, err := solver.(*PaddedSolver).SolveDetailed(pi.G, pi.In, 3)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if d.Valid != base.NumNodes() {
			t.Fatalf("%s: valid gadgets = %d, want %d", solver.Name(), d.Valid, base.NumNodes())
		}
		prime := NewPiPrime(sinkless.Problem{}, 3)
		if err := VerifyPadded(pi.G, prime, pi.In, d.Out); err != nil {
			t.Fatalf("%s: mixed-height output rejected: %v", solver.Name(), err)
		}
	}
	// Dilation tracks the tallest gadget (height 4: port distance >= 6).
	if d := pi.Dilation(); d < 6 {
		t.Errorf("mixed-height dilation = %d, want >= 6", d)
	}
}

// mustCompose and mustEncode wrap the error-returning serialization
// helpers for tests building known-good labels.
func mustCompose(t *testing.T, parts ...lcl.Label) lcl.Label {
	t.Helper()
	lab, err := Compose(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func mustEncode(t *testing.T, sl *SigmaList) lcl.Label {
	t.Helper()
	lab, err := sl.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return lab
}
