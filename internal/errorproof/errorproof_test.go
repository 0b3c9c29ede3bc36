package errorproof

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

func TestVerifierAcceptsValidGadgets(t *testing.T) {
	for _, h := range []int{2, 3, 5} {
		gd, err := gadget.BuildUniform(3, h)
		if err != nil {
			t.Fatal(err)
		}
		vf := &Verifier{Delta: 3}
		out, cost, err := vf.Run(gd.G, gd.In, gd.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		for v := range out.Node {
			if out.Node[v] != LabGadOk {
				t.Fatalf("height %d: node %d output %q, want GadOk", h, v, out.Node[v])
			}
		}
		if got, want := cost.Rounds(), vf.Radius(gd.NumNodes()); got != want {
			t.Errorf("height %d: rounds = %d, want %d", h, got, want)
		}
		if err := lcl.Verify(gd.G, &Psi{Delta: 3}, gd.In, out); err != nil {
			t.Errorf("height %d: Ψ rejected V's output: %v", h, err)
		}
	}
}

func TestVerifierRadiusLogarithmic(t *testing.T) {
	vf := &Verifier{Delta: 3}
	if r1, r2 := vf.Radius(100), vf.Radius(10000); r2 > 2*r1 {
		t.Errorf("radius grew from %d to %d over 100x size; want logarithmic", r1, r2)
	}
}

// Lemma 10: on every corrupted gadget, V produces error labels that the
// Ψ checker accepts, with at least one Error at a violation.
func TestVerifierProvesErrorsOnCorruptions(t *testing.T) {
	gd, err := gadget.BuildUniform(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for _, c := range gadget.StandardCorruptions(gd, rng) {
		t.Run(c.Name, func(t *testing.T) {
			g, in, err := c.Apply(gd)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			vf := &Verifier{Delta: 3}
			out, _, err := vf.Run(g, in, g.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			hasError := false
			for v := range out.Node {
				if !IsErrorLabel(out.Node[v]) {
					t.Fatalf("node %d output %q on invalid gadget, want an error label", v, out.Node[v])
				}
				if out.Node[v] == LabError {
					hasError = true
				}
			}
			if !hasError {
				t.Fatal("no Error label on invalid gadget")
			}
			if err := lcl.Verify(g, &Psi{Delta: 3}, in, out); err != nil {
				t.Fatalf("Ψ rejected V's output: %v", err)
			}
		})
	}
}

// Lemma 9: on a valid gadget no all-error labeling passes Ψ. We exercise
// the natural cheating attempts.
func TestNoFalseProofsOnValidGadget(t *testing.T) {
	gd, err := gadget.BuildUniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	psi := &Psi{Delta: 2}

	attempts := map[string]func() *lcl.Labeling{
		"all-error": func() *lcl.Labeling {
			out := lcl.NewLabeling(gd.G)
			for v := range out.Node {
				out.Node[v] = LabError
			}
			return out
		},
		"all-point-up": func() *lcl.Labeling {
			// Everyone points toward the center; the center must point
			// somewhere and that chain cannot terminate (Lemma 9 case 1).
			out := lcl.NewLabeling(gd.G)
			for v := graph.NodeID(0); int(v) < gd.G.NumNodes(); v++ {
				ni, _ := gadget.ParseNodeInput(gd.In.Node[v])
				switch {
				case ni.Center:
					out.Node[v] = LabError
				default:
					if hasHalf(gd.G, gd.In, v, gadget.LabParent) {
						out.Node[v] = PtrParent
					} else {
						out.Node[v] = PtrUp
					}
				}
			}
			return out
		},
		"center-points-down": func() *lcl.Labeling {
			out := lcl.NewLabeling(gd.G)
			for v := graph.NodeID(0); int(v) < gd.G.NumNodes(); v++ {
				ni, _ := gadget.ParseNodeInput(gd.In.Node[v])
				switch {
				case ni.Center:
					out.Node[v] = ErrDown(1)
				default:
					out.Node[v] = PtrRChild
				}
			}
			return out
		},
		"right-chains": func() *lcl.Labeling {
			out := lcl.NewLabeling(gd.G)
			for v := range out.Node {
				out.Node[v] = PtrRight
			}
			return out
		},
	}
	for name, build := range attempts {
		t.Run(name, func(t *testing.T) {
			if err := lcl.Verify(gd.G, psi, gd.In, build()); err == nil {
				t.Errorf("cheating attempt %q accepted on a valid gadget", name)
			}
		})
	}
}

func hasHalf(g *graph.Graph, in *lcl.Labeling, v graph.NodeID, lab lcl.Label) bool {
	for _, h := range g.Halves(v) {
		if in.HalfOf(h) == lab {
			return true
		}
	}
	return false
}

func TestPsiRejectsMislabeledValidity(t *testing.T) {
	gd, err := gadget.BuildUniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one node's input: Ψ then requires Error exactly there.
	in := gd.In.Clone()
	in.Node[gd.Ports[0]] = "Nonsense"
	vf := &Verifier{Delta: 2}
	out, _, err := vf.Run(gd.G, in, gd.G.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	psi := &Psi{Delta: 2}
	if err := lcl.Verify(gd.G, psi, in, out); err != nil {
		t.Fatalf("V's output rejected: %v", err)
	}
	// Claiming GadOk at the broken node must fail.
	bad := out.Clone()
	bad.Node[gd.Ports[0]] = LabGadOk
	if err := lcl.Verify(gd.G, psi, in, bad); err == nil {
		t.Error("GadOk over a violation accepted")
	}
	// Claiming Error at a fine node must fail.
	bad2 := out.Clone()
	bad2.Node[gd.Center] = LabError
	if err := lcl.Verify(gd.G, psi, in, bad2); err == nil {
		t.Error("Error on locally valid node accepted")
	}
}

// TestPsiViolatedKeepsTexts: a Psi reading precomputed structure
// violations reports, node for node, exactly the texts of one that checks
// the structure per call, on the verifier's output over every standard
// corruption and on outputs claiming GadOk or Error everywhere.
func TestPsiViolatedKeepsTexts(t *testing.T) {
	gd, err := gadget.BuildUniform(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for _, c := range gadget.StandardCorruptions(gd, rng) {
		g, in, err := c.Apply(gd)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := (&Verifier{Delta: 3}).Run(g, in, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		plain := &Psi{Delta: 3}
		held := &Psi{Delta: 3}
		held.Violated = held.StructureViolations(g, in)
		for _, fill := range []lcl.Label{"", LabGadOk, LabError} {
			o := out
			if fill != "" {
				o = out.Clone()
				for v := range o.Node {
					o.Node[v] = fill
				}
			}
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				want := fmt.Sprint(plain.CheckNode(g, in, o, v))
				if got := fmt.Sprint(held.CheckNode(g, in, o, v)); got != want {
					t.Fatalf("%s fill %q node %d: %s, want %s", c.Name, fill, v, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no corruption checked")
	}
}

func TestColorClashProofs(t *testing.T) {
	gd, err := gadget.BuildUniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A parallel edge forces two equal-colored neighbors at its endpoint.
	ed := gd.G.Edge(0)
	g, in, err := gadget.CopyWithExtraEdge(gd, ed.U.Node, ed.V.Node, "Garbage", "Garbage")
	if err != nil {
		t.Fatal(err)
	}
	proof, err := BuildColorClashProof(g, in, ed.U.Node)
	if err != nil {
		t.Fatalf("build proof: %v", err)
	}
	if err := CheckColorClashProof(g, in, proof); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	// On the clean gadget no node can build a proof.
	for v := graph.NodeID(0); int(v) < gd.G.NumNodes(); v++ {
		if _, err := BuildColorClashProof(gd.G, gd.In, v); err == nil {
			t.Fatalf("node %d built a clash proof on a valid gadget", v)
		}
	}
	// A fabricated proof on the clean gadget is rejected.
	fake := lcl.NewLabeling(gd.G)
	fake.Node[gd.Ports[0]] = LabClashAt
	h0 := gd.G.Halves(gd.Ports[0])[0]
	h1 := gd.G.Halves(gd.Ports[0])[1]
	fake.SetHalf(h0, ClashHalf(1))
	fake.SetHalf(h1, ClashHalf(1))
	if err := CheckColorClashProof(gd.G, gd.In, fake); err == nil {
		t.Error("fabricated clash proof accepted")
	}
}

func TestChainProofs(t *testing.T) {
	// A hand-built fragment where the 2d walk does not close:
	// v -Right-> r -LChild-> c -Left-> d -Parent-> e with e != v.
	b := graph.NewBuilder(5, 4)
	v := b.Node(1)
	r := b.Node(2)
	c := b.Node(3)
	d := b.Node(4)
	e := b.Node(5)
	e1 := b.Link(v, r)
	e2 := b.Link(r, c)
	e3 := b.Link(c, d)
	e4 := b.Link(d, e)
	g := mustBuild(b)
	in := lcl.NewLabeling(g)
	in.SetHalf(graph.Half{Edge: e1, Side: graph.SideU}, gadget.LabRight)
	in.SetHalf(graph.Half{Edge: e1, Side: graph.SideV}, gadget.LabLeft)
	in.SetHalf(graph.Half{Edge: e2, Side: graph.SideU}, gadget.LabLChild)
	in.SetHalf(graph.Half{Edge: e2, Side: graph.SideV}, gadget.LabParent)
	in.SetHalf(graph.Half{Edge: e3, Side: graph.SideU}, gadget.LabLeft)
	in.SetHalf(graph.Half{Edge: e3, Side: graph.SideV}, gadget.LabRight)
	in.SetHalf(graph.Half{Edge: e4, Side: graph.SideU}, gadget.LabParent)
	in.SetHalf(graph.Half{Edge: e4, Side: graph.SideV}, gadget.LabLChild)

	proof, err := BuildChainProof(g, in, v, 7)
	if err != nil {
		t.Fatalf("build chain proof: %v", err)
	}
	if err := CheckChainProof(g, in, proof); err != nil {
		t.Fatalf("valid chain proof rejected: %v", err)
	}
	// On a valid gadget, no node can build a chain proof (2d closes).
	gd, err := gadget.BuildUniform(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for x := graph.NodeID(0); int(x) < gd.G.NumNodes(); x++ {
		if _, err := BuildChainProof(gd.G, gd.In, x, 1); err == nil {
			t.Fatalf("node %d built a chain proof on a valid gadget", x)
		}
	}
	// A truncated proof is rejected.
	trunc := proof.Clone()
	trunc.Node[e] = ""
	if err := CheckChainProof(g, in, trunc); err == nil {
		t.Error("truncated chain accepted")
	}
}

func TestLabelParsers(t *testing.T) {
	if i, ok := ParseErrDown(ErrDown(2)); !ok || i != 2 {
		t.Errorf("ParseErrDown(ErrDown(2)) = (%d, %v)", i, ok)
	}
	if _, ok := ParseErrDown("Err:Down:x"); ok {
		t.Error("garbage Down parsed")
	}
	if !IsErrorLabel(LabError) || !IsErrorLabel(PtrUp) || !IsErrorLabel(ErrDown(1)) {
		t.Error("error labels not recognized")
	}
	if IsErrorLabel(LabGadOk) || IsErrorLabel("") {
		t.Error("non-error labels recognized as errors")
	}
	if !strings.Contains(string(ClashHalf(3)), "3") {
		t.Error("clash label rendering broken")
	}
}

// Property: for ANY single input-label mutation of a valid gadget, V's
// output satisfies the Ψ constraints — either all GadOk (mutation was
// semantically invisible, which cannot happen for structural labels) or
// valid error-pointer chains (Lemma 10 fuzz form).
func TestVerifierPsiValidUnderFuzzedInputs(t *testing.T) {
	gd, err := gadget.BuildUniform(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	labels := []lcl.Label{
		"", "Garbage", gadget.LabParent, gadget.LabLeft, gadget.LabRight,
		gadget.LabLChild, gadget.LabRChild, gadget.LabUp, gadget.HalfDown(1),
		gadget.NodeInput{Index: 2, Color: 3}.Label(),
		gadget.NodeInput{Center: true, Color: 1}.Label(),
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		in := gd.In.Clone()
		lab := labels[rng.Intn(len(labels))]
		if rng.Intn(2) == 0 {
			in.Node[rng.Intn(len(in.Node))] = lab
		} else {
			in.Half[rng.Intn(len(in.Half))] = lab
		}
		vf := &Verifier{Delta: 3}
		out, _, err := vf.Run(gd.G, in, gd.G.NumNodes())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := lcl.Verify(gd.G, &Psi{Delta: 3}, in, out); err != nil {
			t.Fatalf("trial %d (label %q): Ψ rejected V's output: %v", trial, lab, err)
		}
	}
}

// mustBuild finalizes a known-good test builder, panicking on the error
// that the sticky-error API would otherwise surface to callers.
func mustBuild(b *graph.Builder) *graph.Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
