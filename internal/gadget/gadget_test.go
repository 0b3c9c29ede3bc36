package gadget

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"locallab/internal/graph"
	"locallab/internal/lcl"
)

func TestBuildUniformShape(t *testing.T) {
	gd, err := BuildUniform(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 sub-gadgets of 2^4-1 = 15 nodes plus the center.
	if got, want := gd.NumNodes(), 3*15+1; got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	if len(gd.Ports) != 3 {
		t.Fatalf("ports = %d, want 3", len(gd.Ports))
	}
	for i, p := range gd.Ports {
		ni, err := ParseNodeInput(gd.In.Node[p])
		if err != nil {
			t.Fatal(err)
		}
		if ni.Port != i+1 || ni.Index != i+1 {
			t.Errorf("port %d has labels Port:%d Index:%d", i+1, ni.Port, ni.Index)
		}
	}
	ci, err := ParseNodeInput(gd.In.Node[gd.Center])
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Center {
		t.Error("center node not labeled Center")
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	if _, err := BuildUniform(1, 3); err == nil {
		t.Error("delta 1 should fail")
	}
	if _, err := BuildUniform(3, 1); err == nil {
		t.Error("height 1 should fail")
	}
	if _, err := Build(3, []int{2, 2}); err == nil {
		t.Error("wrong heights length should fail")
	}
}

func TestValidGadgetPassesChecker(t *testing.T) {
	for _, tc := range []struct {
		delta   int
		heights []int
	}{
		{2, []int{2, 2}},
		{3, []int{4, 4, 4}},
		{3, []int{2, 5, 3}}, // mixed heights are legal family members
		{4, []int{3, 3, 3, 3}},
	} {
		gd, err := Build(tc.delta, tc.heights)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(gd.G, gd.In, tc.delta); err != nil {
			t.Errorf("valid gadget Δ=%d heights=%v rejected: %v", tc.delta, tc.heights, err)
		}
	}
}

func TestGadgetDiameterLogarithmic(t *testing.T) {
	// Definition 2: an (n, O(log n))-gadget. Check diameter <= c*log2(n).
	for _, h := range []int{3, 5, 7, 9} {
		gd, err := BuildUniform(3, h)
		if err != nil {
			t.Fatal(err)
		}
		n := gd.NumNodes()
		diam := gd.G.Diameter()
		bound := int(4*math.Log2(float64(n))) + 4
		if diam > bound {
			t.Errorf("height %d: diameter %d exceeds 4·log2(%d)+4 = %d", h, diam, n, bound)
		}
		// Port pairwise distances are Θ(log n) too.
		for i := 0; i < len(gd.Ports); i++ {
			dist := gd.G.BFSFrom(gd.Ports[i], -1)
			for j := i + 1; j < len(gd.Ports); j++ {
				d := dist[gd.Ports[j]]
				if d < 2*(h-1) || d > bound {
					t.Errorf("height %d: port distance %d outside [%d, %d]", h, d, 2*(h-1), bound)
				}
			}
		}
	}
}

func TestHeightForNodes(t *testing.T) {
	for _, want := range []int{10, 50, 200, 1000} {
		h := HeightForNodes(3, want)
		got := GadgetSize(uniformHeights(3, h))
		if got < want {
			t.Errorf("HeightForNodes(3, %d) = %d gives only %d nodes", want, h, got)
		}
		if h > 2 {
			smaller := GadgetSize(uniformHeights(3, h-1))
			if smaller >= want {
				t.Errorf("HeightForNodes(3, %d) = %d not minimal (h-1 already gives %d)", want, h, smaller)
			}
		}
	}
}

func TestEveryCorruptionIsCaught(t *testing.T) {
	gd, err := BuildUniform(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range StandardCorruptions(gd, rng) {
		t.Run(c.Name, func(t *testing.T) {
			g, in, err := c.Apply(gd)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if err := Validate(g, in, gd.Delta); err == nil {
				t.Errorf("corruption %q passed validation; local checkability broken", c.Name)
			}
		})
	}
	// The original must remain untouched and valid.
	if err := Validate(gd.G, gd.In, gd.Delta); err != nil {
		t.Fatalf("original gadget mutated by corruption run: %v", err)
	}
}

// TestParsedNodeInputsMatchChecker: a Checker reading pre-parsed node
// inputs gives every node of every standard corruption the same verdict
// and message as one parsing each label afresh, and a NodeInputs parsed
// from another labeling is never consulted.
func TestParsedNodeInputsMatchChecker(t *testing.T) {
	gd, err := BuildUniform(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	stale := ParseNodeInputs(gd.In)
	for _, c := range StandardCorruptions(gd, rng) {
		g, in, err := c.Apply(gd)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		parsed := ParseNodeInputs(in)
		plain := &Checker{Delta: gd.Delta}
		cached := &Checker{Delta: gd.Delta, Inputs: parsed}
		other := &Checker{Delta: gd.Delta, Inputs: stale}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			ni, err := ParseNodeInput(in.Node[v])
			gotNI, gotErr := parsed.Of(in, v)
			if gotNI != ni || (gotErr == nil) != (err == nil) || (err != nil && gotErr.Error() != err.Error()) {
				t.Fatalf("%s node %d: parsed %+v/%v, want %+v/%v", c.Name, v, gotNI, gotErr, ni, err)
			}
			want := fmt.Sprint(plain.CheckNode(g, in, v))
			if got := fmt.Sprint(cached.CheckNode(g, in, v)); got != want {
				t.Fatalf("%s node %d: cached checker %q, plain %q", c.Name, v, got, want)
			}
			if got := fmt.Sprint(other.CheckNode(g, in, v)); got != want {
				t.Fatalf("%s node %d: checker with another labeling's inputs %q, plain %q", c.Name, v, got, want)
			}
		}
	}
}

func TestCheckerScope(t *testing.T) {
	// With an extra out-of-scope edge, the checker must still accept:
	// this models PortEdges in padded graphs.
	gd, err := BuildUniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, in, err := CopyWithExtraEdge(gd, gd.Ports[0], gd.Ports[1], "", "")
	if err != nil {
		t.Fatal(err)
	}
	extraEdge := graph.EdgeID(g.NumEdges() - 1)
	c := &Checker{Delta: 2, Scope: func(e graph.EdgeID) bool { return e != extraEdge }}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if err := c.CheckNode(g, in, v); err != nil {
			t.Fatalf("scoped check rejected valid gadget+portedge: %v", err)
		}
	}
	// Without the scope, the same graph must be rejected.
	if err := Validate(g, in, 2); err == nil {
		t.Error("unscoped check accepted gadget with stray edge")
	}
}

func TestFirstViolation(t *testing.T) {
	gd, err := BuildUniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, errv := FirstViolation(gd.G, gd.In, &Checker{Delta: 2})
	if v != -1 || errv != nil {
		t.Fatalf("FirstViolation on valid gadget = (%d, %v)", v, errv)
	}
	in := gd.In.Clone()
	in.Node[gd.Ports[0]] = "Nonsense"
	v, errv = FirstViolation(gd.G, in, &Checker{Delta: 2})
	if v < 0 || errv == nil {
		t.Fatal("FirstViolation missed a corrupted node")
	}
}

func TestNodeInputRoundTrip(t *testing.T) {
	f := func(center bool, idx, port, color uint8) bool {
		ni := NodeInput{
			Center: center,
			Index:  int(idx%4) + 1,
			Port:   int(port % 5),
			Color:  int(color),
		}
		if ni.Port > 0 {
			ni.Port = ni.Index
		}
		got, err := ParseNodeInput(ni.Label())
		if err != nil {
			return false
		}
		return got == ni
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDown(t *testing.T) {
	if i, ok := ParseDown(HalfDown(3)); !ok || i != 3 {
		t.Errorf("ParseDown(HalfDown(3)) = (%d, %v)", i, ok)
	}
	for _, bad := range []string{"Down:", "Down:0", "Down:-1", "Up", "down:2"} {
		if _, ok := ParseDown(lcl.Label(bad)); ok {
			t.Errorf("ParseDown(%q) accepted", bad)
		}
	}
}
