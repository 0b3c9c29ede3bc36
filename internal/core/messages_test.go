package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

var update = flag.Bool("update", false, "rewrite golden files")

// malformedOutput is one tampering of a valid Π′ output.
type malformedOutput struct {
	name string
	f    func(c *lcl.Labeling)
}

// malformedOutputs builds a small padded instance, a valid output of it,
// and the output tamperings whose violations TestMalformedLabelMessages
// pins under "out/".
func malformedOutputs(t *testing.T) (*PaddedInstance, *lcl.Labeling, []malformedOutput) {
	t.Helper()
	base := buildBase(t, 8, 17)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := NewPaddedSolver(sinkless.NewDetSolver(), 3).Solve(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	port := pi.PortsOf[0][0] // Port1 of base node 0's gadget
	plain := pi.NodesOf[0][1]
	portParts, err := Split(out.Node[port], outNodeParts)
	if err != nil {
		t.Fatal(err)
	}
	sigmaAt := func() *SigmaList {
		sl, err := DecodeSigmaList(portParts[0], 3)
		if err != nil {
			t.Fatal(err)
		}
		return sl
	}
	withSigma := func(sigma lcl.Label) lcl.Label {
		return mustCompose(t, sigma, portParts[1], portParts[2])
	}
	// gadgetSigma gives every node of base node 0's gadget the Σlist sl,
	// so the gadget-edge equality holds and the port-edge checks run.
	gadgetSigma := func(c *lcl.Labeling, sl *SigmaList) {
		for _, v := range pi.NodesOf[0] {
			parts, err := Split(out.Node[v], outNodeParts)
			if err != nil {
				t.Fatal(err)
			}
			c.Node[v] = mustCompose(t, mustEncode(t, sl), parts[1], parts[2])
		}
	}
	cases := []malformedOutput{
		{"node-garbage", func(c *lcl.Labeling) { c.Node[plain] = "garbage" }},
		{"node-truncated", func(c *lcl.Labeling) { c.Node[plain] = c.Node[plain][:len(c.Node[plain])/2] }},
		{"node-non-utf8", func(c *lcl.Labeling) { c.Node[plain] = "\xff\xfe" }},
		{"node-non-utf8-part", func(c *lcl.Labeling) { c.Node[plain] = "[\"\xff\",\"NoPortErr\",\"GadOk\"]" }},
		{"node-two-parts", func(c *lcl.Labeling) { c.Node[plain] = mustCompose(t, portParts[0], portParts[1]) }},
		{"node-four-parts", func(c *lcl.Labeling) { c.Node[plain] = mustCompose(t, portParts[0], portParts[1], portParts[2], "") }},
		{"node-object", func(c *lcl.Labeling) { c.Node[plain] = `{"a":1}` }},
		{"node-numbers", func(c *lcl.Labeling) { c.Node[plain] = `[1,2,3]` }},
		{"node-null", func(c *lcl.Labeling) { c.Node[plain] = `null` }},
		{"sigma-garbage", func(c *lcl.Labeling) { c.Node[port] = withSigma("{bad") }},
		{"sigma-truncated", func(c *lcl.Labeling) { c.Node[port] = withSigma(portParts[0][:len(portParts[0])/2]) }},
		{"sigma-wrong-type", func(c *lcl.Labeling) { c.Node[port] = withSigma(`{"s":"x"}`) }},
		{"sigma-widths", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.IE = sl.IE[:2]
			c.Node[port] = withSigma(mustEncode(t, sl))
		}},
		{"sigma-port-range", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.S = []int{7}
			c.Node[port] = withSigma(mustEncode(t, sl))
		}},
		{"sigma-not-ascending", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.S = []int{2, 1}
			c.Node[port] = withSigma(mustEncode(t, sl))
		}},
		{"sigma-s-membership", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.S = nil
			c.Node[port] = withSigma(mustEncode(t, sl))
		}},
		{"sigma-iv", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.IV = "tampered"
			c.Node[port] = withSigma(mustEncode(t, sl))
		}},
		{"sigma-ie", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.IE[0] = "tampered"
			c.Node[port] = withSigma(mustEncode(t, sl))
		}},
		{"sigma-ib", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.IB[0] = "tampered"
			c.Node[port] = withSigma(mustEncode(t, sl))
		}},
		{"sigma-divergence", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.OV = "tampered"
			c.Node[plain] = mustCompose(t, mustEncode(t, sl), NoPortErr, portParts[2])
		}},
		{"virtual-edge-input", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.IE[0] = "tampered"
			gadgetSigma(c, sl)
		}},
		{"virtual-edge-output", func(c *lcl.Labeling) {
			sl := sigmaAt()
			sl.OE[0] = "tampered"
			gadgetSigma(c, sl)
		}},
		{"virtual-orientation", func(c *lcl.Labeling) {
			sl := sigmaAt()
			for i := range sl.OB {
				if sl.OB[i] == string(sinkless.LabelOut) {
					sl.OB[i] = string(sinkless.LabelIn)
				} else if sl.OB[i] == string(sinkless.LabelIn) {
					sl.OB[i] = string(sinkless.LabelOut)
				}
			}
			gadgetSigma(c, sl)
		}},
		{"port-err-bogus", func(c *lcl.Labeling) { c.Node[port] = mustCompose(t, portParts[0], "Bogus", portParts[2]) }},
		{"port-err1", func(c *lcl.Labeling) { c.Node[port] = mustCompose(t, portParts[0], PortErr1, portParts[2]) }},
		{"psi-error-claim", func(c *lcl.Labeling) { c.Node[plain] = mustCompose(t, portParts[0], NoPortErr, "Error") }},
		{"psi-on-port-edge", func(c *lcl.Labeling) { c.Edge[pi.PortEdges[0]] = LabPsiEdge }},
		{"half-garbage", func(c *lcl.Labeling) { c.Half[0] = "garbage" }},
	}
	return pi, out, cases
}

// TestMalformedLabelMessages pins, byte for byte, the violation Π′
// reports for each of a set of malformed labels: composite outputs that
// are not JSON, truncated, non-UTF-8 or of the wrong arity; Σlists that
// are garbage, mis-sized, out of range or unfaithful; malformed
// composite inputs; and a corrupted level-3 tower output that only the
// reconstructed virtual graph rejects. The label layer decodes through a
// per-labeling table, and the golden holds the texts the plain codec
// produced, so a drift in accepted inputs or error wording fails here.
func TestMalformedLabelMessages(t *testing.T) {
	var lines []string
	record := func(name string, err error) {
		msg := "<accepted>"
		if err != nil {
			msg = err.Error()
		}
		lines = append(lines, fmt.Sprintf("%s: %q", name, msg))
	}

	pi, out, outCases := malformedOutputs(t)
	plain := pi.NodesOf[0][1]
	prime := NewPiPrime(sinkless.Problem{}, 3)
	for _, tc := range outCases {
		c := out.Clone()
		tc.f(c)
		record("out/"+tc.name, VerifyPadded(pi.G, prime, pi.In, c))
	}

	gadEdge := graph.EdgeID(-1)
	scope := GadScope(pi.G, pi.In)
	for e := graph.EdgeID(0); int(e) < pi.G.NumEdges(); e++ {
		if scope(e) {
			gadEdge = e
			break
		}
	}
	inCases := []struct {
		name string
		f    func(c *lcl.Labeling)
	}{
		{"node-garbage", func(c *lcl.Labeling) { c.Node[plain] = "garbage" }},
		{"edge-garbage", func(c *lcl.Labeling) { c.Edge[gadEdge] = "[\"\"" }},
		{"half-non-utf8", func(c *lcl.Labeling) { c.Half[3] = "\xc3" }},
		{"node-one-part", func(c *lcl.Labeling) { c.Node[plain] = mustCompose(t, "") }},
		{"gadget-unparseable", func(c *lcl.Labeling) { c.Node[plain] = mustCompose(t, "", "Nonsense:1") }},
		{"edge-class-bogus", func(c *lcl.Labeling) { c.Edge[gadEdge] = mustCompose(t, "", "Bogus") }},
	}
	for _, tc := range inCases {
		c := pi.In.Clone()
		tc.f(c)
		record("in/"+tc.name, VerifyPadded(pi.G, NewPiPrime(sinkless.Problem{}, 3), c, out))
	}
	bad := out.Clone()
	bad.Node[plain] = "garbage"
	_, _, _, err := ReconstructVirtual(pi.G, NewPiPrime(sinkless.Problem{}, 3), pi.In, bad)
	record("reconstruct/node-garbage", err)

	// Level 3: the outer Π′ is not star-checkable, so a tampered inner
	// output surfaces only when the reconstructed virtual graph is
	// verified one level down.
	lvl, err := NewLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(3, InstanceOptions{BaseNodes: 4, Seed: 5, GadgetHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	tout, _, err := lvl.Det.Solve(inst.G, inst.In, 1)
	if err != nil {
		t.Fatal(err)
	}
	record("tower/clean", lvl.Verify(inst.G, inst.In, tout))
	top := inst.Pads[len(inst.Pads)-1]
	tamperOV := func(ov lcl.Label) *lcl.Labeling {
		c := tout.Clone()
		for _, v := range top.NodesOf[0] {
			parts, err := Split(c.Node[v], outNodeParts)
			if err != nil {
				t.Fatal(err)
			}
			sl, err := DecodeSigmaList(parts[0], LevelDelta(3))
			if err != nil {
				t.Fatal(err)
			}
			sl.OV = string(ov)
			c.Node[v] = mustCompose(t, mustEncode(t, sl), parts[1], parts[2])
		}
		return c
	}
	record("tower/inner-garbage", lvl.Verify(inst.G, inst.In, tamperOV("garbage")))
	record("tower/inner-two-parts", lvl.Verify(inst.G, inst.In, tamperOV(mustCompose(t, "", NoPortErr))))
	record("tower/inner-bad-sigma", lvl.Verify(inst.G, inst.In, tamperOV(mustCompose(t, "{}", NoPortErr, "GadOk"))))

	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "malformed_messages.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("got %d lines, want %d", len(gl), len(wl))
		}
	}
}

// TestHeldVerifierIsFullCheck: a verifier holding the input projection,
// after one accepted output, reports for every tampered output of
// TestMalformedLabelMessages exactly the text a cold VerifyPadded
// reports. That includes psi-error-claim, an Error output on a valid
// gadget structure, which the held structure verdicts must still reject.
func TestHeldVerifierIsFullCheck(t *testing.T) {
	pi, out, cases := malformedOutputs(t)
	held := NewPiPrime(sinkless.Problem{}, 3).Verifier(pi.G, pi.In)
	if err := held(out); err != nil {
		t.Fatalf("clean output: %v", err)
	}
	for _, tc := range cases {
		c := out.Clone()
		tc.f(c)
		cold := VerifyPadded(pi.G, NewPiPrime(sinkless.Problem{}, 3), pi.In, c)
		if warm := held(c); fmt.Sprint(warm) != fmt.Sprint(cold) {
			t.Errorf("out/%s: held verifier reports %v, cold VerifyPadded %v", tc.name, warm, cold)
		}
		if tc.name == "psi-error-claim" && (cold == nil || !strings.Contains(cold.Error(), "output Error on locally valid structure")) {
			t.Errorf("out/%s: accepted or misreported: %v", tc.name, cold)
		}
	}
	if err := held(out); err != nil {
		t.Fatalf("clean output after tampered ones: %v", err)
	}

	// A corrupted gadget: its nodes whose structure is locally violated
	// must output Error, which the held verdicts decide; a GadOk there is
	// rejected with a cold verify's text.
	base := buildBase(t, 8, 17)
	bad, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{
		Delta: 3, GadgetHeight: 2, CorruptGadgets: []graph.NodeID{0}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	badOut, _, err := NewPaddedSolver(sinkless.NewDetSolver(), 3).Solve(bad.G, bad.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	held = NewPiPrime(sinkless.Problem{}, 3).Verifier(bad.G, bad.In)
	if err := held(badOut); err != nil {
		t.Fatalf("clean output with a corrupted gadget: %v", err)
	}
	tampered := 0
	for _, v := range bad.NodesOf[0] {
		parts, err := Split(badOut.Node[v], outNodeParts)
		if err != nil {
			t.Fatal(err)
		}
		if parts[2] != errorproof.LabError {
			continue
		}
		c := badOut.Clone()
		c.Node[v] = mustCompose(t, parts[0], parts[1], errorproof.LabGadOk)
		cold := VerifyPadded(bad.G, NewPiPrime(sinkless.Problem{}, 3), bad.In, c)
		if cold == nil {
			t.Fatalf("node %d: GadOk on a violated structure accepted", v)
		}
		if warm := held(c); fmt.Sprint(warm) != cold.Error() {
			t.Errorf("node %d: held verifier reports %v, cold VerifyPadded %v", v, warm, cold)
		}
		tampered++
	}
	if tampered == 0 {
		t.Fatal("the corrupted gadget has no Error node")
	}
}

// TestVerifyRereadsMutatedOutput: verify an output, change that same
// labeling in place, and verify it again through the same PiPrime and
// the same held verifier. Both must judge the new contents and reject
// with the text a fresh PiPrime reports.
func TestVerifyRereadsMutatedOutput(t *testing.T) {
	pi, out, _ := malformedOutputs(t)
	prime := NewPiPrime(sinkless.Problem{}, 3)
	held := prime.Verifier(pi.G, pi.In)
	if err := VerifyPadded(pi.G, prime, pi.In, out); err != nil {
		t.Fatal(err)
	}
	if err := held(out); err != nil {
		t.Fatal(err)
	}
	out.Node[pi.NodesOf[0][1]] = "garbage"
	want := VerifyPadded(pi.G, NewPiPrime(sinkless.Problem{}, 3), pi.In, out)
	if want == nil || !strings.Contains(want.Error(), `composite output: split label "garbage"`) {
		t.Fatalf("fresh PiPrime: %v", want)
	}
	if got := VerifyPadded(pi.G, prime, pi.In, out); fmt.Sprint(got) != want.Error() {
		t.Errorf("same PiPrime after the change: %v, want %v", got, want)
	}
	if got := held(out); fmt.Sprint(got) != want.Error() {
		t.Errorf("held verifier after the change: %v, want %v", got, want)
	}
}
