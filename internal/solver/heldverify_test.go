package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// outputCorruption is one tampering of a padded output.
type outputCorruption struct {
	name string
	f    func(out *lcl.Labeling) error
}

// standardOutputCorruptions replays the 12 standard gadget corruptions
// (gadget.StandardCorruptions) on outputs of inst: every label a
// corruption writes into a gadget's input is written into the output at
// the same element of the top-level instance's first gadget. "/psi"
// writes a node label as the Ψ part of that node's composite, so the
// new composite still carries assembly's Σlist; "/bare" writes it as the
// whole label. Half labels are written as they are, those of an added
// edge onto the gadget's first edge.
func standardOutputCorruptions(t *testing.T, inst *core.Instance) []outputCorruption {
	t.Helper()
	pad := inst.Pads[len(inst.Pads)-1]
	gd, err := gadget.BuildUniform(pad.Opts.Delta, pad.Opts.GadgetHeight)
	if err != nil {
		t.Fatal(err)
	}
	nodes := pad.NodesOf[0]
	if len(nodes) != gd.G.NumNodes() {
		t.Fatalf("first gadget has %d nodes, prototype %d", len(nodes), gd.G.NumNodes())
	}
	// halfAt maps a prototype half-edge onto the first gadget's copy,
	// which BuildPadded adds with the prototype's orientation.
	halfAt := func(h graph.Half) graph.Half {
		ed := gd.G.Edge(h.Edge)
		u, v := nodes[ed.U.Node], nodes[ed.V.Node]
		for _, ph := range inst.G.Halves(u) {
			if ph.Side == graph.SideU && inst.G.Edge(ph.Edge).V.Node == v {
				return graph.Half{Edge: ph.Edge, Side: h.Side}
			}
		}
		t.Fatalf("prototype edge %d has no copy in the first gadget", h.Edge)
		return graph.Half{}
	}
	corruptions := gadget.StandardCorruptions(gd, rand.New(rand.NewSource(1)))
	if len(corruptions) != 12 {
		t.Fatalf("%d standard corruptions, want 12", len(corruptions))
	}
	var out []outputCorruption
	for _, c := range corruptions {
		g, in, err := c.Apply(gd)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		type write struct {
			v   graph.NodeID
			lab lcl.Label
		}
		var nodeWrites []write
		for v := graph.NodeID(0); int(v) < gd.G.NumNodes(); v++ {
			if in.Node[v] != gd.In.Node[v] {
				nodeWrites = append(nodeWrites, write{nodes[v], in.Node[v]})
			}
		}
		halfWrites := map[graph.Half]lcl.Label{}
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			for _, side := range []graph.Side{graph.SideU, graph.SideV} {
				h := graph.Half{Edge: e, Side: side}
				switch {
				case int(e) >= gd.G.NumEdges():
					halfWrites[halfAt(graph.Half{Edge: 0, Side: side})] = in.HalfOf(h)
				case in.HalfOf(h) != gd.In.HalfOf(h):
					halfWrites[halfAt(h)] = in.HalfOf(h)
				}
			}
		}
		if len(nodeWrites)+len(halfWrites) == 0 {
			t.Fatalf("%s writes no label", c.Name)
		}
		for _, mode := range []string{"psi", "bare"} {
			out = append(out, outputCorruption{c.Name + "/" + mode, func(o *lcl.Labeling) error {
				for _, w := range nodeWrites {
					lab := w.lab
					if mode == "psi" {
						parts, err := core.Split(o.Node[w.v], 3)
						if err != nil {
							return err
						}
						if lab, err = core.Compose(parts[0], parts[1], w.lab); err != nil {
							return err
						}
					}
					o.Node[w.v] = lab
				}
				for h, lab := range halfWrites {
					o.SetHalf(h, lab)
				}
				return nil
			}})
		}
	}
	return out
}

// TestSeededVerifyMatchesFresh: for every padded registry row, seeds
// 1-3, verifying a solve's output through the held verifier seeded with
// the solve's own label table returns exactly what a fresh Level.Verify
// returns, on the output and on it after each standard corruption; and
// a registry Run's Outcome keeps no table.
func TestSeededVerifyMatchesFresh(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	for _, r := range paddedRows {
		base := 8
		if r.level == 3 {
			base = 4
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", r.name, seed), func(t *testing.T) {
				lvl, err := core.NewLevel(r.level)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := core.BuildInstance(r.level, core.InstanceOptions{BaseNodes: base, Seed: seed, Balanced: true})
				if err != nil {
					t.Fatal(err)
				}
				solve, release, err := r.solver(lvl, eng)
				if err != nil {
					t.Fatal(err)
				}
				defer release()
				verify := lvl.Verifier(inst.G, inst.In)
				cases := append([]outputCorruption{{"clean", func(*lcl.Labeling) error { return nil }}},
					standardOutputCorruptions(t, inst)...)
				rejected := 0
				for _, c := range cases {
					d, err := solve(inst.G, inst.In, seed)
					if err != nil {
						t.Fatal(err)
					}
					if d.Labels == nil {
						t.Fatal("solve returned no label table")
					}
					if err := c.f(d.Out); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					want := lvl.Verify(inst.G, inst.In, d.Out)
					if got := verify(d.Out, d.Labels); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: seeded verify %v, fresh Level.Verify %v", c.name, got, want)
					}
					if c.name == "clean" && want != nil {
						t.Fatalf("clean output rejected: %v", want)
					}
					if want != nil {
						rejected++
					}
				}
				if rejected == 0 {
					t.Error("no corruption was rejected")
				}

				e, ok := ByName(r.name)
				if !ok {
					t.Fatalf("no %s entry", r.name)
				}
				p, err := e.Prepare(Request{Family: PaddedFamily, N: base, Seed: seed, Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				for run := 0; run < 2; run++ {
					o, err := p.Run()
					if err != nil {
						t.Fatal(err)
					}
					if o.Padded.Labels != nil {
						t.Fatalf("run %d: Outcome.Padded keeps the assembly label table", run)
					}
				}
			})
		}
	}
}
