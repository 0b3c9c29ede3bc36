// Command lcl-gadget builds, validates, corrupts, and renders members of
// the (log, Δ)-gadget family (Figures 5 and 6).
//
// Usage:
//
//	lcl-gadget -delta 3 -height 4 [-corrupt half-label-garbage] [-dot out.dot] [-verify]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"locallab/internal/errorproof"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lcl-gadget:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lcl-gadget", flag.ContinueOnError)
	delta := fs.Int("delta", 3, "number of sub-gadgets Δ (>= 2)")
	height := fs.Int("height", 4, "uniform sub-gadget height (>= 2)")
	corrupt := fs.String("corrupt", "", "apply a named corruption (see -list)")
	list := fs.Bool("list", false, "list available corruptions")
	dot := fs.String("dot", "", "write the gadget in Graphviz DOT format to this file")
	verify := fs.Bool("verify", true, "run the error-proof verifier V and report")
	seed := fs.Int64("seed", 1, "corruption site seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	gd, err := gadget.BuildUniform(*delta, *height)
	if err != nil {
		return err
	}
	fmt.Println(gd.Describe())

	if *list {
		for _, c := range gadget.StandardCorruptions(gd, rand.New(rand.NewSource(*seed))) {
			fmt.Println(" ", c.Name)
		}
		return nil
	}

	g, in := gd.G, gd.In
	if *corrupt != "" {
		found := false
		for _, c := range gadget.StandardCorruptions(gd, rand.New(rand.NewSource(*seed))) {
			if c.Name == *corrupt {
				g, in, err = c.Apply(gd)
				if err != nil {
					return fmt.Errorf("apply corruption: %w", err)
				}
				found = true
				fmt.Println("applied corruption:", c.Name)
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown corruption %q (use -list)", *corrupt)
		}
	}

	if err := gadget.Validate(g, in, *delta); err != nil {
		fmt.Println("structure check: INVALID —", err)
	} else {
		fmt.Println("structure check: valid gadget")
	}

	if *verify {
		vf := &errorproof.Verifier{Delta: *delta}
		out, cost, err := vf.Run(g, in, g.NumNodes())
		if err != nil {
			return err
		}
		counts := map[lcl.Label]int{}
		for _, l := range out.Node {
			counts[l]++
		}
		fmt.Printf("verifier V: %d rounds, outputs: %v\n", cost.Rounds(), counts)
		if err := lcl.Verify(g, &errorproof.Psi{Delta: *delta}, in, out); err != nil {
			return fmt.Errorf("Ψ rejected V's output: %w", err)
		}
		fmt.Println("Ψ constraints: satisfied")
	}

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		err = graph.WriteDOT(f, g, graph.DOTOptions{
			Name: "gadget",
			NodeLabel: func(v graph.NodeID) string {
				return string(in.Node[v])
			},
		})
		if err != nil {
			return err
		}
		fmt.Println("wrote", *dot)
	}
	return nil
}
