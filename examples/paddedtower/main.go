// Paddedtower: run the paper's headline objects — the padded problems
// Π₂ and Π₃ of Theorem 11 — through the unified solver registry
// (internal/solver): the Lemma-4 pipeline executes as message-passing
// machines on the sharded engine, and the table shows the Theorem-1 cost
// decomposition T(Π, √N)·d(√N) next to the rounds actually measured on
// the engine.
package main

import (
	"fmt"
	"io"
	"os"

	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/measure"
	"locallab/internal/solver"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paddedtower:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Π₂ on a balanced instance (base √N-sized, gadgets √N-sized),
	// through the same registry entries lcl-run and lcl-scenario execute.
	eng := engine.New(engine.Options{Workers: 2, Shards: 8})
	var rows [][]string
	var described bool
	for _, name := range []string{"pi2-det", "pi2-rand"} {
		entry, ok := solver.ByName(name)
		if !ok {
			return fmt.Errorf("solver %q missing from the registry", name)
		}
		o, err := entry.Run(solver.Request{Family: solver.PaddedFamily, N: 64, Seed: 9, Engine: eng})
		if err != nil {
			return err
		}
		if !described {
			fmt.Fprintln(w, core.DescribeInstance(o.Instance.Pads[0]))
			fmt.Fprintln(w)
			described = true
		}
		d := o.Padded
		inner := 0
		if d.InnerCost != nil {
			inner = d.InnerCost.Rounds()
		}
		rows = append(rows, []string{
			entry.Name, fmt.Sprint(inner), fmt.Sprint(d.Dilation),
			fmt.Sprint(d.PsiRadius), fmt.Sprint(o.Rounds),
			fmt.Sprint(o.Stats.Rounds), fmt.Sprint(o.Stats.Deliveries), "verified",
		})
	}
	fmt.Fprintln(w, measure.Table(
		[]string{"Π₂ solver", "inner T", "dilation d", "Ψ radius", "analytic rounds", "engine rounds", "deliveries", "status"}, rows))

	// Π₃: one more padding level (kept small; the instance is the square
	// of the square). The top layer runs on the engine; the inner padded
	// level recurses sequentially (see ROADMAP for the full tower).
	lvl3, err := core.NewLevel(3)
	if err != nil {
		return err
	}
	det3, _, err := lvl3.EngineSolvers(eng)
	if err != nil {
		return err
	}
	inst3, err := core.BuildInstance(3, core.InstanceOptions{BaseNodes: 6, Seed: 2, GadgetHeight: 2})
	if err != nil {
		return err
	}
	d3, err := det3.SolveDetailed(inst3.G, inst3.In, 1)
	if err != nil {
		return err
	}
	if err := lvl3.Verify(inst3.G, inst3.In, d3.Out); err != nil {
		return fmt.Errorf("Π₃ verification failed: %w", err)
	}
	fmt.Fprintf(w, "\nΠ₃ instance: N=%d (level-2 virtual graph inside), solved in %d rounds (%d measured on the engine), verified recursively\n",
		inst3.G.NumNodes(), d3.Cost.Rounds(), d3.Engine.Rounds())

	return nil
}
