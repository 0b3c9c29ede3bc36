// Sinklessfarm: sweep sinkless orientation over growing random 3-regular
// graphs and watch the deterministic Θ(log n) curve separate from the
// randomized Θ(log log n)-shaped curve — the left-most separation in the
// paper's Figure 1.
package main

import (
	"fmt"
	"os"

	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/measure"
	"locallab/internal/sinkless"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sinklessfarm:", err)
		os.Exit(1)
	}
}

func run() error {
	sizes := []int{128, 512, 2048, 8192}
	det, err := measure.Sweep("deterministic", sizes, 3, 1, func(n int, seed int64) (int, error) {
		return solve(sinkless.NewDetSolver(), n, seed)
	})
	if err != nil {
		return err
	}
	rnd, err := measure.Sweep("randomized", sizes, 3, 1, func(n int, seed int64) (int, error) {
		return solve(sinkless.NewRandSolver(), n, seed)
	})
	if err != nil {
		return err
	}

	rows := make([][]string, len(sizes))
	for i, n := range sizes {
		rows[i] = []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", det.Points[i].Rounds),
			fmt.Sprintf("%.1f", rnd.Points[i].Rounds),
			fmt.Sprintf("%.1f", det.Points[i].Rounds/rnd.Points[i].Rounds),
		}
	}
	fmt.Println(measure.Table([]string{"n", "det rounds", "rand rounds", "D/R"}, rows))
	fmt.Printf("det best fit:  %s\n", measure.BestFit(det.Points)[0].Model.Name)
	fmt.Printf("rand best fit: %s\n", measure.BestFit(rnd.Points)[0].Model.Name)
	return nil
}

func solve(s lcl.Solver, n int, seed int64) (int, error) {
	g, err := graph.NewRandomRegular(n, 3, seed, false)
	if err != nil {
		return 0, err
	}
	in := lcl.NewLabeling(g)
	out, cost, err := s.Solve(g, in, seed+1)
	if err != nil {
		return 0, err
	}
	if err := lcl.Verify(g, sinkless.Problem{}, in, out); err != nil {
		return 0, err
	}
	return cost.Rounds(), nil
}
