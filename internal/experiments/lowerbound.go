package experiments

import (
	"fmt"
	"math"
	"math/bits"

	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/measure"
	"locallab/internal/sinkless"
)

// LowerBoundWitness regenerates the intuition behind the paper's
// deterministic lower bounds: on the hard instance families, radius-r
// views are mutually indistinguishable (few Weisfeiler-Leman classes)
// until r reaches Ω(log n), so identifier-oblivious decisions are
// impossible earlier; combined with the t(v) ball-locality of the solver
// (validated in the sinkless tests), the measured Θ(log n) deterministic
// cost is squeezed from both sides.
func LowerBoundWitness(sc Scale) (*Result, error) {
	sizes := []int{127, 511, 2047}
	if sc == Full {
		sizes = append(sizes, 8191)
	}
	var rows [][]string
	for _, n := range sizes {
		h := bits.Len(uint(n + 1))
		g, err := graph.NewBitrevTree(h-0, 1)
		if err != nil {
			return nil, err
		}
		logn := int(math.Ceil(math.Log2(float64(g.NumNodes()))))
		counts := graph.WLClassCounts(g, logn)
		// Radius at which the class count first exceeds sqrt(n): views
		// have become informative.
		breakR := len(counts) - 1
		for r, k := range counts {
			if float64(k) > math.Sqrt(float64(g.NumNodes())) {
				breakR = r
				break
			}
		}
		rows = append(rows, []string{
			fmt.Sprint(g.NumNodes()),
			fmt.Sprint(counts[0]), fmt.Sprint(counts[min(2, len(counts)-1)]), fmt.Sprint(counts[len(counts)-1]),
			fmt.Sprint(breakR),
			fmt.Sprintf("%.2f", float64(breakR)/math.Log2(float64(g.NumNodes()))),
		})
	}
	return &Result{
		ID:    "E-L1",
		Title: "Lower-bound witness: view indistinguishability on the hard family",
		Table: measure.Table([]string{"n", "WL classes r=0", "r=2", "r=log n", "informative radius", "radius/log2 n"}, rows),
		Notes: []string{
			"the bit-reversal tree family keeps view classes sparse until radius Θ(log n)",
			"identifier-oblivious algorithms cannot act before views differ — the round-elimination intuition",
		},
	}, nil
}

// AblationDoubling measures the cost of the adaptive doubling schedule
// (Section 2's view-gathering formulation): a node that needs radius t
// but discovers it by doubling gathers up to 2t — a factor-2 overhead the
// exact-charging solver avoids.
func AblationDoubling(sc Scale) (*Result, error) {
	var rows [][]string
	for _, n := range sc.regularSizes() {
		g, err := graph.NewRandomRegular(n, 3, int64(n)+5, false)
		if err != nil {
			return nil, err
		}
		sol := sinkless.NewDetSolver()
		_, cost, err := sol.Solve(g, lclNew(g), 0)
		if err != nil {
			return nil, err
		}
		exact := cost.Rounds()
		// Doubling schedule: each node pays the smallest power of two
		// >= its exact radius.
		doubled := lcl.NewCost(g.NumNodes())
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			r := cost.Radius(v)
			p := 1
			for p < r {
				p *= 2
			}
			doubled.Charge(v, p)
		}
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(exact), fmt.Sprint(doubled.Rounds()),
			fmt.Sprintf("%.2f", float64(doubled.Rounds())/math.Max(float64(exact), 1)),
		})
	}
	return &Result{
		ID:    "E-A3",
		Title: "Ablation: exact-radius charging vs adaptive doubling",
		Table: measure.Table([]string{"n", "exact rounds", "doubled rounds", "overhead"}, rows),
		Notes: []string{"doubling costs at most 2x — the constant the equivalence of Section 2 hides"},
	}, nil
}

// AblationMessageProtocol compares the reference randomized solver (wave
// accounting) with the pure message-passing protocol on the goroutine
// runtime: same algorithmic idea, protocol rounds within a small factor.
func AblationMessageProtocol(sc Scale) (*Result, error) {
	msg := sinkless.NewMessageSolver()
	msg.Engine = serialEngine()
	var rows [][]string
	for _, n := range sc.regularSizes() {
		g, err := graph.NewRandomRegular(n, 3, int64(n)+9, false)
		if err != nil {
			return nil, err
		}
		_, refCost, err := sinkless.NewRandSolver().Solve(g, lclNew(g), 4)
		if err != nil {
			return nil, err
		}
		_, msgCost, err := msg.Solve(g, lclNew(g), 4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(refCost.Rounds()), fmt.Sprint(msgCost.Rounds()),
		})
	}
	return &Result{
		ID:    "E-A4",
		Title: "Ablation: reference randomized solver vs message-passing protocol",
		Table: measure.Table([]string{"n", "reference rounds", "protocol rounds"}, rows),
		Notes: []string{"the goroutine protocol implements the same claims+repair idea with per-hop request/grant messages"},
	}, nil
}
