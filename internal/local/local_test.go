package local

import (
	"errors"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// floodMachine floods the maximum identifier; all nodes learn it in
// eccentricity-many rounds. Used to validate the synchronous runtime.
type floodMachine struct {
	best   int64
	target int64
}

func (m *floodMachine) Init(info NodeInfo) { m.best = info.ID }

func (m *floodMachine) Round(recv, send []int64) bool {
	for _, v := range recv {
		m.best = max(m.best, v)
	}
	for p := range send {
		send[p] = m.best
	}
	// Terminate when the value equals the known global target.
	return m.best == m.target
}

func floodMachines(g *graph.Graph, target int64) ([]floodMachine, []TypedMachine[int64]) {
	machines := make([]floodMachine, g.NumNodes())
	typed := make([]TypedMachine[int64], g.NumNodes())
	for v := range machines {
		machines[v].target = target
		typed[v] = &machines[v]
	}
	return machines, typed
}

func TestRunFloodsMaxID(t *testing.T) {
	g, err := graph.NewCycle(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	var target int64
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		target = max(target, g.ID(v))
	}
	for _, e := range []*engine.Engine{nil, engine.New(engine.Options{Workers: 1}), engine.New(engine.Options{Workers: 3, Shards: 5})} {
		machines, typed := floodMachines(g, target)
		st, err := RunStatsTyped(e, g, typed, 0, false, 100)
		if err != nil {
			t.Fatalf("run %+v: %v", e.Options(), err)
		}
		// On an 11-cycle the max ID needs at most 6 hops to reach everyone.
		if st.Rounds > 7 {
			t.Errorf("%+v: flooding took %d rounds, want <= 7", e.Options(), st.Rounds)
		}
		if want := int64(st.Rounds-1) * int64(g.NumPorts()); st.Deliveries != want {
			t.Errorf("%+v: deliveries = %d, want %d", e.Options(), st.Deliveries, want)
		}
		for v, m := range machines {
			if m.best != target {
				t.Errorf("%+v: node %d learned %d, want %d", e.Options(), v, m.best, target)
			}
		}
	}
}

func TestRunRoundLimit(t *testing.T) {
	g, _ := graph.NewCycle(5, 0)
	_, typed := floodMachines(g, -1) // unreachable target: never done
	st, err := RunStatsTyped(nil, g, typed, 0, false, 3)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if st.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", st.Rounds)
	}
	if _, err := RunStatsTyped(nil, g, typed[:2], 0, false, 3); err == nil || errors.Is(err, ErrRoundLimit) {
		t.Fatalf("machine count mismatch: err = %v, want a wrapped validation error", err)
	}
}

func TestCost(t *testing.T) {
	c := NewCost(4)
	c.Charge(0, 3)
	c.Charge(0, 1) // monotone: no decrease
	c.Charge(2, 7)
	if got := c.Radius(0); got != 3 {
		t.Errorf("Radius(0) = %d, want 3", got)
	}
	if got := c.Rounds(); got != 7 {
		t.Errorf("Rounds = %d, want 7", got)
	}
	o := NewCost(4)
	o.Charge(1, 9)
	c.Merge(o)
	if got := c.Rounds(); got != 9 {
		t.Errorf("after merge Rounds = %d, want 9", got)
	}
	h := c.Histogram()
	if h[0] != 1 || h[3] != 1 || h[7] != 1 || h[9] != 1 {
		t.Errorf("unexpected histogram %v", h)
	}
}

func TestCostChargeMonotone(t *testing.T) {
	c := NewCost(3)
	for _, r := range []int{5, 2, 5, 1, 0} {
		c.Charge(1, r)
		if got := c.Radius(1); got != 5 {
			t.Fatalf("after Charge(1, %d): Radius = %d, want 5 (monotone)", r, got)
		}
	}
	if got := c.Radius(0); got != 0 {
		t.Errorf("uncharged node Radius = %d, want 0", got)
	}
}

func TestCostHistogramAccountsEveryNode(t *testing.T) {
	c := NewCost(6)
	c.Charge(1, 2)
	c.Charge(2, 2)
	c.Charge(3, 9)
	h := c.Histogram()
	total := 0
	for _, k := range h {
		total += k
	}
	if total != 6 {
		t.Errorf("histogram counts %d nodes, want 6", total)
	}
	if h[0] != 3 || h[2] != 2 || h[9] != 1 {
		t.Errorf("histogram = %v, want 0:3 2:2 9:1", h)
	}
}

func TestCostMergeIsPerNodeMax(t *testing.T) {
	a, b := NewCost(4), NewCost(4)
	a.Charge(0, 4)
	a.Charge(1, 1)
	b.Charge(1, 6)
	b.Charge(2, 2)
	// Merge must be the per-node max, and merging the other way around
	// must give the same result (commutativity).
	a2, b2 := NewCost(4), NewCost(4)
	a2.Charge(0, 4)
	a2.Charge(1, 1)
	b2.Charge(1, 6)
	b2.Charge(2, 2)
	a.Merge(b)
	b2.Merge(a2)
	for v := 0; v < 4; v++ {
		if a.Radius(graph.NodeID(v)) != b2.Radius(graph.NodeID(v)) {
			t.Fatalf("merge not commutative at node %d: %d vs %d", v, a.Radius(graph.NodeID(v)), b2.Radius(graph.NodeID(v)))
		}
	}
	want := []int{4, 6, 2, 0}
	for v, r := range want {
		if got := a.Radius(graph.NodeID(v)); got != r {
			t.Errorf("merged Radius(%d) = %d, want %d", v, got, r)
		}
	}
	// Merging an all-zero tracker is the identity.
	before := a.Histogram()
	a.Merge(NewCost(4))
	after := a.Histogram()
	for r, k := range before {
		if after[r] != k {
			t.Errorf("identity merge changed histogram at radius %d: %d -> %d", r, k, after[r])
		}
	}
}

func TestAdaptiveRadiusUndecidedError(t *testing.T) {
	g, err := graph.NewPath(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A decide that never accepts must error out exactly at the cap and
	// still report the final (clamped) radius.
	r, err := AdaptiveRadius(g, 5, 6, func(*graph.Ball) bool { return false })
	if err == nil {
		t.Fatal("expected undecided error at max radius")
	}
	if r != 6 {
		t.Errorf("final radius = %d, want the clamped cap 6", r)
	}
	// A decide that accepts only at the cap succeeds without error.
	r, err = AdaptiveRadius(g, 5, 6, func(b *graph.Ball) bool { return len(b.Dist) >= 10 })
	if err != nil {
		t.Fatalf("cap-accepting decide errored: %v", err)
	}
	if r != 6 {
		t.Errorf("cap-accepting radius = %d, want 6", r)
	}
}

func TestAdaptiveRadius(t *testing.T) {
	g, err := graph.NewPath(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Decide once the ball contains at least 8 nodes.
	r, err := AdaptiveRadius(g, 10, 64, func(b *graph.Ball) bool {
		return len(b.Dist) >= 8
	})
	if err != nil {
		t.Fatal(err)
	}
	if r < 4 || r > 8 {
		t.Errorf("adaptive radius = %d, want in [4,8] (doubling schedule)", r)
	}
	// Undecidable probe errors out at the cap.
	if _, err := AdaptiveRadius(g, 0, 4, func(*graph.Ball) bool { return false }); err == nil {
		t.Error("expected error at max radius")
	}
}
