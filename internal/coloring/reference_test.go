package coloring

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// referenceGeometries mirrors the root determinism grid (shardedConfigs):
// from a single inline worker up to heavy oversharding.
var referenceGeometries = []engine.Options{
	{Workers: 1, Shards: 1},
	{Workers: 2, Shards: 5},
	{Workers: 4, Shards: 16},
	{Workers: 8, Shards: 64},
	{}, // auto geometry (GOMAXPROCS workers)
}

// runCV executes fresh Cole–Vishkin machines on g through run and
// returns the final colors plus the execution profile.
func runCV(t *testing.T, g *graph.Graph, run func([]engine.TypedMachine[cvMsg]) (engine.Stats, error)) ([]int64, engine.Stats) {
	t.Helper()
	machines := make([]cvTypedMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[cvMsg], len(machines))
	for v := range machines {
		typed[v] = &machines[v]
	}
	st, err := run(typed)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int64, len(machines))
	for v := range machines {
		colors[v] = machines[v].color
	}
	return colors, st
}

// TestCVMatchesReference runs cvTypedMachine under engine.RunReference
// and under every geometry of the determinism grid: final colors,
// rounds, and deliveries must be identical. The cells are exactly those
// of the root package's pinned oracle table, which the geometries must
// reproduce, so RunReference reproduces that table too.
func TestCVMatchesReference(t *testing.T) {
	for _, n := range []int{33, 100, 257} {
		for seed := int64(1); seed <= 5; seed++ {
			g, err := graph.NewCycle(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt := runCV(t, g, func(m []engine.TypedMachine[cvMsg]) (engine.Stats, error) {
				return engine.RunReference(g, m, seed, false, 1<<20)
			})
			for _, opts := range referenceGeometries {
				got, st := runCV(t, g, func(m []engine.TypedMachine[cvMsg]) (engine.Stats, error) {
					return engine.RunStats(opts, g, m, seed, false, 1<<20)
				})
				if st.Rounds != wantSt.Rounds || st.Deliveries != wantSt.Deliveries {
					t.Fatalf("n=%d seed=%d %+v: rounds/deliveries %d/%d, want %d/%d",
						n, seed, opts, st.Rounds, st.Deliveries, wantSt.Rounds, wantSt.Deliveries)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("n=%d seed=%d %+v: node %d color %d, want %d", n, seed, opts, v, got[v], want[v])
					}
				}
			}
		}
	}
}
