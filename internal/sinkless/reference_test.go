package sinkless

import (
	"fmt"
	"slices"
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

// runSM executes fresh protocol machines on g through run and returns
// the final per-port orientations plus the execution profile.
func runSM(t *testing.T, g *graph.Graph, run func([]engine.TypedMachine[smMsg]) (engine.Stats, error)) ([][]bool, engine.Stats) {
	t.Helper()
	machines := make([]smTyped, g.NumNodes())
	typed := make([]engine.TypedMachine[smMsg], len(machines))
	for v := range machines {
		typed[v] = &machines[v]
	}
	st, err := run(typed)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]bool, len(machines))
	for v := range machines {
		outs[v] = machines[v].out
	}
	return outs, st
}

// TestMessageProtocolMatchesReference runs smTyped under
// engine.RunReference and under every geometry of the determinism grid:
// orientations, rounds, and deliveries must be identical. The 3-regular
// cells are exactly those of the root package's pinned oracle table,
// which the geometries must reproduce, so RunReference reproduces that
// table too; one 4-regular multigraph adds denser self-loop and
// parallel-edge traffic.
func TestMessageProtocolMatchesReference(t *testing.T) {
	type cell struct {
		g    *graph.Graph
		seed int64
	}
	cells := map[string]cell{}
	for _, n := range []int{64, 128, 256} {
		for seed := int64(1); seed <= 5; seed++ {
			g, err := graph.NewRandomRegular(n, 3, seed*31+int64(n), false)
			if err != nil {
				t.Fatal(err)
			}
			cells[fmt.Sprintf("3reg/n%d/s%d", n, seed)] = cell{g, seed}
		}
	}
	multi, err := graph.NewRandomRegular(64, 4, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	cells["4reg/n64"] = cell{multi, 9}
	for name, c := range cells {
		g, seed := c.g, c.seed
		want, wantSt := runSM(t, g, func(m []engine.TypedMachine[smMsg]) (engine.Stats, error) {
			return engine.RunReference(g, m, seed, true, MessageMaxRounds)
		})
		for _, opts := range referenceGeometries {
			got, st := runSM(t, g, func(m []engine.TypedMachine[smMsg]) (engine.Stats, error) {
				return engine.RunStats(opts, g, m, seed, true, MessageMaxRounds)
			})
			if st.Rounds != wantSt.Rounds || st.Deliveries != wantSt.Deliveries {
				t.Fatalf("%s %+v: rounds/deliveries %d/%d, want %d/%d",
					name, opts, st.Rounds, st.Deliveries, wantSt.Rounds, wantSt.Deliveries)
			}
			for v := range want {
				if !slices.Equal(got[v], want[v]) {
					t.Fatalf("%s %+v: node %d orientation %v, want %v", name, opts, v, got[v], want[v])
				}
			}
		}
	}
}
