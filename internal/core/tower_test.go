package core

import (
	"fmt"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/lcl"
)

// towerGeometryGrid is the worker/shard grid every tower cell must be
// byte-identical across: {1,2,4} workers × {1,2} shards.
var towerGeometryGrid = []engine.Options{
	{Workers: 1, Shards: 1},
	{Workers: 1, Shards: 2},
	{Workers: 2, Shards: 1},
	{Workers: 2, Shards: 2},
	{Workers: 4, Shards: 1},
	{Workers: 4, Shards: 2},
}

// TestTowerLevelByteIdentity is the depth axis of the byte-identity grid
// (the TestDeriveRNGStreamStability pattern extended to the flattened
// Π-tower): at every hierarchy level the engine tower — each padding
// layer its own engine run, nested sessions all the way down — must
// produce labelings byte-identical to the sequential PaddedSolver
// oracle, for the deterministic and the randomized solver, across the
// full worker/shard grid, with the measured engine rounds within the
// charged Cost bound and the whole measured profile geometry-invariant.
//
// Levels 2 and 3 sweep 3 sizes × 3 seeds. A level-4 instance has ~10k
// nodes at the minimum base (every padding step multiplies the size by
// the gadget order), so level 4 pins one cell — still over the full
// geometry grid, still det+rand — to keep the depth-3 tower exercised
// without multi-minute runtimes.
func TestTowerLevelByteIdentity(t *testing.T) {
	cases := []struct {
		level    int
		bases    []int
		seeds    []int64
		balanced bool
	}{
		{level: 2, bases: []int{8, 12, 16}, seeds: []int64{1, 2, 3}, balanced: true},
		{level: 3, bases: []int{4, 6, 8}, seeds: []int64{1, 2, 3}},
		{level: 4, bases: []int{4}, seeds: []int64{1}},
	}
	for _, tc := range cases {
		lvl, err := NewLevel(tc.level)
		if err != nil {
			t.Fatalf("level %d: %v", tc.level, err)
		}
		for _, base := range tc.bases {
			for _, seed := range tc.seeds {
				for _, kind := range []string{"det", "rand"} {
					tc, lvl, base, seed, kind := tc, lvl, base, seed, kind
					name := fmt.Sprintf("L%d/base%d/seed%d/%s", tc.level, base, seed, kind)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						towerCell(t, lvl, tc.level, base, seed, tc.balanced, kind)
					})
				}
			}
		}
	}
}

func towerCell(t *testing.T, lvl *Level, level, base int, seed int64, balanced bool, kind string) {
	t.Helper()
	inst, err := BuildInstance(level, InstanceOptions{
		BaseNodes: base, Seed: seed, Balanced: balanced, GadgetHeight: 2,
	})
	if err != nil {
		t.Fatalf("build instance: %v", err)
	}
	oracle := lvl.Det
	if kind == "rand" {
		oracle = lvl.Rand
	}
	want, _, err := oracle.Solve(inst.G, inst.In, seed)
	if err != nil {
		t.Fatalf("oracle solve: %v", err)
	}
	if err := lvl.Verify(inst.G, inst.In, want); err != nil {
		t.Fatalf("oracle output invalid: %v", err)
	}

	var ref *Detail
	for _, opts := range towerGeometryGrid {
		det, rnd, err := lvl.EngineSolvers(engine.New(opts))
		if err != nil {
			t.Fatalf("engine solvers: %v", err)
		}
		es := det
		if kind == "rand" {
			es = rnd
		}
		d, err := es.SolveDetailed(inst.G, inst.In, seed)
		if err != nil {
			t.Fatalf("workers=%d shards=%d: engine solve: %v", opts.Workers, opts.Shards, err)
		}
		if !lcl.Equal(want, d.Out) {
			t.Fatalf("workers=%d shards=%d: engine labeling differs from the sequential oracle",
				opts.Workers, opts.Shards)
		}
		if d.Engine == nil {
			t.Fatalf("workers=%d shards=%d: no engine stats recorded", opts.Workers, opts.Shards)
		}
		// The flattened tower runs one engine layer per padding level: a
		// chain of level−1 nested profiles.
		for nest, cur := level-1, d.Engine; nest >= 1; nest, cur = nest-1, cur.Inner {
			if cur == nil {
				t.Fatalf("workers=%d shards=%d: broken nested profile chain at depth %d",
					opts.Workers, opts.Shards, nest)
			}
			if cur.Relay.Rounds <= 0 {
				t.Fatalf("workers=%d shards=%d: depth-%d layer ran no relay rounds",
					opts.Workers, opts.Shards, nest)
			}
			if nest == 1 && cur.Inner != nil {
				t.Fatalf("workers=%d shards=%d: leaf layer has a nested profile",
					opts.Workers, opts.Shards)
			}
		}
		if got, bound := d.Engine.Rounds(), d.Cost.Rounds(); got > bound {
			t.Fatalf("workers=%d shards=%d: measured engine rounds %d exceed the charged Cost bound %d",
				opts.Workers, opts.Shards, got, bound)
		}
		if ref == nil {
			ref = d
			continue
		}
		// The full measured profile — charged cost, rounds, deliveries,
		// bandwidth, nesting — is a function of the instance alone, never
		// of the pool geometry.
		if d.Cost.Rounds() != ref.Cost.Rounds() {
			t.Fatalf("workers=%d shards=%d: charged cost %d differs from reference %d",
				opts.Workers, opts.Shards, d.Cost.Rounds(), ref.Cost.Rounds())
		}
		if d.Engine.Rounds() != ref.Engine.Rounds() ||
			d.Engine.Deliveries() != ref.Engine.Deliveries() ||
			d.Engine.TotalRelayWords() != ref.Engine.TotalRelayWords() {
			t.Fatalf("workers=%d shards=%d: measured profile (%d rounds, %d deliveries, %d words) differs from reference (%d, %d, %d)",
				opts.Workers, opts.Shards,
				d.Engine.Rounds(), d.Engine.Deliveries(), d.Engine.TotalRelayWords(),
				ref.Engine.Rounds(), ref.Engine.Deliveries(), ref.Engine.TotalRelayWords())
		}
	}
}
