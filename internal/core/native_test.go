package core

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// TestNativeMatchesOracleGrid is the acceptance property of the native
// relay plane: with the sinkless message solver as inner, the engine-
// backed solver selects the native port machines and its labeling is
// byte-identical to the sequential oracle (and to the gather fallback)
// across sizes, seeds, and every worker/shard geometry — while moving
// strictly fewer payload words than gather.
func TestNativeMatchesOracleGrid(t *testing.T) {
	geoms := []engine.Options{
		{Workers: 1, Shards: 1},
		{Workers: 2, Shards: 2},
		{Workers: 4, Shards: 2},
		{Workers: 2, Shards: 1},
		{Workers: 4, Shards: 1},
		{Workers: 1, Shards: 2},
	}
	for _, base := range []int{8, 12, 16} {
		for _, seed := range []int64{1, 2, 3} {
			inst, err := BuildInstance(2, InstanceOptions{BaseNodes: base, Seed: seed, Balanced: true})
			if err != nil {
				t.Fatal(err)
			}
			oracle := NewPaddedSolver(sinkless.NewMessageSolver(), 3)
			want, _, err := oracle.Solve(inst.G, inst.In, seed)
			if err != nil {
				t.Fatalf("base %d seed %d oracle: %v", base, seed, err)
			}
			gather := &EnginePaddedSolver{Delta: 3, Inner: sinkless.NewMessageSolver(), ForceGather: true}
			gd, err := gather.SolveDetailed(inst.G, inst.In, seed)
			if err != nil {
				t.Fatalf("base %d seed %d gather: %v", base, seed, err)
			}
			gout, gstats := gd.Out, gd.Engine
			if gstats.RelayNative {
				t.Fatalf("base %d seed %d: ForceGather ran native machines", base, seed)
			}
			if !lcl.Equal(want, gout) {
				t.Fatalf("base %d seed %d: gather output differs from oracle", base, seed)
			}
			var firstWords int64 = -1
			for _, opts := range geoms {
				s := &EnginePaddedSolver{Delta: 3, Inner: sinkless.NewMessageSolver(), Engine: engine.New(opts)}
				d, err := s.SolveDetailed(inst.G, inst.In, seed)
				if err != nil {
					t.Fatalf("base %d seed %d %+v: %v", base, seed, opts, err)
				}
				got, stats := d.Out, d.Engine
				if !stats.RelayNative {
					t.Fatalf("base %d seed %d %+v: native machines not selected", base, seed, opts)
				}
				if !lcl.Equal(want, got) {
					t.Fatalf("base %d seed %d %+v: native output differs from oracle", base, seed, opts)
				}
				if firstWords < 0 {
					firstWords = stats.RelayWords
				} else if stats.RelayWords != firstWords {
					t.Fatalf("base %d seed %d %+v: relay words %d, ref %d — bandwidth not geometry-deterministic",
						base, seed, opts, stats.RelayWords, firstWords)
				}
				if stats.RelayWords >= gstats.RelayWords {
					t.Fatalf("base %d seed %d %+v: native moved %d words, gather %d — no bandwidth win",
						base, seed, opts, stats.RelayWords, gstats.RelayWords)
				}
			}
		}
	}
}

// TestNativeBandwidthRatio pins the headline bandwidth claim on the
// benchmark cell: the native execution moves at least 4x fewer payload
// words over the relay than the gather execution of the same inner.
func TestNativeBandwidthRatio(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 12, Seed: 1, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	native := &EnginePaddedSolver{Delta: 3, Inner: sinkless.NewMessageSolver(),
		Engine: engine.New(engine.Options{Workers: 2, Shards: 8})}
	nd, err := native.SolveDetailed(inst.G, inst.In, 1)
	if err != nil {
		t.Fatal(err)
	}
	gather := &EnginePaddedSolver{Delta: 3, Inner: sinkless.NewMessageSolver(), ForceGather: true,
		Engine: engine.New(engine.Options{Workers: 2, Shards: 8})}
	gd, err := gather.SolveDetailed(inst.G, inst.In, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, gw := nd.Engine.RelayWords, gd.Engine.RelayWords
	if nw == 0 || gw < 4*nw {
		t.Fatalf("native relay moved %d words, gather %d — want >= 4x reduction", nw, gw)
	}
	t.Logf("relay words: native %d, gather %d (%.1fx)", nw, gw, float64(gw)/float64(nw))
}
