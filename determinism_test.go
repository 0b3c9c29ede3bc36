package locallab_test

// Determinism integration tests: identical seeds must yield identical
// outputs through the entire stack — any hidden map-iteration
// nondeterminism in the solvers would break replayability of the
// experiment tables lcl-bench regenerates.

import (
	"testing"

	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/scenario"
	"locallab/internal/sinkless"
	"locallab/internal/solver"
)

func TestDeterministicSolverReplays(t *testing.T) {
	g, err := graph.NewRandomRegular(256, 3, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	first, cost1, err := sinkless.NewDetSolver().Solve(g, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, cost2, err := sinkless.NewDetSolver().Solve(g, in, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !lcl.Equal(first, again) {
			t.Fatal("deterministic solver output changed across runs")
		}
		if cost1.Rounds() != cost2.Rounds() {
			t.Fatal("deterministic solver cost changed across runs")
		}
	}
}

func TestRandomizedSolverSeedReplays(t *testing.T) {
	g, err := graph.NewRandomRegular(256, 3, 23, false)
	if err != nil {
		t.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	a, _, err := sinkless.NewRandSolver().Solve(g, in, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sinkless.NewRandSolver().Solve(g, in, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !lcl.Equal(a, b) {
		t.Fatal("same seed produced different randomized outputs")
	}
	c, _, err := sinkless.NewRandSolver().Solve(g, in, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lcl.Equal(a, c) {
		t.Fatal("different seeds produced identical outputs (suspicious)")
	}
}

// shardedConfigs is the engine grid the equivalence property tests sweep:
// from a single worker on a single shard up to heavy oversharding.
var shardedConfigs = []engine.Options{
	{Workers: 1, Shards: 1},
	{Workers: 2, Shards: 5},
	{Workers: 4, Shards: 16},
	{Workers: 8, Shards: 64},
	{}, // auto geometry (GOMAXPROCS workers)
}

// twinOracleTable pins LabelingChecksum and rounds for sinkless-msg on
// random 3-regular graphs and for Cole–Vishkin and MIS on cycles, as
// recorded from the single-threaded interface{}-message oracle and its
// hand-kept twin machines before those were removed. Every engine
// geometry must reproduce it. engine.RunReference is the live oracle:
// the reference tests of internal/coloring and internal/sinkless compare
// it with every geometry on the same cells.
var twinOracleTable = []struct {
	kind     string
	n        int
	seed     int64
	checksum uint64
	rounds   int
}{
	{"sinkless", 64, 1, 0x4dcc30518378f31b, 6},
	{"sinkless", 64, 2, 0x62c4211161b1506b, 6},
	{"sinkless", 64, 3, 0x16cc2b4b479bdc7b, 6},
	{"sinkless", 64, 4, 0xcb3a33565ec1eb77, 8},
	{"sinkless", 64, 5, 0x0d60bba458d58db7, 6},
	{"sinkless", 128, 1, 0x974b6e821a7fe4bb, 6},
	{"sinkless", 128, 2, 0x4dbc5ae168cc2647, 6},
	{"sinkless", 128, 3, 0x3e45918ae96d8f3b, 6},
	{"sinkless", 128, 4, 0x827df07b4ff4f1b3, 8},
	{"sinkless", 128, 5, 0xb94c31b578ec4aff, 8},
	{"sinkless", 256, 1, 0xb2773f7df0f12c93, 6},
	{"sinkless", 256, 2, 0x5cc61d908592828b, 10},
	{"sinkless", 256, 3, 0xe87c9d4d9000a0e7, 14},
	{"sinkless", 256, 4, 0x958a4d3e8b0544e3, 6},
	{"sinkless", 256, 5, 0xa83366966166dc37, 8},
	{"cv", 33, 1, 0xb301d91849b5848b, 9},
	{"cv", 33, 2, 0xe5a485c614006a2f, 9},
	{"cv", 33, 3, 0xe162635e5d18d738, 8},
	{"cv", 33, 4, 0x95ab49391eda2b5d, 8},
	{"cv", 33, 5, 0x6548397f14b1ab73, 9},
	{"cv", 100, 1, 0xc6a22584850e4de6, 8},
	{"cv", 100, 2, 0xac3838c1400d6eed, 9},
	{"cv", 100, 3, 0x29213c0aa38e5fa5, 8},
	{"cv", 100, 4, 0xfe6668dcb6c458a2, 9},
	{"cv", 100, 5, 0x652e30454f65331a, 10},
	{"cv", 257, 1, 0x55b316fbb2b8beb9, 9},
	{"cv", 257, 2, 0x18d841d1cfe9b648, 9},
	{"cv", 257, 3, 0x5cde9536a81e69dd, 9},
	{"cv", 257, 4, 0xa26d67d21cc7b97f, 9},
	{"cv", 257, 5, 0xb60eb1e22fdf4b95, 9},
	{"mis", 33, 1, 0xe6a0dcf896e08ad4, 11},
	{"mis", 33, 2, 0x83d5cdacd946f9ea, 11},
	{"mis", 33, 3, 0x75db218177238293, 10},
	{"mis", 33, 4, 0x9043688cb8c57f6a, 10},
	{"mis", 33, 5, 0x02ad17d117acbebc, 11},
	{"mis", 100, 1, 0xc88ec608fb35cd32, 10},
	{"mis", 100, 2, 0xb5386af95e977a77, 11},
	{"mis", 100, 3, 0x105f46c5c9e70435, 10},
	{"mis", 100, 4, 0x36adce849f7eb2be, 11},
	{"mis", 100, 5, 0x726595e610fcf436, 12},
	{"mis", 257, 1, 0x1fd4691accd687c6, 11},
	{"mis", 257, 2, 0xc937e226b4861ac5, 11},
	{"mis", 257, 3, 0x4f3ebf54f1c6431c, 11},
	{"mis", 257, 4, 0xa3df4fba681cd026, 11},
	{"mis", 257, 5, 0x9613c3d2b6a69724, 11},
}

// checkTwinOracleGrid solves every table cell of the given kind under
// every shardedConfigs geometry and requires the pinned checksum and
// rounds. build makes the cell's graph; solve runs the solver under test
// on it with the given engine.
func checkTwinOracleGrid(t *testing.T, kind string, p lcl.Problem,
	build func(n int, seed int64) (*graph.Graph, error),
	solve func(e *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error)) {
	t.Helper()
	cells := 0
	for _, c := range twinOracleTable {
		if c.kind != kind {
			continue
		}
		cells++
		g, err := build(c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		in := lcl.NewLabeling(g)
		for _, opts := range shardedConfigs {
			out, cost, err := solve(engine.New(opts), g, in, c.seed)
			if err != nil {
				t.Fatalf("%s n=%d seed=%d %+v: %v", kind, c.n, c.seed, opts, err)
			}
			if err := lcl.Verify(g, p, in, out); err != nil {
				t.Fatalf("%s n=%d seed=%d %+v: output invalid: %v", kind, c.n, c.seed, opts, err)
			}
			if sum := solver.LabelingChecksum(out); sum != c.checksum || cost.Rounds() != c.rounds {
				t.Fatalf("%s n=%d seed=%d %+v: checksum %#016x rounds %d, want %#016x rounds %d",
					kind, c.n, c.seed, opts, sum, cost.Rounds(), c.checksum, c.rounds)
			}
		}
	}
	if cells != 15 {
		t.Fatalf("%s: %d table cells, want 15", kind, cells)
	}
}

// TestShardedEngineMatchesSequentialSinkless is the property test of the
// engine: on random 3-regular graphs, the message-passing sinkless
// solver must reproduce the pinned oracle labelings and rounds for every
// master seed, graph size, and worker/shard configuration.
func TestShardedEngineMatchesSequentialSinkless(t *testing.T) {
	checkTwinOracleGrid(t, "sinkless", sinkless.Problem{},
		func(n int, seed int64) (*graph.Graph, error) {
			return graph.NewRandomRegular(n, 3, seed*31+int64(n), false)
		},
		func(e *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
			return (&sinkless.MessageSolver{MaxRounds: 4096, Engine: e}).Solve(g, in, seed)
		})
}

// TestShardedEngineMatchesSequentialColoring is the deterministic-solver
// counterpart: Cole–Vishkin 3-coloring on cycles through the same engine
// grid.
func TestShardedEngineMatchesSequentialColoring(t *testing.T) {
	checkTwinOracleGrid(t, "cv", coloring.Three{}, graph.NewCycle,
		func(e *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
			return (&coloring.CVSolver{MaxRounds: 1 << 20, Engine: e}).Solve(g, in, seed)
		})
}

// TestShardedEngineMatchesSequentialMIS closes the trio: the MIS
// solver's coloring stage runs the Cole–Vishkin machine on the engine,
// and its labelings must reproduce the pinned table across the same
// seed × size × geometry grid.
func TestShardedEngineMatchesSequentialMIS(t *testing.T) {
	checkTwinOracleGrid(t, "mis", coloring.MIS{}, graph.NewCycle,
		func(e *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *lcl.Cost, error) {
			return (&coloring.MISSolver{Engine: e}).Solve(g, in, seed)
		})
}

// TestScenarioReportReplays extends the determinism suite to the
// scenario subsystem: the full declarative pipeline — spec → family
// builders → solvers → report — must emit byte-identical canonical JSON
// across runs and grid worker counts.
func TestScenarioReportReplays(t *testing.T) {
	spec := &scenario.Spec{Name: "determinism", Scenarios: []scenario.Scenario{
		{Name: "msg", Family: "regular", Solver: "sinkless-msg",
			Sizes: []int{64, 128}, Seeds: []int64{3, 4},
			Engine: scenario.EngineParams{Workers: 2, Shards: 8}},
		{Name: "cv", Family: "cycle-advid", Solver: "cole-vishkin",
			Sizes: []int{65}, Seeds: []int64{1}},
	}}
	var first []byte
	for _, workers := range []int{1, 4, 1} {
		rep, err := scenario.Run(spec, scenario.RunOptions{GridWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
			continue
		}
		if string(data) != string(first) {
			t.Fatalf("workers=%d: scenario report bytes changed", workers)
		}
	}
}

// TestPaddedEngineScenarioReplays is the padded counterpart of the
// scenario determinism suite: the padded-engine builtin — the whole
// Lemma-4 pipeline as Ψ fixpoint machines plus dilated simulation
// sessions on the sharded engine — must emit byte-identical canonical
// JSON across 1/2/4 grid workers, and every cell must report the engine's
// message deliveries.
func TestPaddedEngineScenarioReplays(t *testing.T) {
	spec, ok := scenario.Builtin("padded-engine")
	if !ok {
		t.Fatal("padded-engine builtin missing")
	}
	var first []byte
	for _, workers := range []int{1, 2, 4} {
		rep, err := scenario.Run(spec, scenario.RunOptions{GridWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, sr := range rep.Scenarios {
			for _, c := range sr.Cells {
				if c.Messages <= 0 {
					t.Fatalf("workers=%d: padded cell %s n=%d seed=%d reports no engine deliveries",
						workers, sr.Name, c.N, c.Seed)
				}
			}
		}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
			continue
		}
		if string(data) != string(first) {
			t.Fatalf("workers=%d: padded-engine report bytes changed", workers)
		}
	}
}

// TestEnginePaddedSolverReplays pins the engine-backed hierarchy solver
// into the root determinism suite: byte-identical labelings to the
// sequential Lemma-4 oracle on the same instance and seed.
func TestEnginePaddedSolverReplays(t *testing.T) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 16, Seed: 5, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := core.NewLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := lvl.Det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	det, _, err := lvl.EngineSolvers(engine.New(engine.Options{Workers: 4, Shards: 16}))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !lcl.Equal(want, got) {
		t.Fatal("engine-backed padded labeling differs from the sequential oracle")
	}
}

func TestPaddedPipelineReplays(t *testing.T) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 16, Seed: 5, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := core.NewLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := lvl.Det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := lvl.Det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !lcl.Equal(a, b) {
		t.Fatal("padded pipeline output changed across runs")
	}
	// Instance construction itself replays.
	inst2, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 16, Seed: 5, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(inst.G, inst2.G) {
		t.Fatal("instance construction changed across runs")
	}
	if !lcl.Equal(inst.In, inst2.In) {
		t.Fatal("instance inputs changed across runs")
	}
}
