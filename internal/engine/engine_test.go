package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// gossipMachine runs a fixed number of rounds, each round folding the
// received values into a running digest and sending a value derived from
// it on every port. Its final digest depends on every message of every
// round, so any delivery or ordering bug in the runtime changes it.
type gossipMachine struct {
	id     int64
	degree int
	digest uint64
	rounds int
	target int
}

func (m *gossipMachine) Init(info engine.NodeInfo) {
	m.id = info.ID
	m.degree = info.Degree
	m.digest = uint64(info.ID) * 0x9e3779b97f4a7c15
	m.rounds = 0
}

func (m *gossipMachine) Round(recv, send []int64) bool {
	if m.rounds > 0 {
		for p, r := range recv {
			m.digest = m.digest*31 + uint64(r) + uint64(p)
		}
	}
	m.rounds++
	for p := range send {
		send[p] = int64(m.digest>>1) + int64(p)
	}
	return m.rounds >= m.target
}

// rngMachine exercises the randomized initialization path: every round it
// sends values drawn from the node's private RNG and digests what it
// receives.
type rngMachine struct {
	gossipMachine
	info engine.NodeInfo
}

func (m *rngMachine) Init(info engine.NodeInfo) {
	m.gossipMachine.Init(info)
	m.info = info
}

func (m *rngMachine) Round(recv, send []int64) bool {
	for _, r := range recv {
		m.digest = m.digest*33 + uint64(r)
	}
	m.rounds++
	for p := range send {
		send[p] = m.info.RNG.Int63()
	}
	return m.rounds >= m.target
}

func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	cyc, err := graph.NewCycle(97, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["cycle97"] = cyc
	reg, err := graph.NewRandomRegular(200, 3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	out["regular200"] = reg
	// Loops and parallel edges are part of the model; route through them.
	b := graph.NewBuilder(4, 6)
	for i := int64(1); i <= 4; i++ {
		b.Node(i * 10)
	}
	b.Link(0, 0) // self-loop
	b.Link(0, 1)
	b.Link(1, 2)
	b.Link(1, 2) // parallel edge
	b.Link(2, 3)
	out["multigraph"] = mustBuild(b)
	return out
}

// runFunc is the shape shared by RunReference and RunStats under fixed
// Options.
type runFunc func(*graph.Graph, []engine.TypedMachine[int64], int64, bool, int) (engine.Stats, error)

func coreRun(opts engine.Options) runFunc {
	return func(g *graph.Graph, ms []engine.TypedMachine[int64], seed int64, randomized bool, maxRounds int) (engine.Stats, error) {
		return engine.RunStats(opts, g, ms, seed, randomized, maxRounds)
	}
}

// digests runs fresh machines of the given flavor through run and returns
// the per-node digests plus the execution profile.
func digests(t testing.TB, g *graph.Graph, flavor string, run runFunc) ([]uint64, engine.Stats) {
	t.Helper()
	n := g.NumNodes()
	machines := make([]engine.TypedMachine[int64], n)
	gossips := make([]*gossipMachine, n)
	for v := range machines {
		switch flavor {
		case "gossip":
			m := &gossipMachine{target: 20}
			machines[v], gossips[v] = m, m
		case "rng":
			m := &rngMachine{gossipMachine: gossipMachine{target: 20}}
			machines[v], gossips[v] = m, &m.gossipMachine
		default:
			t.Fatalf("unknown flavor %q", flavor)
		}
	}
	stats, err := run(g, machines, 42, flavor == "rng", 100)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, n)
	for v := range out {
		out[v] = gossips[v].digest
	}
	return out, stats
}

// TestShardedMatchesSequential differential-tests the typed core against
// the RunReference oracle over graph shapes, machine flavors, and a grid
// of worker/shard configurations covering both the pooled and the inline
// (one effective worker) modes. Digests, rounds, and deliveries must be
// identical.
func TestShardedMatchesSequential(t *testing.T) {
	configs := []engine.Options{
		{Workers: 1, Shards: 1},
		{Workers: 1, Shards: 5}, // inline across several shards
		{Workers: 4, Shards: 1}, // clamped to one worker: inline
		{Workers: 2, Shards: 2},
		{Workers: 3, Shards: 7},
		{Workers: 8, Shards: 32},
		{Workers: 16, Shards: 1000}, // more shards than nodes
		{},                          // defaults
	}
	for name, g := range testGraphs(t) {
		for _, flavor := range []string{"gossip", "rng"} {
			want, wantStats := digests(t, g, flavor, engine.RunReference[int64])
			for _, opts := range configs {
				got, stats := digests(t, g, flavor, coreRun(opts))
				if stats.Rounds != wantStats.Rounds || stats.Deliveries != wantStats.Deliveries {
					t.Errorf("%s/%s %+v: stats rounds=%d deliveries=%d, want rounds=%d deliveries=%d",
						name, flavor, opts, stats.Rounds, stats.Deliveries, wantStats.Rounds, wantStats.Deliveries)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s/%s %+v: node %d digest %x, want %x", name, flavor, opts, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestRunStatsMatchesSequential: the reference counts one delivery per
// port per delivery phase. The sessions' effective geometry after
// clamping is pinned in-package (TestSessionGeometryClamp).
func TestRunStatsMatchesSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		_, ref := digests(t, g, "gossip", engine.RunReference[int64])
		if want := int64(ref.Rounds-1) * int64(g.NumPorts()); ref.Deliveries != want {
			t.Errorf("%s: reference deliveries = %d, want (rounds-1)·ports = %d", name, ref.Deliveries, want)
		}
	}
}

// neverDone keeps every machine running, sending zeros.
type neverDone struct{}

func (neverDone) Init(engine.NodeInfo) {}
func (neverDone) Round(_, send []int64) bool {
	clear(send)
	return false
}

func TestRoundLimit(t *testing.T) {
	g, err := graph.NewCycle(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range machines {
		machines[v] = neverDone{}
	}
	for name, run := range map[string]runFunc{
		"reference": engine.RunReference[int64],
		"inline":    coreRun(engine.Options{Workers: 1}), // pooled: TestTypedCoreRoundLimit
	} {
		st, err := run(g, machines, 0, false, 9)
		if !errors.Is(err, engine.ErrRoundLimit) {
			t.Fatalf("%s: err = %v, want ErrRoundLimit", name, err)
		}
		if st.Rounds != 9 {
			t.Fatalf("%s: rounds = %d, want 9", name, st.Rounds)
		}
	}
}

func TestMachineCountMismatch(t *testing.T) {
	g, err := graph.NewCycle(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunReference(g, make([]engine.TypedMachine[int64], 3), 0, false, 10); err == nil {
		t.Fatal("expected machine/node count mismatch error")
	}
}

func TestNilEngineOptions(t *testing.T) {
	var nilEng *engine.Engine
	if got := nilEng.Options(); got != (engine.Options{}) {
		t.Fatalf("nil engine options = %+v, want Options{}", got)
	}
	if got := (&engine.Engine{}).Options(); got != (engine.Options{}) {
		t.Fatalf("zero engine options = %+v, want Options{}", got)
	}
	want := engine.Options{Workers: 3, Shards: 9}
	if got := engine.New(want).Options(); got != want {
		t.Fatalf("engine options = %+v, want %+v", got, want)
	}
}

func ExampleRunStats() {
	g, _ := graph.NewCycle(8, 1)
	machines := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range machines {
		machines[v] = &gossipMachine{target: 3}
	}
	st, _ := engine.RunStats(engine.Options{Workers: 2, Shards: 4}, g, machines, 0, false, 10)
	fmt.Println(st.Rounds)
	// Output: 3
}

// mustBuild finalizes a known-good test builder, panicking on the error
// that the sticky-error API would otherwise surface to callers.
func mustBuild(b *graph.Builder) *graph.Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
