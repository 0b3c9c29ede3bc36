package engine_test

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// boxedGossip is gossipMachine on interface-valued messages, the shape
// of the boxed engine the typed core replaced: a nil entry is silence.
// Its digest recurrence matches gossipMachine exactly.
type boxedGossip struct {
	gossipMachine
}

func (m *boxedGossip) Round(recv []any) ([]any, bool) {
	if m.rounds > 0 {
		for p, r := range recv {
			m.digest = m.digest*31 + uint64(r.(int64)) + uint64(p)
		}
	}
	m.rounds++
	send := make([]any, m.degree)
	for p := range send {
		send[p] = int64(m.digest>>1) + int64(p)
	}
	return send, m.rounds >= m.target
}

// runBoxed is a sequential synchronous runtime over boxed messages,
// written independently of the engine package: every machine steps, the
// run stops once all report done, and each non-nil message moves to the
// opposite half-edge's port. Deliveries count the non-nil messages.
func runBoxed(t testing.TB, g *graph.Graph, machines []*boxedGossip, maxRounds int) engine.Stats {
	t.Helper()
	n := g.NumNodes()
	inbox := make([][]any, n)
	for v, m := range machines {
		deg := g.Degree(graph.NodeID(v))
		m.Init(engine.NodeInfo{N: n, Delta: g.MaxDegree(), ID: g.ID(graph.NodeID(v)), Degree: deg})
		inbox[v] = make([]any, deg)
	}
	var stats engine.Stats
	outbox := make([][]any, n)
	for round := 1; round <= maxRounds; round++ {
		allDone := true
		for v, m := range machines {
			send, done := m.Round(inbox[v])
			outbox[v] = send
			allDone = allDone && done
		}
		if allDone {
			stats.Rounds = round
			return stats
		}
		for v := range inbox {
			clear(inbox[v])
		}
		for v, send := range outbox {
			for p, msg := range send {
				if msg == nil {
					continue
				}
				opp := g.OppositeHalf(g.HalfAt(graph.NodeID(v), int32(p)))
				inbox[g.HalfNode(opp)][g.HalfPort(opp)] = msg
				stats.Deliveries++
			}
		}
	}
	t.Fatalf("boxed oracle hit the round limit %d", maxRounds)
	return stats
}

// TestTypedCoreMatchesBoxedOracle differential-tests the typed core —
// pooled across a worker/shard grid and in the inline mode — against a
// boxed sequential runtime running the equivalent boxed machine.
// Digests, rounds, and deliveries must be identical: with no silent
// ports the boxed non-nil delivery count equals the typed all-slots
// count.
func TestTypedCoreMatchesBoxedOracle(t *testing.T) {
	configs := []engine.Options{
		{Workers: 1, Shards: 1},
		{Workers: 1, Shards: 5},
		{Workers: 3, Shards: 7},
		{Workers: 8, Shards: 32},
		{Workers: 16, Shards: 1000}, // more shards than nodes
		{},                          // defaults
	}
	for name, g := range testGraphs(t) {
		machines := make([]*boxedGossip, g.NumNodes())
		for v := range machines {
			machines[v] = &boxedGossip{gossipMachine{target: 20}}
		}
		wantStats := runBoxed(t, g, machines, 100)
		for _, opts := range configs {
			got, stats := digests(t, g, "gossip", coreRun(opts))
			if stats.Rounds != wantStats.Rounds || stats.Deliveries != wantStats.Deliveries {
				t.Errorf("%s %+v: stats rounds=%d deliveries=%d, want rounds=%d deliveries=%d",
					name, opts, stats.Rounds, stats.Deliveries, wantStats.Rounds, wantStats.Deliveries)
			}
			for v, m := range machines {
				if got[v] != m.digest {
					t.Fatalf("%s %+v: node %d digest %x, want %x", name, opts, v, got[v], m.digest)
				}
			}
		}
	}
}

// TestSessionReuseAndStepping: a Session reused across Runs reproduces
// identical executions, and the explicit Reset/Step loop is equivalent
// to Run.
func TestSessionReuseAndStepping(t *testing.T) {
	g, err := graph.NewRandomRegular(120, 3, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 12
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(engine.Options{Workers: 3, Shards: 8}, g, typed)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	first, err := sess.Run(7, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	digest0 := machines[0].digest

	// Rerun on the same session: buffers are reused, results identical.
	again, err := sess.Run(7, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("session rerun stats %+v, want %+v", again, first)
	}
	if machines[0].digest != digest0 {
		t.Fatal("session rerun changed machine digest")
	}

	// Manual stepping reproduces Run exactly.
	sess.Reset(7, false)
	steps := 0
	for {
		steps++
		if sess.Step() {
			break
		}
		if steps > 100 {
			t.Fatal("stepping did not terminate")
		}
	}
	if steps != first.Rounds || sess.Rounds() != first.Rounds {
		t.Fatalf("stepped rounds = %d (session says %d), want %d", steps, sess.Rounds(), first.Rounds)
	}
	if sess.Deliveries() != first.Deliveries {
		t.Fatalf("stepped deliveries = %d, want %d", sess.Deliveries(), first.Deliveries)
	}
	if machines[0].digest != digest0 {
		t.Fatal("stepped execution changed machine digest")
	}
}

// TestTypedCoreMachineCountMismatch: the core validates the machine set
// like RunReference does (TestMachineCountMismatch).
func TestTypedCoreMachineCountMismatch(t *testing.T) {
	g, err := graph.NewCycle(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunStats(engine.Options{}, g, make([]engine.TypedMachine[int64], 3), 0, false, 10); err == nil {
		t.Fatal("expected machine/node count mismatch error")
	}
}

// TestTypedCoreRoundLimit: the typed core honors the round budget.
func TestTypedCoreRoundLimit(t *testing.T) {
	g, err := graph.NewCycle(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 1 << 30 // never done
		typed[v] = &machines[v]
	}
	st, err := engine.RunStats(engine.Options{Workers: 4}, g, typed, 0, false, 9)
	if err != engine.ErrRoundLimit {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if st.Rounds != 9 {
		t.Fatalf("rounds = %d, want 9", st.Rounds)
	}
}

// TestTypedCoreSteadyStateAllocs pins the zero-allocation property of
// the typed round loop itself — engine side only, with a trivially
// allocation-free machine — in both execution modes. The solver-level
// pins (engine + machine combined) live with the CV and sinkless
// machines.
func TestTypedCoreSteadyStateAllocs(t *testing.T) {
	g, err := graph.NewRandomRegular(256, 3, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Workers: 1}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			machines := make([]gossipMachine, g.NumNodes())
			typed := make([]engine.TypedMachine[int64], g.NumNodes())
			for v := range typed {
				machines[v].target = 1 << 30
				typed[v] = &machines[v]
			}
			sess, err := engine.NewSession(mode.opts, g, typed)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sess.Reset(1, false)
			for i := 0; i < 4; i++ {
				sess.Step() // reach steady state (pool spawned, caches warm)
			}
			if allocs := testing.AllocsPerRun(32, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state Step allocates %v times per round, want 0", allocs)
			}
		})
	}
}

// BenchmarkCoreTyped2048 runs full executions of the gossip workload
// (setup-free: one Session reused across Runs) on the default pool.
func BenchmarkCoreTyped2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 16
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(engine.Options{}, g, typed)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(int64(i), false, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreTypedSteadyState2048 measures the raw round loop —
// compute + deliver, no setup — and must report 0 allocs/op.
func BenchmarkCoreTypedSteadyState2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 1 << 30
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(engine.Options{}, g, typed)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sess.Reset(1, false)
	sess.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}
