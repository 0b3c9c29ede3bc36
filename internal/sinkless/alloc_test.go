package sinkless

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// pinnedSM delegates to the production smTyped machine but never
// reports done: Step skips the delivery phase once every machine
// terminates, so holding termination off keeps compute AND delivery
// inside the measured window. Round-loop allocation behavior is
// unchanged — the production Round (status exchange, repair
// bookkeeping, RNG draws) runs verbatim.
type pinnedSM struct{ smTyped }

func (m *pinnedSM) Round(recv, send []smMsg) bool {
	m.smTyped.Round(recv, send)
	return false
}

// newTypedSession builds a typed sinkless-protocol session on a random
// 3-regular graph, reset (randomized) and stepped into steady state
// (claims resolved, repair traffic flowing, every Step still
// delivering).
func newTypedSession(tb testing.TB, n int, opts engine.Options) *engine.Session[smMsg] {
	tb.Helper()
	g, err := graph.NewRandomRegular(n, 3, 5, false)
	if err != nil {
		tb.Fatal(err)
	}
	machines := make([]pinnedSM, g.NumNodes())
	typed := make([]engine.TypedMachine[smMsg], g.NumNodes())
	for v := range typed {
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(opts, g, typed)
	if err != nil {
		tb.Fatal(err)
	}
	sess.Reset(1, true)
	for i := 0; i < 8; i++ {
		sess.Step()
	}
	return sess
}

// TestSinklessTypedSteadyStateAllocs pins the sinkless half of the
// zero-allocation claim: one steady-state round of the typed
// message-passing protocol — engine compute + delivery AND the machine's
// Round, including its repair-phase bookkeeping — allocates nothing, in
// both execution modes. TestSinklessRandomizedRunAllocs extends the pin
// to whole randomized executions, Init and per-node seeding included.
func TestSinklessTypedSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Workers: 1}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newTypedSession(t, 512, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state sinkless round allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestSinklessRandomizedRunAllocs pins a whole randomized execution of
// a held session at 0 allocs/op: Run's Reset(seed, true) reseeds the
// session's per-node lazy sources and re-Inits every machine in place,
// and the rounds drive the protocol to termination, in both execution
// modes. The graph has self-loops, so loop-port pairing is covered.
// Each iteration uses a fresh seed, so the streams really change.
func TestSinklessRandomizedRunAllocs(t *testing.T) {
	g, err := graph.NewRandomRegular(512, 3, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if g.IsSelfLoop(e) {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("instance has no self-loop; loop-port pairing would go unmeasured")
	}
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Workers: 1}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			machines := make([]smTyped, g.NumNodes())
			typed := make([]engine.TypedMachine[smMsg], g.NumNodes())
			for v := range typed {
				typed[v] = &machines[v]
			}
			sess, err := engine.NewSession(mode.opts, g, typed)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			seed := int64(0)
			run := func() {
				seed++
				if _, err := sess.Run(seed, true, MessageMaxRounds); err != nil {
					t.Fatal(err)
				}
			}
			run() // first run allocates the session's RNG slab and machine state
			if allocs := testing.AllocsPerRun(16, run); allocs != 0 {
				t.Fatalf("randomized Reset+Run allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkSinklessTypedSteadyState2048 measures one typed protocol
// round end-to-end (engine + machine) at n=2048; it must report
// 0 allocs/op.
func BenchmarkSinklessTypedSteadyState2048(b *testing.B) {
	sess := newTypedSession(b, 2048, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}
