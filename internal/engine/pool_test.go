package engine

// In-package test for the pool warm-up: a pooled session starts and
// warms its worker pool in NewSession, which is only observable through
// the allocation profile of the very first Reset and Steps.

import (
	"runtime"
	"testing"

	"locallab/internal/graph"
)

// warmProbe is a trivially allocation-free machine that never finishes,
// so every Step exercises the full compute+deliver pipeline.
type warmProbe struct{ acc int64 }

func (m *warmProbe) Init(info NodeInfo) { m.acc = info.ID }
func (m *warmProbe) Round(recv, send []int64) bool {
	for _, v := range recv {
		m.acc += v
	}
	for i := range send {
		send[i] = m.acc
	}
	return false
}

// TestPoolWarmsAtNewSession: the pool warm-up (job channel, worker
// goroutines, the runtime's park state) happens in NewSession, so the
// first execution — Reset plus the opening rounds, the window the
// steady-state AllocsPerRun pins cannot see — allocates nothing at all.
// ReadMemStats stops the world, and the only other live goroutines (the
// session's own workers) block without allocating, so the delta is
// attributable to the measured calls. One P keeps the workers off Ps
// whose allocation caches are still empty.
func TestPoolWarmsAtNewSession(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := graph.NewCycle(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]warmProbe, g.NumNodes())
	typed := make([]TypedMachine[int64], g.NumNodes())
	for v := range typed {
		typed[v] = &machines[v]
	}
	s, err := NewSession(Options{Workers: 2, Shards: 8}, g, typed)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Reset(1, false)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("pooled session allocated %d times during first Reset+Steps, want 0", got)
	}
}
