package engine

// In-package tests for Options.Hint: the pre-sizing contract is about
// *when* the warm-up allocations happen (NewSession vs first dispatch),
// which is only observable through the unexported started flag and the
// allocation profile of the very first Step.

import (
	"runtime"
	"testing"

	"locallab/internal/graph"
)

// hintProbe is a trivially allocation-free machine that never finishes,
// so every Step exercises the full compute+deliver pipeline.
type hintProbe struct{ acc int64 }

func (m *hintProbe) Init(info NodeInfo) { m.acc = info.ID }
func (m *hintProbe) Round(recv, send []int64) bool {
	for _, v := range recv {
		m.acc += v
	}
	for i := range send {
		send[i] = m.acc
	}
	return false
}

func hintSession(t *testing.T, opts Options) *Session[int64] {
	t.Helper()
	g, err := graph.NewCycle(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]hintProbe, g.NumNodes())
	typed := make([]TypedMachine[int64], g.NumNodes())
	for v := range typed {
		typed[v] = &machines[v]
	}
	s, err := NewCore[int64](opts).NewSession(g, typed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestHintStartsPoolEagerly: a hinted pooled session owns its worker
// pool before the first dispatch; an unhinted one starts it lazily; an
// inline (one effective worker) session never starts one, hint or not.
func TestHintStartsPoolEagerly(t *testing.T) {
	hint := &SizeHint{Rounds: 9, Deliveries: 1152}

	hinted := hintSession(t, Options{Workers: 2, Shards: 8, Hint: hint})
	if !hinted.started {
		t.Fatal("hinted pooled session did not pre-start its worker pool")
	}

	lazy := hintSession(t, Options{Workers: 2, Shards: 8})
	if lazy.started {
		t.Fatal("unhinted session started its pool before any dispatch")
	}
	lazy.Reset(1, false)
	if !lazy.started {
		t.Fatal("first dispatch did not start the lazy pool")
	}

	inline := hintSession(t, Options{Workers: 1, Hint: hint})
	if inline.started {
		t.Fatal("inline session started a pool")
	}
}

// sessionMallocs counts the heap allocations a session performs across
// its first Reset and the first few rounds — the warm-up window the
// hint is supposed to empty. ReadMemStats stops the world, and the only
// other live goroutines (the session's own workers) block without
// allocating, so the delta is attributable to the measured calls.
func sessionMallocs(s *Session[int64]) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Reset(1, false)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestHintRemovesWarmupAllocations: with a hint the pool warm-up (job
// channel, worker goroutines) already happened in NewSession, so the
// first execution — Reset plus the opening rounds, the window the
// steady-state AllocsPerRun pins cannot see — allocates nothing at all.
// An unhinted session pays that warm-up inside the same window.
func TestHintRemovesWarmupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	hinted := hintSession(t, Options{Workers: 2, Shards: 8, Hint: &SizeHint{Rounds: 9, Deliveries: 1152}})
	if got := sessionMallocs(hinted); got != 0 {
		t.Fatalf("hinted session allocated %d times during first Reset+Steps, want 0", got)
	}
	lazy := hintSession(t, Options{Workers: 2, Shards: 8})
	if got := sessionMallocs(lazy); got == 0 {
		t.Fatal("unhinted session shows no warm-up allocations; the hint has nothing to move and this test is vacuous")
	}
}

// TestHintIdenticalOutputs: a hint moves allocations, never bytes — the
// same workload under hinted, unhinted, and inline execution yields
// identical rounds and deliveries.
func TestHintIdenticalOutputs(t *testing.T) {
	run := func(opts Options) (int, int64) {
		s := hintSession(t, opts)
		s.Reset(7, false)
		for i := 0; i < 5; i++ {
			s.Step()
		}
		return s.Rounds(), s.Deliveries()
	}
	wantRounds, wantDeliveries := run(Options{Workers: 1})
	for name, opts := range map[string]Options{
		"pooled":      {Workers: 2, Shards: 8},
		"pooled+hint": {Workers: 2, Shards: 8, Hint: &SizeHint{Rounds: 5, Deliveries: 640}},
		"widehint":    {Workers: 4, Shards: 16, Hint: &SizeHint{Rounds: 1 << 20, Deliveries: 1 << 40}},
		"inline+hint": {Workers: 1, Hint: &SizeHint{Rounds: 5, Deliveries: 640}},
	} {
		rounds, deliveries := run(opts)
		if rounds != wantRounds || deliveries != wantDeliveries {
			t.Fatalf("%s: rounds/deliveries %d/%d differ from inline %d/%d",
				name, rounds, deliveries, wantRounds, wantDeliveries)
		}
	}
}
