package engine

// In-package tests for the session geometry and the derived inline mode:
// a session runs every phase on the calling goroutine exactly when its
// effective worker count, after clamping, is 1. Observable through the
// unexported geometry fields and job channel, and through the goroutine
// count the machines see mid-round.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"locallab/internal/graph"
)

// goroutineProbe records the largest goroutine count any Round call
// observes, so a pool started anywhere between NewSession and Close
// shows up while its workers are alive. Pooled shards run concurrently,
// so the peak is an atomic maximum.
type goroutineProbe struct {
	peak   *atomic.Int64
	rounds int
}

func (m *goroutineProbe) Init(NodeInfo) { m.rounds = 0 }
func (m *goroutineProbe) Round(_, send []int64) bool {
	n := int64(runtime.NumGoroutine())
	for old := m.peak.Load(); n > old; old = m.peak.Load() {
		if m.peak.CompareAndSwap(old, n) {
			break
		}
	}
	clear(send)
	m.rounds++
	return m.rounds >= 4
}

func TestInlineStartsNoGoroutines(t *testing.T) {
	cycle, err := graph.NewCycle(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1, 0)
	b.Node(7)
	single, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		opts   Options
		inline bool
	}{
		{"workers1", cycle, Options{Workers: 1}, true},
		{"workers1-shards8", cycle, Options{Workers: 1, Shards: 8}, true},
		{"workers4-shards1", cycle, Options{Workers: 4, Shards: 1}, true},
		{"one-node", single, Options{Workers: 4}, true},
		{"workers2", cycle, Options{Workers: 2, Shards: 4}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var peak atomic.Int64
			machines := make([]goroutineProbe, tc.g.NumNodes())
			typed := make([]TypedMachine[int64], len(machines))
			for v := range machines {
				machines[v].peak = &peak
				typed[v] = &machines[v]
			}
			before := int64(runtime.NumGoroutine())
			s, err := NewSession(tc.opts, tc.g, typed)
			if err != nil {
				t.Fatal(err)
			}
			if s.inline != tc.inline {
				t.Fatalf("inline = %v, want %v (workers %d, shards %d)", s.inline, tc.inline, s.workers, s.shards)
			}
			if _, err := s.Run(1, false, 10); err != nil {
				t.Fatal(err)
			}
			started := s.jobs != nil
			s.Close()
			if tc.inline {
				if started || s.workers != 1 {
					t.Fatalf("inline session started a pool (started %v, workers %d)", started, s.workers)
				}
				if peak.Load() > before {
					t.Fatalf("inline session ran with %d goroutines, %d before NewSession", peak.Load(), before)
				}
				return
			}
			if want := before + int64(tc.opts.Workers); !started || peak.Load() < want {
				t.Fatalf("pooled session: started %v, peak goroutines %d, want >= %d", started, peak.Load(), want)
			}
		})
	}
}

// TestSessionGeometryClamp: a session clamps its shards to the node
// count and its workers to the shard count, and defaults to four shards
// per worker.
func TestSessionGeometryClamp(t *testing.T) {
	g, err := graph.NewCycle(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	typed := make([]TypedMachine[int64], g.NumNodes())
	for v := range typed {
		typed[v] = &goroutineProbe{peak: new(atomic.Int64)}
	}
	for _, tc := range []struct {
		opts            Options
		workers, shards int
	}{
		{Options{Workers: 1, Shards: 1}, 1, 1},
		{Options{Workers: 4, Shards: 1}, 1, 1},
		{Options{Workers: 1, Shards: 3}, 1, 3},
		{Options{Workers: 3, Shards: 4}, 3, 4},
		{Options{Workers: 1}, 1, 4},
		{Options{Workers: 2}, 2, 5},
		{Options{Workers: 16, Shards: 1000}, 5, 5},
	} {
		s, err := NewSession(tc.opts, g, typed)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if s.workers != tc.workers || s.shards != tc.shards {
			t.Errorf("%+v: geometry %d/%d, want %d/%d", tc.opts, s.workers, s.shards, tc.workers, tc.shards)
		}
	}
}
