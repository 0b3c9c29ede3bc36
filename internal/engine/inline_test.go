package engine

// In-package tests for the derived inline mode: a session runs every
// phase on the calling goroutine exactly when its effective worker count,
// after clamping, is 1. Observable through the unexported inline/started
// flags and through the goroutine count the machines see mid-round.

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
		{"hinted-workers1", cycle, Options{Workers: 1, Hint: &SizeHint{Rounds: 4}}, true},
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
			s, err := NewCore[int64](tc.opts).NewSession(tc.g, typed)
			if err != nil {
				t.Fatal(err)
			}
			if s.inline != tc.inline {
				t.Fatalf("inline = %v, want %v (workers %d, shards %d)", s.inline, tc.inline, s.workers, s.shards)
			}
			st, err := s.Run(1, false, 10)
			if err != nil {
				t.Fatal(err)
			}
			started := s.started
			s.Close()
			if tc.inline {
				if started || st.Workers != 1 {
					t.Fatalf("inline session started a pool (started %v, workers %d)", started, st.Workers)
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
