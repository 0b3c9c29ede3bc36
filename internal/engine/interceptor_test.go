package engine_test

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// identityItc passes every message through: installing it must not
// change any output or stat relative to the nil fast path.
type identityItc struct{}

func (identityItc) BeginRound(int)                 {}
func (identityItc) Deliver(_ int32, m int64) int64 { return m }

// xorItc rewrites every delivery — the smallest possible message fault.
type xorItc struct{ mask int64 }

func (x *xorItc) BeginRound(int)                 {}
func (x *xorItc) Deliver(_ int32, m int64) int64 { return m ^ x.mask }

// hashDropItc drops a hash-chosen quarter of all deliveries, purely in
// (round, slot) — the determinism shape real fault plans must have.
type hashDropItc struct{ round int }

func (h *hashDropItc) BeginRound(r int) { h.round = r }

func (h *hashDropItc) Deliver(p int32, m int64) int64 {
	x := uint64(h.round)*0x9e3779b97f4a7c15 + uint64(uint32(p)) + 1
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	if x&3 == 0 {
		return 0
	}
	return m
}

func digestsWith(t *testing.T, g *graph.Graph, opts engine.Options, itc engine.Interceptor[int64]) ([]uint64, engine.Stats) {
	t.Helper()
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 20
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(opts, g, typed)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetInterceptor(itc)
	stats, err := sess.Run(42, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, g.NumNodes())
	for v := range out {
		out[v] = machines[v].digest
	}
	return out, stats
}

// TestInterceptorIdentityMatchesNil: an identity interceptor is
// observationally equal to the nil fast path — same digests, same
// stats — while a rewriting interceptor visibly changes the execution.
func TestInterceptorIdentityMatchesNil(t *testing.T) {
	for name, g := range testGraphs(t) {
		opts := engine.Options{Workers: 3, Shards: 7}
		wantDigests, wantStats := digestsWith(t, g, opts, nil)
		gotDigests, gotStats := digestsWith(t, g, opts, identityItc{})
		if gotStats != wantStats {
			t.Errorf("%s: identity interceptor stats %+v, want %+v", name, gotStats, wantStats)
		}
		for v := range wantDigests {
			if gotDigests[v] != wantDigests[v] {
				t.Fatalf("%s: identity interceptor changed node %d digest", name, v)
			}
		}
		xored, _ := digestsWith(t, g, opts, &xorItc{mask: 0x5555})
		changed := false
		for v := range wantDigests {
			if xored[v] != wantDigests[v] {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("%s: xor interceptor left every digest unchanged", name)
		}
	}
}

// TestInterceptorGeometryInvariance: a faulty execution is as
// deterministic as a clean one — digests and stats are byte-identical
// across every worker/shard geometry as long as the interceptor decides
// purely in (round, slot).
func TestInterceptorGeometryInvariance(t *testing.T) {
	configs := []engine.Options{
		{Workers: 1}, // inline, four shards
		{Workers: 1, Shards: 1},
		{Workers: 2, Shards: 2},
		{Workers: 3, Shards: 7},
		{Workers: 8, Shards: 32},
	}
	for name, g := range testGraphs(t) {
		wantDigests, wantStats := digestsWith(t, g, configs[0], &hashDropItc{})
		for _, opts := range configs[1:] {
			gotDigests, gotStats := digestsWith(t, g, opts, &hashDropItc{})
			if gotStats.Rounds != wantStats.Rounds || gotStats.Deliveries != wantStats.Deliveries {
				t.Errorf("%s %+v: stats (%d, %d), want (%d, %d)", name, opts,
					gotStats.Rounds, gotStats.Deliveries, wantStats.Rounds, wantStats.Deliveries)
			}
			for v := range wantDigests {
				if gotDigests[v] != wantDigests[v] {
					t.Fatalf("%s %+v: node %d digest diverged under faults", name, opts, v)
				}
			}
		}
	}
}
