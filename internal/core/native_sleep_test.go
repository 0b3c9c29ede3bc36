package core

import (
	"reflect"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/sinkless"
)

// countedNat is the production natMachine with a Round counter. Asleep
// is promoted, so a session of them runs the engine's sparse schedule.
type countedNat struct {
	*natMachine
	calls int
}

func (m *countedNat) Round(recv, send []relayMsg) bool {
	m.calls++
	return m.natMachine.Round(recv, send)
}

// denseNat hides Asleep, so a session of them runs the dense loop.
type denseNat struct{ m *natMachine }

func (d denseNat) Init(info engine.NodeInfo)        { d.m.Init(info) }
func (d denseNat) Round(recv, send []relayMsg) bool { return d.m.Round(recv, send) }

// heldNativeRelay prepares a pi2-rand-native cell (balanced Π₂ instance
// on base nodes, message-solver inner) under opts, runs it once under
// seed, and returns the prepared solve and its native relay.
func heldNativeRelay(tb testing.TB, base int, seed int64, opts engine.Options) (*PreparedPadded, *nativeRelay) {
	tb.Helper()
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: base, Seed: seed, Balanced: true})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewEnginePaddedSolver(sinkless.NewMessageSolver(), LevelDelta(2), engine.New(opts)).Prepare(inst.G, inst.In)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Run(seed); err != nil {
		tb.Fatal(err)
	}
	r, ok := p.relay.(*nativeRelay)
	if !ok {
		tb.Fatalf("base %d cell has no native relay", base)
	}
	return p, r
}

// nativeSession builds an engine session over typed (wrappers of r's
// machines) and points the relay plane's round clock at it.
func nativeSession(tb testing.TB, p *PreparedPadded, r *nativeRelay, typed []engine.TypedMachine[relayMsg], opts engine.Options) *engine.Session[relayMsg] {
	tb.Helper()
	sess, err := engine.NewSession(opts, p.g, typed)
	if err != nil {
		tb.Fatal(err)
	}
	r.machines[0].plane.sess = sess
	return sess
}

// runRelayOver runs r with its session swapped for one over typed.
func runRelayOver(tb testing.TB, p *PreparedPadded, r *nativeRelay, typed []engine.TypedMachine[relayMsg], opts engine.Options, seed int64) *RelayRun {
	tb.Helper()
	orig := r.sess
	r.sess = nativeSession(tb, p, r, typed, opts)
	defer func() {
		r.sess.Close()
		r.sess = orig
		r.machines[0].plane.sess = orig
	}()
	run, err := r.run(seed)
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// countedNats wraps r's machines in countedNat.
func countedNats(r *nativeRelay) ([]countedNat, []engine.TypedMachine[relayMsg]) {
	counted := make([]countedNat, len(r.machines))
	typed := make([]engine.TypedMachine[relayMsg], len(r.machines))
	for v := range r.machines {
		counted[v] = countedNat{natMachine: &r.machines[v]}
		typed[v] = &counted[v]
	}
	return counted, typed
}

func totalCalls(counted []countedNat) int {
	calls := 0
	for v := range counted {
		calls += counted[v].calls
		counted[v].calls = 0
	}
	return calls
}

// TestNativeRelaySleeps pins what sleeping saves on a held
// pi2-rand-native base-48 relay session, the perfbench pi2-native cell
// shape: the sparse schedule calls the machines at most a fifth as often
// as the dense loop, and the run (labeling, per-node rounds, Stats,
// relay words) equals the dense loop's, inline and pooled.
func TestNativeRelaySleeps(t *testing.T) {
	const seed = 1
	inline := engine.Options{Workers: 1}
	p, r := heldNativeRelay(t, 48, seed, inline)
	defer p.Close()
	want, err := r.run(seed)
	if err != nil {
		t.Fatal(err)
	}

	counted, typed := countedNats(r)
	got := runRelayOver(t, p, r, typed, inline, seed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counted sparse run differs from the held relay's run")
	}
	calls, dense := totalCalls(counted), want.Stats.Rounds*p.g.NumNodes()
	t.Logf("%d rounds × %d nodes: %d Round calls, dense %d", want.Stats.Rounds, p.g.NumNodes(), calls, dense)
	if 5*calls > dense {
		t.Fatalf("sparse schedule made %d Round calls, more than a fifth of the dense %d", calls, dense)
	}

	hidden := make([]engine.TypedMachine[relayMsg], len(r.machines))
	for v := range r.machines {
		hidden[v] = denseNat{&r.machines[v]}
	}
	if got := runRelayOver(t, p, r, hidden, inline, seed); !reflect.DeepEqual(got, want) {
		t.Fatalf("dense run differs from the sparse one")
	}

	pooled := engine.Options{Workers: 3, Shards: 7}
	for _, ms := range [][]engine.TypedMachine[relayMsg]{typed, hidden} {
		got := runRelayOver(t, p, r, ms, pooled, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pooled %+v run differs from the inline one", pooled)
		}
	}
}

// TestNativeSessionRunAllocs pins a whole held native session Run —
// Reset, every round, machines really sleeping — to zero allocations in
// both execution modes.
func TestNativeSessionRunAllocs(t *testing.T) {
	const seed = 3
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Workers: 1}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p, r := heldNativeRelay(t, 24, seed, mode.opts)
			defer p.Close()
			counted, typed := countedNats(r)
			sess := nativeSession(t, p, r, typed, mode.opts)
			defer sess.Close()
			run := func() engine.Stats {
				st, err := sess.Run(seed, false, r.maxRounds)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			run()
			totalCalls(counted)
			st := run()
			if calls, dense := totalCalls(counted), st.Rounds*p.g.NumNodes(); calls >= dense {
				t.Fatalf("%d Round calls in %d rounds of %d nodes: no machine slept", calls, st.Rounds, p.g.NumNodes())
			}
			if allocs := testing.AllocsPerRun(16, func() { run() }); allocs != 0 {
				t.Fatalf("held native session Run allocates %v times, want 0", allocs)
			}
		})
	}
}
