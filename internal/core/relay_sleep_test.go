package core

import (
	"reflect"
	"testing"

	"locallab/internal/adversary"
	"locallab/internal/engine"
)

// countedRelay is the production relayMachine with a Round counter.
// Quiet and Asleep are promoted, so a session of them runs the engine's
// sparse schedule.
type countedRelay struct {
	*relayMachine
	calls int
}

func (m *countedRelay) Round(recv, send []relayMsg) bool {
	m.calls++
	return m.relayMachine.Round(recv, send)
}

// denseRelay hides Quiet and Asleep, so a session of them runs the dense
// loop.
type denseRelay struct{ m *relayMachine }

func (d denseRelay) Init(info engine.NodeInfo)        { d.m.Init(info) }
func (d denseRelay) Round(recv, send []relayMsg) bool { return d.m.Round(recv, send) }

// heldGatherRelay prepares a padded cell of the given level (balanced
// instance on base nodes, deterministic engine tower) under opts, runs it
// once under seed, and returns the prepared solve and its gather relay.
func heldGatherRelay(tb testing.TB, level, base int, seed int64, opts engine.Options) (*PreparedPadded, *gatherRelay) {
	tb.Helper()
	inst, err := BuildInstance(level, InstanceOptions{BaseNodes: base, Seed: seed, Balanced: true})
	if err != nil {
		tb.Fatal(err)
	}
	lvl, err := NewLevel(level)
	if err != nil {
		tb.Fatal(err)
	}
	det, _, err := lvl.EngineSolvers(engine.New(opts))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := det.Prepare(inst.G, inst.In)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Run(seed); err != nil {
		tb.Fatal(err)
	}
	r, ok := p.relay.(*gatherRelay)
	if !ok {
		tb.Fatalf("level %d base %d cell has no gather relay", level, base)
	}
	return p, r
}

// gatherSession builds an engine session over typed (wrappers of r's
// machines) and points the machines' round clock at it.
func gatherSession(tb testing.TB, p *PreparedPadded, r *gatherRelay, typed []engine.TypedMachine[relayMsg], opts engine.Options) *engine.Session[relayMsg] {
	tb.Helper()
	sess, err := engine.NewSession(opts, p.g, typed)
	if err != nil {
		tb.Fatal(err)
	}
	r.machines[0].ctl.plane.sess = sess
	return sess
}

// runGatherOver runs r with its session swapped for one over typed.
func runGatherOver(tb testing.TB, p *PreparedPadded, r *gatherRelay, typed []engine.TypedMachine[relayMsg], opts engine.Options, seed int64) *RelayRun {
	tb.Helper()
	orig := r.sess
	r.sess = gatherSession(tb, p, r, typed, opts)
	defer func() {
		r.sess.Close()
		r.sess = orig
		r.machines[0].ctl.plane.sess = orig
	}()
	run, err := r.run(seed)
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// countedRelays wraps r's machines in countedRelay.
func countedRelays(r *gatherRelay) ([]countedRelay, []engine.TypedMachine[relayMsg]) {
	counted := make([]countedRelay, len(r.machines))
	typed := make([]engine.TypedMachine[relayMsg], len(r.machines))
	for v := range r.machines {
		counted[v] = countedRelay{relayMachine: &r.machines[v]}
		typed[v] = &counted[v]
	}
	return counted, typed
}

func relayCalls(counted []countedRelay) int {
	calls := 0
	for v := range counted {
		calls += counted[v].calls
		counted[v].calls = 0
	}
	return calls
}

// refloodWords is what a session of rounds rounds moves when every node
// re-sends its payload on every gadget port every round and across every
// port edge at every crossing boundary.
func refloodWords(r *gatherRelay, rounds int) int64 {
	var words int64
	for v := range r.machines {
		m := &r.machines[v]
		gad, virt := int64(m.nGad), int64(len(m.ports))-int64(m.nGad)
		crossings := int64((rounds-1)/int(m.crossEvery) + 1)
		words += int64(m.w) * (gad*int64(rounds) + virt*crossings)
	}
	return words
}

// TestGatherRelaySleeps pins what delta forwarding and sleeping save on
// a held pi3-det base-4 outer relay session, the perfbench tower-pi3
// cell shape: the sparse schedule calls the machines at most half as
// often as the dense loop, and the run (labeling, per-node rounds, Stats,
// relay words) equals the dense loop's, inline and pooled. A relay
// built under a fault plan installs its interceptor, which turns the
// full re-flood back on; under a drop plan that never fires, every
// payload passes unchanged: same run, with the words of every node
// sending every round.
func TestGatherRelaySleeps(t *testing.T) {
	const seed = 1
	inline := engine.Options{Workers: 1}
	p, r := heldGatherRelay(t, 3, 4, seed, inline)
	defer p.Close()
	want, err := r.run(seed)
	if err != nil {
		t.Fatal(err)
	}

	counted, typed := countedRelays(r)
	got := runGatherOver(t, p, r, typed, inline, seed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counted sparse run differs from the held relay's run")
	}
	calls, dense := relayCalls(counted), want.Stats.Rounds*p.g.NumNodes()
	t.Logf("%d rounds × %d nodes: %d Round calls, dense %d; %d words", want.Stats.Rounds, p.g.NumNodes(), calls, dense, want.Words)
	if 2*calls > dense {
		t.Fatalf("sparse schedule made %d Round calls, more than half of the dense %d", calls, dense)
	}

	hidden := make([]engine.TypedMachine[relayMsg], len(r.machines))
	for v := range r.machines {
		hidden[v] = denseRelay{&r.machines[v]}
	}
	if got := runGatherOver(t, p, r, hidden, inline, seed); !reflect.DeepEqual(got, want) {
		t.Fatalf("dense run differs from the sparse one")
	}

	pooled := engine.Options{Workers: 3, Shards: 7}
	for _, ms := range [][]engine.TypedMachine[relayMsg]{typed, hidden} {
		got := runGatherOver(t, p, r, ms, pooled, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pooled %+v run differs from the inline one", pooled)
		}
	}

	never := adversary.Fault{ID: "drop:p0", Kind: adversary.KindDrop}
	fault, err := never.CompileGraph(p.g, seed)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := newGatherRelay(engine.New(inline), p.g, p.plan, NewFactTable(p.plan.vg), p.s.Inner, fault)
	if err != nil {
		t.Fatal(err)
	}
	defer faulted.close()
	reflooded, err := faulted.run(seed)
	if err != nil {
		t.Fatal(err)
	}
	full := refloodWords(r, want.Stats.Rounds)
	if reflooded.Words != full || full <= want.Words {
		t.Fatalf("under an interceptor the relay moved %d words, want the full re-flood's %d (delta: %d)",
			reflooded.Words, full, want.Words)
	}
	reflooded.Words = want.Words
	if !reflect.DeepEqual(reflooded, want) {
		t.Fatalf("re-flooded run differs from the delta run")
	}
}

// TestGatherSessionRunAllocs pins a whole held gather session Run —
// Reset, every round, machines really sleeping — to zero allocations in
// both execution modes, on a pi2-det base-24 cell (a tower's hosts run
// nested solves, which allocate).
func TestGatherSessionRunAllocs(t *testing.T) {
	const seed = 3
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Workers: 1}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p, r := heldGatherRelay(t, 2, 24, seed, mode.opts)
			defer p.Close()
			counted, typed := countedRelays(r)
			sess := gatherSession(t, p, r, typed, mode.opts)
			defer sess.Close()
			run := func() engine.Stats {
				st, err := sess.Run(seed, false, r.maxRounds)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			run()
			relayCalls(counted)
			st := run()
			if calls, dense := relayCalls(counted), st.Rounds*p.g.NumNodes(); calls >= dense {
				t.Fatalf("%d Round calls in %d rounds of %d nodes: no machine slept", calls, st.Rounds, p.g.NumNodes())
			}
			if allocs := testing.AllocsPerRun(16, func() { run() }); allocs != 0 {
				t.Fatalf("held gather session Run allocates %v times, want 0", allocs)
			}
		})
	}
}
