package core

import (
	"reflect"
	"runtime"
	"testing"

	"locallab/internal/adversary"
	"locallab/internal/engine"
	"locallab/internal/sinkless"
)

// pinnedRelay delegates to the production relayMachine (including the
// hosted gather machine at leader nodes and its Sleeper methods) but
// never reports done, keeping compute and delivery inside the measured
// window. The machines read the session's round through their shared
// relay plane, which newRelaySession points at the session.
type pinnedRelay struct{ relayMachine }

func (m *pinnedRelay) Round(recv, send []relayMsg) bool {
	m.relayMachine.Round(recv, send)
	return false
}

// newRelaySession builds a payload-relay session on a balanced Π₂
// instance, reset and stepped into steady state. A non-nil fault is
// compiled against the instance and its interceptor installed before the
// Reset, with the re-flood a faulted gather relay runs.
func newRelaySession(tb testing.TB, opts engine.Options, fault *adversary.Fault) *engine.Session[relayMsg] {
	tb.Helper()
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 24, Seed: 5, Balanced: true})
	if err != nil {
		tb.Fatal(err)
	}
	plan := buildPlan(tb, inst.G, inst.In)
	machines, _ := buildRelayMachines(inst.G, plan, NewFactTable(plan.vg), sinkless.NewDetSolver())
	pinned := make([]pinnedRelay, len(machines))
	typed := make([]engine.TypedMachine[relayMsg], len(machines))
	for v := range machines {
		pinned[v] = pinnedRelay{machines[v]}
		typed[v] = &pinned[v]
	}
	sess, err := engine.NewSession(opts, inst.G, typed)
	if err != nil {
		tb.Fatal(err)
	}
	ctl := machines[0].ctl
	ctl.plane.sess = sess
	if fault != nil {
		plan, err := fault.CompileGraph(inst.G, 5)
		if err != nil {
			tb.Fatal(err)
		}
		sess.SetInterceptor(ctl.plane.faultInterceptor(plan))
		ctl.reflood = true
	}
	sess.Reset(1, false)
	for i := 0; i < 4; i++ {
		sess.Step()
	}
	return sess
}

// TestRelayMachineSteadyStateAllocs pins the payload-relay round loop —
// knowledge merging, virtual-machine rounds at the leaders, and the
// double-buffered broadcast — to zero allocations in both execution
// modes, and also under a delivery fault whose rewritten words land in
// the plane's fault words (a 20% bit-flip corruption, firing in every
// round).
func TestRelayMachineSteadyStateAllocs(t *testing.T) {
	corrupt := &adversary.Fault{ID: "corrupt:p20", Kind: adversary.KindCorrupt, Prob: 0.2}
	for _, mode := range []struct {
		name  string
		opts  engine.Options
		fault *adversary.Fault
	}{
		{"inline", engine.Options{Workers: 1}, nil},
		{"pooled", engine.Options{Workers: 4, Shards: 16}, nil},
		{"faulted", engine.Options{Workers: 1}, corrupt},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newRelaySession(t, mode.opts, mode.fault)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state relay round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkRelayMachineSteadyState measures one payload-relay round
// end-to-end on a balanced Π₂ instance; it must report 0 allocs/op.
func BenchmarkRelayMachineSteadyState(b *testing.B) {
	sess := newRelaySession(b, engine.Options{}, nil)
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}

// pinnedNative delegates to the production natMachine (including the
// hosted protocol machine at gadget hosts) but never reports done, keeping
// slot merging, protocol rounds, and record forwarding inside the
// measured window.
type pinnedNative struct{ natMachine }

func (m *pinnedNative) Round(recv, send []relayMsg) bool {
	m.natMachine.Round(recv, send)
	return false
}

// newNativeSession builds a native-relay session on a balanced Π₂
// instance, reset and stepped into steady state.
func newNativeSession(tb testing.TB, opts engine.Options) *engine.Session[relayMsg] {
	tb.Helper()
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 24, Seed: 5, Balanced: true})
	if err != nil {
		tb.Fatal(err)
	}
	plan := buildPlan(tb, inst.G, inst.In)
	if !runsNative(sinkless.NewMessageSolver(), plan.vg) {
		tb.Fatal("the message solver does not run native")
	}
	machines, _, _, err := buildNativeMachines(inst.G, plan, NewFactTable(plan.vg))
	if err != nil {
		tb.Fatal(err)
	}
	pinned := make([]pinnedNative, len(machines))
	typed := make([]engine.TypedMachine[relayMsg], len(machines))
	for v := range machines {
		pinned[v] = pinnedNative{machines[v]}
		typed[v] = &pinned[v]
	}
	sess, err := engine.NewSession(opts, inst.G, typed)
	if err != nil {
		tb.Fatal(err)
	}
	machines[0].plane.sess = sess
	sess.Reset(1, false)
	for i := 0; i < 4; i++ {
		sess.Step()
	}
	return sess
}

// TestNativeMachineSteadyStateAllocs pins the native-relay round loop —
// record merging, the hosted protocol rounds, and change-only slot
// forwarding — to zero allocations in both execution modes.
func TestNativeMachineSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Workers: 1}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newNativeSession(t, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state native round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkNativeMachineSteadyState measures one native-relay round
// end-to-end on a balanced Π₂ instance; it must report 0 allocs/op.
func BenchmarkNativeMachineSteadyState(b *testing.B) {
	sess := newNativeSession(b, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}

// TestRelayMsgHoldsNoPointer pins the relay message to plain integers:
// a pointer in it would put every port-slot copy of both relays under
// GC write barriers and make the GC scan the message planes.
func TestRelayMsgHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(relayMsg{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int32, reflect.Uint32, reflect.Int64, reflect.Uint64:
		default:
			t.Fatalf("relayMsg field %s is a %v: the message must hold no pointer", typ.Field(i).Name, k)
		}
	}
}

// bytesPerRun averages the bytes f allocates over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestPreparedPaddedAllocs pins what holding a padded cell saves: a Run
// of a prepared pi2-rand-native base-48 solve (1 engine worker) — which
// still executes the Ψ and native relay sessions end to end and
// assembles a fresh output — allocates at most half the bytes of a
// one-shot solve of the same instance, which also decodes the input,
// builds the Ψ configs, plans and builds the relay.
func TestPreparedPaddedAllocs(t *testing.T) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 48, Seed: 1, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *EnginePaddedSolver {
		return NewEnginePaddedSolver(sinkless.NewMessageSolver(), LevelDelta(2), engine.New(engine.Options{Workers: 1}))
	}
	p, err := mk().Prepare(inst.G, inst.In)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The first Run builds the plan and the relay; later Runs reuse them.
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	held := bytesPerRun(8, func() {
		seed++
		if _, err := p.Run(seed); err != nil {
			t.Fatal(err)
		}
	})
	oneShot := bytesPerRun(8, func() {
		seed++
		if _, err := mk().SolveDetailed(inst.G, inst.In, seed); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("held Run %d B, one-shot solve %d B", held, oneShot)
	if 2*held > oneShot {
		t.Fatalf("held Run allocates %d B, more than half of a one-shot solve's %d B", held, oneShot)
	}
}
