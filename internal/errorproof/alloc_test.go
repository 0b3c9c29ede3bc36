package errorproof

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/gadget"
)

// pinnedPsi delegates to the production psiMachine but never reports
// done: Step skips delivery once every machine terminates, so holding
// termination off keeps compute AND delivery inside the measured window.
type pinnedPsi struct{ psiMachine }

func (m *pinnedPsi) Round(recv, send []psiMsg) bool {
	m.psiMachine.Round(recv, send)
	return false
}

// newPsiSession builds a Ψ-machine session on a large uniform gadget,
// reset and stepped into steady state.
func newPsiSession(tb testing.TB, height int, opts engine.Options) *engine.Session[psiMsg] {
	tb.Helper()
	gd, err := gadget.BuildUniform(3, height)
	if err != nil {
		tb.Fatal(err)
	}
	vf := &Verifier{Delta: 3}
	machines := buildPsiMachines(vf, gd.G, gd.In)
	pinned := make([]pinnedPsi, len(machines))
	typed := make([]engine.TypedMachine[psiMsg], len(machines))
	for v := range machines {
		pinned[v] = pinnedPsi{machines[v]}
		typed[v] = &pinned[v]
	}
	sess, err := engine.NewSession(opts, gd.G, typed)
	if err != nil {
		tb.Fatal(err)
	}
	sess.Reset(1, false)
	for i := 0; i < 4; i++ {
		sess.Step()
	}
	return sess
}

// TestPsiMachineSteadyStateAllocs pins the Ψ-machine round loop to zero
// allocations: one steady-state round — engine compute + delivery AND
// the machine's own predicate update — allocates nothing, in both the
// inline and the pooled mode.
func TestPsiMachineSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Workers: 1}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newPsiSession(t, 7, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state Ψ round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkPsiMachineSteadyState measures one Ψ round end-to-end on a
// ~3·2⁸-node gadget; it must report 0 allocs/op.
func BenchmarkPsiMachineSteadyState(b *testing.B) {
	sess := newPsiSession(b, 8, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}
