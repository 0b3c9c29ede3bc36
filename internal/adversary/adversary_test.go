package adversary

import (
	"math/rand"
	"testing"

	"locallab/internal/gadget"
	"locallab/internal/graph"
)

func buildGadget(t *testing.T) *gadget.Gadget {
	t.Helper()
	gd, err := gadget.BuildUniform(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return gd
}

// TestRewireNamesMatchGadget pins RewireNames against the actual
// gadget.StandardCorruptions list, so the registries cannot drift apart.
func TestRewireNamesMatchGadget(t *testing.T) {
	gd := buildGadget(t)
	cs := gadget.StandardCorruptions(gd, rand.New(rand.NewSource(1)))
	if len(cs) != len(RewireNames) {
		t.Fatalf("gadget has %d standard corruptions, RewireNames has %d", len(cs), len(RewireNames))
	}
	for i, c := range cs {
		if c.Name != RewireNames[i] {
			t.Errorf("corruption %d: gadget %q, RewireNames %q", i, c.Name, RewireNames[i])
		}
	}
}

// TestStandardRegistry: IDs unique and resolvable, every rewire fault
// applies, every delivery fault compiles.
func TestStandardRegistry(t *testing.T) {
	gd := buildGadget(t)
	seen := map[string]bool{}
	for _, f := range Standard() {
		if f.ID == "" || seen[f.ID] {
			t.Fatalf("empty or duplicate fault id %q", f.ID)
		}
		seen[f.ID] = true
		got, ok := ByID(f.ID)
		if !ok || got.ID != f.ID {
			t.Fatalf("ByID(%q) failed", f.ID)
		}
		if f.Delivery() {
			p, err := f.Compile(gd, 1)
			if err != nil {
				t.Fatalf("%s: compile: %v", f.ID, err)
			}
			if p.Slots() != gd.G.NumPorts() {
				t.Errorf("%s: plan covers %d slots, want %d", f.ID, p.Slots(), gd.G.NumPorts())
			}
			if (f.Kind == KindCrash || f.Kind == KindByzantine) && (p.Node < 0 || int(p.Node) >= gd.NumNodes()) {
				t.Errorf("%s: unresolved target node %d", f.ID, p.Node)
			}
			if _, _, err := f.ApplyStructural(gd, 1); err == nil {
				t.Errorf("%s: ApplyStructural should refuse delivery faults", f.ID)
			}
		} else {
			g, in, err := f.ApplyStructural(gd, 1)
			if err != nil {
				t.Fatalf("%s: apply: %v", f.ID, err)
			}
			if g == nil || in == nil {
				t.Fatalf("%s: nil corrupted instance", f.ID)
			}
			if _, err := f.Compile(gd, 1); err == nil {
				t.Errorf("%s: Compile should refuse rewire faults", f.ID)
			}
		}
	}
	if len(seen) != len(RewireNames)+8 {
		t.Fatalf("registry has %d faults, want %d", len(seen), len(RewireNames)+8)
	}
}

// TestPlanDeterminism: decisions are a pure function of
// (seed, fault id, round, slot) — recompiled plans agree bit for bit,
// and different seeds actually move the decisions.
func TestPlanDeterminism(t *testing.T) {
	gd := buildGadget(t)
	f, _ := ByID("drop:p20")
	a, err := f.Compile(gd, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Compile(gd, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Compile(gd, 8)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for round := 1; round <= 8; round++ {
		for slot := int32(0); slot < int32(a.Slots()); slot++ {
			if a.fires(round, slot) != b.fires(round, slot) {
				t.Fatalf("same (seed, fault) disagrees at round %d slot %d", round, slot)
			}
			if a.payload(round, slot) != b.payload(round, slot) {
				t.Fatalf("payload disagrees at round %d slot %d", round, slot)
			}
			if a.fires(round, slot) != c.fires(round, slot) {
				differ = true
			}
		}
	}
	if !differ {
		t.Fatal("seeds 7 and 8 produced identical drop patterns")
	}
}

// TestSeededTargetDependsOnSeed: the seeded target resolves per
// (seed, fault id), not to a constant.
func TestSeededTargetDependsOnSeed(t *testing.T) {
	gd := buildGadget(t)
	f, _ := ByID("byzantine:seeded")
	nodes := map[graph.NodeID]bool{}
	for seed := int64(0); seed < 16; seed++ {
		p, err := f.Compile(gd, seed)
		if err != nil {
			t.Fatal(err)
		}
		nodes[p.Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("seeded target stuck on one node across 16 seeds: %v", nodes)
	}
}

func identityCodec() Codec[uint64] {
	return Codec[uint64]{
		Encode: func(m uint64) uint64 { return m },
		Decode: func(_ int32, w uint64) uint64 { return w },
	}
}

// TestInterceptorSemantics drives Deliver directly: crash silences
// exactly the target's slots, drop honors its round restriction,
// duplicate replays the captured word next round, corrupt flips exactly
// one bit.
func TestInterceptorSemantics(t *testing.T) {
	gd := buildGadget(t)

	t.Run("crash", func(t *testing.T) {
		f, _ := ByID("crash:center")
		p, err := f.Compile(gd, 1)
		if err != nil {
			t.Fatal(err)
		}
		it := NewInterceptor(p, identityCodec())
		it.BeginRound(1)
		for slot := int32(0); slot < int32(p.Slots()); slot++ {
			got := it.Deliver(slot, 42)
			fromTarget := p.slotSender[slot] == int32(p.Node)
			if fromTarget && got != 0 {
				t.Fatalf("slot %d from crashed node delivered %d", slot, got)
			}
			if !fromTarget && got != 42 {
				t.Fatalf("slot %d from live node mangled to %d", slot, got)
			}
		}
	})

	t.Run("drop-round-restricted", func(t *testing.T) {
		f, _ := ByID("drop:round1")
		p, err := f.Compile(gd, 1)
		if err != nil {
			t.Fatal(err)
		}
		it := NewInterceptor(p, identityCodec())
		it.BeginRound(1)
		if got := it.Deliver(0, 42); got != 0 {
			t.Fatalf("round 1 delivery survived: %d", got)
		}
		it.BeginRound(2)
		if got := it.Deliver(0, 42); got != 42 {
			t.Fatalf("round 2 delivery mangled: %d", got)
		}
	})

	t.Run("duplicate-replays", func(t *testing.T) {
		f, _ := ByID("duplicate:p20")
		p, err := f.Compile(gd, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Find a slot where the duplicate fires in round 1.
		slot := int32(-1)
		for s := int32(0); s < int32(p.Slots()); s++ {
			if p.fires(1, s) {
				slot = s
				break
			}
		}
		if slot < 0 {
			t.Fatal("duplicate never fires in round 1 on any slot")
		}
		it := NewInterceptor(p, identityCodec())
		it.BeginRound(1)
		if got := it.Deliver(slot, 42); got != 42 {
			t.Fatalf("captured delivery mangled: %d", got)
		}
		it.BeginRound(2)
		if got := it.Deliver(slot, 99); got != 42 {
			t.Fatalf("round 2 should replay 42, got %d", got)
		}
		it.Reset()
		it.BeginRound(2)
		if got := it.Deliver(slot, 99); got == 42 {
			t.Fatal("Reset did not clear the held replay")
		}
	})

	t.Run("corrupt-flips-one-bit", func(t *testing.T) {
		f, _ := ByID("corrupt:bitflip-p10")
		p, err := f.Compile(gd, 1)
		if err != nil {
			t.Fatal(err)
		}
		it := NewInterceptor(p, identityCodec())
		fired := false
		it.BeginRound(1)
		for slot := int32(0); slot < int32(p.Slots()); slot++ {
			got := it.Deliver(slot, 42)
			if got == 42 {
				continue
			}
			fired = true
			diff := got ^ 42
			if diff&(diff-1) != 0 {
				t.Fatalf("slot %d: corruption flipped more than one bit (%#x)", slot, diff)
			}
		}
		if !fired {
			t.Fatal("corruption never fired on any round-1 slot")
		}
	})
}

// TestCompileGraph: the graph-generic compile path used by the relay
// campaign plane. Slot-scoped faults compile against any graph and
// agree with the gadget compile; node-scoped faults resolve only the
// seeded target, and gadget-scoped targets fail loudly.
func TestCompileGraph(t *testing.T) {
	gd := buildGadget(t)
	for _, id := range []string{"drop:p20", "drop:round1", "duplicate:p20", "corrupt:bitflip-p10"} {
		f, ok := ByID(id)
		if !ok {
			t.Fatalf("fault %q missing", id)
		}
		p, err := f.CompileGraph(gd.G, 7)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if p.Slots() != gd.G.NumPorts() {
			t.Fatalf("%s: plan covers %d slots, graph has %d ports", id, p.Slots(), gd.G.NumPorts())
		}
		// The gadget compile of the same fault is the same plan: the
		// decision streams cannot depend on which compile built them.
		gp, err := f.Compile(gd, 7)
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 4; round++ {
			for slot := int32(0); slot < int32(p.Slots()); slot++ {
				if p.fires(round, slot) != gp.fires(round, slot) {
					t.Fatalf("%s: fire decision at (%d, %d) differs between compiles", id, round, slot)
				}
			}
		}
	}
	seeded, _ := ByID("crash:seeded-late")
	p, err := seeded.CompileGraph(gd.G, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Node < 0 || int(p.Node) >= gd.NumNodes() {
		t.Fatalf("seeded target %d outside the graph", p.Node)
	}
	center, _ := ByID("crash:center")
	if _, err := center.CompileGraph(gd.G, 7); err == nil {
		t.Fatal("gadget-scoped target compiled against a bare graph")
	}
	rewire, _ := ByID("rewire:self-loop")
	if _, err := rewire.CompileGraph(gd.G, 7); err == nil {
		t.Fatal("structural fault produced a delivery plan")
	}
}
