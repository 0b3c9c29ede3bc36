package core

import (
	"math"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// clockMachine never finishes: a session of them is the round clock
// for relay machines driven by hand, which read the round from their
// plane's session.
type clockMachine struct{}

func (clockMachine) Init(engine.NodeInfo)       {}
func (clockMachine) Round(_, _ []relayMsg) bool { return false }

// FuzzNativeSlotRewrite fuzzes the relay plane's shared reader through
// both machine kinds. A natMachine and a gather relayMachine fed the same
// malformed views — word counts beyond the slot table, odd or negative
// counts, positions outside the plane, slot identifiers outside the
// node's slot table, arbitrary payload words — must merge or drop them,
// never panic, and a gather node must read every view that reaches
// outside its plane (once its count is clamped to the payload width) as
// silence. Legitimate transport cannot produce such
// views (relabel always targets a live slot of the receiver, and a
// message only names its sender's buffer or lane), so this is exactly the
// surface a delivery adversary corrupting relay messages reaches; the
// plane's view check and the merge-loop guards in natMachine.Round are
// what it pins.
func FuzzNativeSlotRewrite(f *testing.F) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 8, Seed: 1, Balanced: true})
	if err != nil {
		f.Fatal(err)
	}
	plan := buildPlan(f, inst.G, inst.In)
	table := NewFactTable(plan.vg)
	natives, _, _, err := buildNativeMachines(inst.G, plan, table)
	if err != nil {
		f.Fatal(err)
	}
	gathers, _ := buildRelayMachines(inst.G, plan, table, sinkless.NewDetSolver())
	nplane, gplane := natives[0].plane, &gathers[0].ctl.plane
	// The fuzz drives Round directly; a clock session plays the round.
	clocks := make([]engine.TypedMachine[relayMsg], inst.G.NumNodes())
	for v := range clocks {
		clocks[v] = clockMachine{}
	}
	clock, err := engine.NewSession(engine.Options{Workers: 1}, inst.G, clocks)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(clock.Close)
	nplane.sess, gplane.sess = clock, clock

	// Seeds: a well-formed single record, an out-of-table slot, a word
	// count past the slot table, records running off either plane's end,
	// a negative position, a negative count, an odd count, and a view
	// whose end overflows int32.
	f.Add(uint16(0), int32(2), int32(0), uint8(1), uint8(3), uint64(42))
	f.Add(uint16(1), int32(2), int32(1), uint8(maxNatSlots), uint8(0), uint64(1))
	f.Add(uint16(2), int32(255), int32(0), uint8(7), uint8(200), ^uint64(0))
	f.Add(uint16(3), int32(2*maxNatSlots+2), int32(0), uint8(0), uint8(255), uint64(1)<<63)
	f.Add(uint16(4), int32(4), int32(len(nplane.words)-1), uint8(1), uint8(1), uint64(5))
	f.Add(uint16(5), int32(4), int32(len(gplane.words)-1), uint8(1), uint8(1), uint64(5))
	f.Add(uint16(6), int32(2), int32(-1), uint8(1), uint8(1), uint64(5))
	f.Add(uint16(7), int32(-2), int32(0), uint8(1), uint8(1), uint64(5))
	f.Add(uint16(8), int32(3), int32(0), uint8(1), uint8(1), uint64(5))
	f.Add(uint16(9), int32(math.MaxInt32), int32(math.MaxInt32-1), uint8(1), uint8(1), uint64(5))

	f.Fuzz(func(t *testing.T, sel uint16, n, at int32, slot0, slot1 uint8, val uint64) {
		v := graph.NodeID(int(sel) % len(natives))
		nm, gm := &natives[v], &gathers[v]
		nm.Init(engine.NodeInfo{})
		gm.Init(engine.NodeInfo{})
		deg := inst.G.Degree(v)
		recv := make([]relayMsg, deg)
		nsend, gsend := make([]relayMsg, deg), make([]relayMsg, deg)
		// Round 1 ignores recv; the merge path runs from round 2 on.
		clock.Reset(0, false)
		clock.Step()
		nm.Round(recv, nsend)
		gm.Round(recv, gsend)
		for i := range nplane.words {
			if i%2 == 0 {
				nplane.words[i] = uint64(slot0 + uint8(i/2)*slot1)
			} else {
				nplane.words[i] = val + uint64(i)
			}
		}
		for i := range gplane.words {
			gplane.words[i] = val + uint64(i)
		}
		// silent: no view, its count clamped to the payload width, lies
		// inside the gather plane.
		silent := true
		for p := range recv {
			recv[p] = relayMsg{at: at + int32(p), n: n}
			c := int64(min(n, gm.w))
			if c > 0 && recv[p].at >= 0 && int64(recv[p].at)+c <= int64(len(gplane.words)) {
				silent = false
			}
		}
		clock.Step()
		nm.Round(recv, nsend)
		gm.Round(recv, gsend)
		if silent && gm.lastChange == 2 {
			t.Fatalf("gather node %d merged views outside its plane: %+v", v, recv)
		}
		// The machines must stay drivable after absorbing the malformed
		// views: one more clean round, then the native outputs still
		// decode.
		clear(recv)
		clock.Step()
		nm.Round(recv, nsend)
		gm.Round(recv, gsend)
		if nm.host != nil {
			out := lcl.NewLabeling(plan.vg.H)
			if err := nm.host.pm.Finish(out); err != nil {
				t.Fatalf("hosted machine unfinishable after malformed records: %v", err)
			}
		}
	})
}
