package core

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// FuzzNativeSlotRewrite fuzzes the native relay plane's port-slot
// rewrite path: a natMachine fed malformed transport records — record
// counts beyond the slot table, record positions outside the session's
// record plane, slot identifiers outside the node's slot table,
// arbitrary payload words — must merge or drop them, never panic.
// Legitimate transport cannot produce such records (relabel always
// targets a live slot of the receiver, and a message only names its
// sender's lane), so this is exactly the surface a delivery adversary
// corrupting relay messages reaches; the merge-loop guards in
// natMachine.Round are what it pins.
func FuzzNativeSlotRewrite(f *testing.F) {
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 8, Seed: 1, Balanced: true})
	if err != nil {
		f.Fatal(err)
	}
	plan := buildPlan(f, inst.G, inst.In)
	machines, _, _, err := buildNativeMachines(inst.G, plan, NewFactTable(plan.vg))
	if err != nil {
		f.Fatal(err)
	}
	recs := machines[0].plane.recs
	// The fuzz drives Round directly, playing the session's round clock.
	round := 0
	machines[0].plane.round = func() int { return round }

	// Seeds: a well-formed single record, an out-of-table slot, a record
	// count past the slot table, records running off the plane's end, a
	// negative position, all-ones payloads.
	f.Add(uint16(0), uint8(1), int32(0), uint8(1), uint8(3), uint64(42))
	f.Add(uint16(1), uint8(1), int32(1), uint8(maxNatSlots), uint8(0), uint64(1))
	f.Add(uint16(2), uint8(255), int32(0), uint8(7), uint8(200), ^uint64(0))
	f.Add(uint16(3), uint8(maxNatSlots+1), int32(0), uint8(0), uint8(255), uint64(1)<<63)
	f.Add(uint16(4), uint8(2), int32(len(recs)-1), uint8(1), uint8(1), uint64(5))
	f.Add(uint16(5), uint8(1), int32(-1), uint8(1), uint8(1), uint64(5))

	f.Fuzz(func(t *testing.T, sel uint16, n uint8, at int32, slot0, slot1 uint8, val uint64) {
		v := graph.NodeID(int(sel) % len(machines))
		m := &machines[v]
		m.Init(engine.NodeInfo{})
		deg := inst.G.Degree(v)
		recv := make([]natMsg, deg)
		send := make([]natMsg, deg)
		// Round 1 ignores recv; the merge path runs from round 2 on.
		round = 1
		m.Round(recv, send)
		for i := range recs {
			recs[i] = natRecord{slot: slot0 + uint8(i)*slot1, val: val + uint64(i)}
		}
		for p := range recv {
			recv[p] = natMsg{n: n, at: at + int32(p)}
		}
		round = 2
		m.Round(recv, send)
		// The machine must stay drivable after absorbing the malformed
		// records: one more clean round, then its outputs still decode.
		for p := range recv {
			recv[p] = natMsg{}
		}
		round = 3
		m.Round(recv, send)
		if m.host != nil {
			out := lcl.NewLabeling(plan.vg.H)
			if err := m.host.pm.Finish(out); err != nil {
				t.Fatalf("hosted machine unfinishable after malformed records: %v", err)
			}
		}
	})
}
