package core

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
)

// The payload relay plane: the physical realization of the inner
// machines' message passing through the gadgets. Lemma 4 charges the
// inner algorithm's T-round execution on the virtual graph H
// (T+1)·(d+1) physical rounds: each virtual round crosses one gadget of
// eccentricity ≤ d plus the port edge. The relay plane carries the inner
// solver's real per-virtual-edge payloads — knowledge word vectors over
// the instance's FactTable — along those routes: every physical round
// each node floods its payload over gadget edges, and port nodes push it
// across their virtual (port) edge on a measured schedule — every physical
// round when payloads are a single word, otherwise once per their own
// gadget's eccentricity + 1 (computed at plan time), never slower than
// the worst-gadget d+1-round super-round.
//
// Because payloads are OR-monotone broadcasts (the VirtualMachine
// contract), in-flight merging is sound: a gadget interior node may
// combine what it heard from several ports and forward the union, and
// the fixpoint — every gadget node holding its component's complete
// fact set — is independent of delivery interleaving, so the final
// words, session length, and outputs are byte-identical for every
// worker/shard geometry.
//
// Each valid gadget's leader node (its minimal physical node, whose
// gadget eccentricity bounds the dilation) hosts the gadget's
// VirtualMachine and drives one machine round per super-round. The
// session has no precomputed length: it terminates at the first round in
// which every node has been payload-stable past its own crossing
// interval and every hosted machine reports stabilization — never more
// than roughly 2(d+1) physical rounds per virtual hop, and as little as
// one physical round per hop under the single-word fast path.

// relayMsg is the relay payload: a read-only view of the sender's
// double-buffered knowledge words (nil on silent ports).
type relayMsg struct {
	Words []uint64
}

// relayMachine floods knowledge payloads under the dilated schedule.
type relayMachine struct {
	// gad lists in-scope (gadget-edge) ports, flooded every round; virt
	// lists ports on virtual (port) edges, crossed every crossEvery
	// rounds (see classifyPorts).
	gad  []int32
	virt []int32
	// superLen is d+1.
	superLen int32
	// crossEvery is the node's port-crossing interval: every physical
	// round for single-word payloads, otherwise its own gadget's
	// eccentricity + 1 (measured at plan time) — never more than
	// superLen, which uses the worst gadget's eccentricity.
	crossEvery int32
	// init is the node's initial knowledge (nil outside valid gadgets).
	init []uint64
	// words is the current knowledge; out is the alternating send buffer
	// (a buffer written in round r is read in round r+1 and not touched
	// again before round r+2, so receivers never race the writer).
	words []uint64
	out   [2][]uint64
	// vm is the hosted virtual machine (leader nodes only) and vmOut its
	// send buffer.
	vm     VirtualMachine
	vmInfo VirtualNodeInfo
	vmOut  []uint64
	vmDone bool

	round  int32
	stable int32
	// sent counts the payload words this machine handed to the transport
	// (per-machine so the tally needs no synchronization; the runner sums
	// after the session, which is deterministic for every geometry).
	sent int64
}

var _ engine.TypedMachine[relayMsg] = (*relayMachine)(nil)

func (m *relayMachine) Init(engine.NodeInfo) {
	m.round = 0
	m.stable = 0
	m.sent = 0
	m.vmDone = false
	for i := range m.words {
		m.words[i] = 0
	}
	if m.init != nil {
		copy(m.words, m.init)
	}
	if m.vm != nil {
		m.vm.Init(m.vmInfo)
	}
}

func (m *relayMachine) Round(recv, send []relayMsg) bool {
	m.round++
	changed := false
	if m.round > 1 {
		for _, p := range m.gad {
			if w := recv[p].Words; w != nil && orInto(m.words, w) {
				changed = true
			}
		}
		for _, p := range m.virt {
			if w := recv[p].Words; w != nil && orInto(m.words, w) {
				changed = true
			}
		}
	}
	if changed {
		m.stable = 0
	} else {
		m.stable++
	}
	boundary := (m.round-1)%m.crossEvery == 0
	if m.vm != nil && boundary {
		// One virtual-machine round per crossing interval: the payloads
		// that crossed the gadget's port edges have flooded to the leader
		// by the next boundary. OR-monotone machines tolerate the faster
		// cadence — extra calls merge nothing new.
		m.vmDone = m.vm.Round(m.words, m.vmOut)
		orInto(m.words, m.vmOut)
	}
	buf := m.out[m.round&1]
	copy(buf, m.words)
	for p := range send {
		send[p] = relayMsg{}
	}
	for _, p := range m.gad {
		send[p] = relayMsg{Words: buf}
	}
	// Port crossings follow the node's own gadget's measured eccentricity
	// (every round for single-word payloads), not the worst gadget's
	// d+1-round super-round. Stopping stays safe under the faster
	// schedule: a machine whose words changed has stable = 0, done
	// requires stable > superLen ≥ crossEvery, so a session can never
	// stop with uncrossed news at a port.
	if (m.round-1)%m.crossEvery == 0 {
		for _, p := range m.virt {
			send[p] = relayMsg{Words: buf}
		}
		m.sent += int64(len(buf) * len(m.virt))
	}
	m.sent += int64(len(buf) * len(m.gad))
	done := m.round > m.superLen && m.stable > m.crossEvery
	if m.vm != nil {
		done = done && m.vmDone
	}
	return done
}

// RelayRun is the outcome of a payload-relay execution.
type RelayRun struct {
	// Out is the inner output labeling on H, decoded from the leaders'
	// final knowledge.
	Out *lcl.Labeling
	// Rounds[vi] is virtual node vi's charged virtual rounds (its
	// machine's stabilization count, in super-rounds).
	Rounds []int
	// Stats is the engine profile of the physical session; Stats.Rounds
	// is the real measured length of the relay.
	Stats engine.Stats
	// Words is the relay bandwidth: payload words handed to the transport
	// over the whole session, counted at the senders (framing and
	// addressing excluded), so the figure is what a delta wire encoding
	// would move. Deterministic for every worker/shard geometry.
	Words int64
}

// RunRelay executes the inner algorithm as native machines over the
// payload relay plane: virtual machines hosted at gadget leaders, their
// payloads flood-forwarded through gadget interiors and across port
// edges under the d+1-round super-round schedule, outputs decoded from
// the stabilized knowledge. It requires at least one valid gadget.
//
// A non-nil itc (an adversary delivery-fault interceptor) is installed
// on the session; the round cap then doubles as the loud failure mode —
// a fault regime that starves the flood of its fixpoint surfaces as
// engine.ErrRoundLimit, never as a hang.
func RunRelay(eng *engine.Engine, g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, table *FactTable, mk func(vi graph.NodeID) VirtualMachine,
	dilation int, compEcc []int, seed int64, itc engine.Interceptor[relayMsg]) (*RelayRun, error) {

	nv := vg.NumVirtualNodes()
	if nv == 0 {
		return nil, fmt.Errorf("run relay: no valid gadgets")
	}
	machines, vms := buildRelayMachines(g, scope, vg, table, mk, dilation, compEcc, seed)
	superLen := machines[0].superLen
	n := g.NumNodes()
	typed := make([]engine.TypedMachine[relayMsg], n)
	for v := range machines {
		typed[v] = &machines[v]
	}
	// Dissemination needs at most ~2 super-rounds per virtual hop plus
	// one super-round of stabilization detection.
	maxRounds := int(superLen) * (2*nv + 8)
	var stats engine.Stats
	var err error
	if itc == nil {
		stats, err = local.RunStatsTyped(eng, g, typed, seed, false, maxRounds)
	} else {
		sess, serr := engine.NewCore[relayMsg](eng.Options()).NewSession(g, typed)
		if serr != nil {
			return nil, fmt.Errorf("run relay: %w", serr)
		}
		defer sess.Close()
		sess.SetInterceptor(itc)
		stats, err = sess.Run(seed, false, maxRounds)
	}
	if err != nil {
		return nil, fmt.Errorf("run relay: %w", err)
	}
	run := &RelayRun{Out: lcl.NewLabeling(vg.H), Rounds: make([]int, nv), Stats: stats}
	for v := range machines {
		run.Words += machines[v].sent
	}
	for vi := range vms {
		if vms[vi] == nil {
			return nil, fmt.Errorf("run relay: virtual node %d has no hosted machine", vi)
		}
		run.Rounds[vi] = vms[vi].Rounds()
	}
	if err := finishComponents(vg, func(vi graph.NodeID) VirtualMachine { return vms[vi] }, run.Out); err != nil {
		return nil, fmt.Errorf("run relay: %w", err)
	}
	return run, nil
}

// buildRelayMachines derives the per-physical-node relay configuration:
// port lists, seeded knowledge, the crossing interval from the node's own
// gadget's measured eccentricity, and the hosted virtual machine at each
// valid gadget's leader node. compEcc holds the per-component leader
// eccentricities measured at plan time (nil falls back to the global
// super-round everywhere).
func buildRelayMachines(g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, table *FactTable, mk func(vi graph.NodeID) VirtualMachine,
	dilation int, compEcc []int, seed int64) ([]relayMachine, []VirtualMachine) {

	superLen := superRoundLen(dilation)
	n := g.NumNodes()
	words := table.Words()
	machines := make([]relayMachine, n)
	vms := make([]VirtualMachine, vg.NumVirtualNodes())
	for v := graph.NodeID(0); int(v) < n; v++ {
		m := &machines[v]
		m.superLen = superLen
		m.crossEvery = superLen
		m.words = make([]uint64, words)
		m.out = [2][]uint64{make([]uint64, words), make([]uint64, words)}
		ci := vg.CompOf[v]
		if ci >= 0 && vg.Valid[ci] && vg.VirtOf[ci] >= 0 {
			vi := vg.VirtOf[ci]
			if words == 1 {
				m.crossEvery = 1
			} else if compEcc != nil && ci < len(compEcc) && compEcc[ci] >= 0 {
				m.crossEvery = int32(compEcc[ci] + 1)
			}
			m.init = make([]uint64, words)
			table.SeedWords(vi, m.init)
			if vg.Comps[ci][0] == v {
				// The leader hosts the gadget's virtual machine.
				m.vm = mk(vi)
				m.vmInfo = VirtualNodeInfo{
					Node: vi, ID: vg.H.ID(vi), Degree: vg.H.Degree(vi),
					Words: words, Seed: seed, Table: table,
				}
				m.vmOut = make([]uint64, words)
				vms[vi] = m.vm
			}
		}
		m.gad, m.virt = classifyPorts(g, scope, vg, v)
	}
	return machines, vms
}

// classifyPorts splits node v's ports into gadget-interior ports (scoped
// edges, flooded every round) and virtual ports (port edges carrying a
// virtual edge, crossed on the node's crossing schedule).
func classifyPorts(g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, v graph.NodeID) (gad, virt []int32) {

	for p, h := range g.Halves(v) {
		if scope(h.Edge) {
			gad = append(gad, int32(p))
		} else if _, ok := vg.VEdgeOf[h.Edge]; ok {
			virt = append(virt, int32(p))
		}
	}
	return gad, virt
}

// superRoundLen is the dilated super-round length d+1, floored at one
// physical round.
func superRoundLen(dilation int) int32 {
	if dilation < 0 {
		return 1
	}
	return int32(dilation + 1)
}
