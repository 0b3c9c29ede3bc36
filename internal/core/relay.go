package core

import (
	"fmt"

	"locallab/internal/adversary"
	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// The payload relay plane: the physical realization of the inner
// machines' message passing through the gadgets. Lemma 4 charges the
// inner algorithm's T-round execution on the virtual graph H
// (T+1)·(d+1) physical rounds: each virtual round crosses one gadget of
// eccentricity ≤ d plus the port edge. The relay plane carries the inner
// solver's real per-virtual-edge payloads — knowledge word vectors over
// the instance's FactTable — along those routes. A node floods its
// payload over gadget edges in every physical round in which it changed
// (and in round 1), and its port nodes push it across their virtual
// (port) edges at crossing boundaries when it changed since the last
// crossing: every physical round when payloads are a single word,
// otherwise once per their own gadget's eccentricity + 1 (computed at
// plan time), never slower than the worst-gadget d+1-round super-round.
//
// Because payloads are OR-monotone broadcasts (the gather machines'
// full-information normal form, vm.go), in-flight merging is sound: a
// gadget interior node may combine what it heard from several ports and
// forward the union, and the fixpoint — every gadget node holding its
// component's complete fact set — is independent of delivery
// interleaving, so the final words, session length, and outputs are
// byte-identical for every worker/shard geometry. Merging is also idempotent, so forwarding only
// changes is exact: a receiver already merged every unchanged payload
// when it was last sent, and each node's knowledge in every round equals
// what it would hold if every node re-sent its whole payload every round.
// That full re-flood is what the relay does while a delivery-fault
// interceptor is installed, since a dropped or corrupted payload heals
// only when it is sent again.
//
// Each valid gadget's leader node (its minimal physical node, whose
// gadget eccentricity bounds the dilation) hosts the gadget's
// GatherMachine and drives one machine round per crossing interval. The
// machine runs on the leader's own knowledge words: the leader merges
// what arrives and tells the machine at each boundary whether anything
// did, so each node's knowledge exists once. The session has no
// precomputed length: it terminates at the first round in which every
// node has been payload-stable past its own crossing interval and every
// hosted machine reports stabilization — never more than roughly 2(d+1)
// physical rounds per virtual hop, and as little as one physical round
// per hop under the single-word fast path. A node
// that sent nothing and has no crossing waiting sleeps (engine.Sleeper)
// until a neighbor sends it a payload; the round it would be done in
// follows from its last change, so it need not stay awake to count.
//
// The transport below (relayMsg, relayPlane) is shared with the native
// relay (native.go); a node's knowledge and send buffers are plane runs.

// relayMsg is the message of both relays: n words of the session's
// relayPlane starting at words[at]; n == 0 is silence. A gather payload
// names the sender's send buffer, a native message its records. It holds
// no pointer, so the engine copies it through the port slots without
// write barriers and the GC does not scan the message planes.
type relayMsg struct {
	at, n int32
}

// relayPlane is the word storage of one relay session. Gather nodes keep
// their knowledge and send buffers in words, native nodes write their
// records into per-port lanes of it, and a fault interceptor, when one is
// installed, writes its rewritten words into one cell per receiver slot
// at its end. Messages are read only through view.
type relayPlane struct {
	words []uint64
	// sess is the session running the machines. They read its round
	// (Session.Rounds) instead of counting their own calls: the session
	// skips sleeping machines, so a machine is not called every round.
	sess *engine.Session[relayMsg]
	// lanes locates each port slot's native records (nil for gather).
	lanes []natLane
}

// view returns the words m names: nil for silence and for any view
// reaching outside the plane. Legitimate transport only names live
// buffers, so the check matters only under fault injection, where a
// corrupt delivery must degrade, never panic (FuzzNativeSlotRewrite).
func (pl *relayPlane) view(m relayMsg) []uint64 {
	at, n := int(m.at), int(m.n)
	if n <= 0 || at < 0 || at > len(pl.words)-n {
		return nil
	}
	return pl.words[at : at+n : at+n]
}

func (pl *relayPlane) round() int32 { return int32(pl.sess.Rounds()) }

// relayCtl is what the machines of one gather session share.
type relayCtl struct {
	plane relayPlane
	// reflood makes every node send its payload on every gadget port
	// every round and across its port edges at every boundary, changed
	// or not. newGatherRelay sets it when it installs an interceptor.
	reflood bool
	// table reseeds the valid-gadget nodes' knowledge at Init.
	table *FactTable
}

// relayMachine floods knowledge payloads under the dilated schedule.
// It is kept small because a prepared relay holds one per physical node:
// port lists are runs of a shared slab, word buffers runs of the plane,
// and the hosted gather machine sits behind a pointer on leader nodes
// only.
type relayMachine struct {
	// ports lists the in-scope (gadget-edge) ports, flooded in rounds the
	// payload changed, then from nGad on the ports on virtual (port)
	// edges, crossed at crossing boundaries (see classifyPorts).
	ports []int32
	nGad  int32
	// superLen is d+1.
	superLen int32
	// crossEvery is the node's port-crossing interval: every physical
	// round for single-word payloads, otherwise its own gadget's
	// eccentricity + 1 (measured at plan time) — never more than
	// superLen, which uses the worst gadget's eccentricity.
	crossEvery int32
	// w is the payload width. The node's relayBufs w-word buffers start
	// at plane word at: the current knowledge and the two alternating
	// send buffers (a buffer written in round r is read in round r+1 and
	// not touched again before round r+2, so receivers never race the
	// writer).
	w, at int32
	// host is the gadget's gather machine on its leader node, running
	// on the node's knowledge words; nil everywhere else.
	host *GatherMachine
	ctl  *relayCtl

	// lastChange is the last round in which a received payload changed
	// the knowledge (0 before any); the node has been stable for
	// round − lastChange rounds.
	lastChange int32
	// vi is the virtual node of the node's valid gadget (-1: none),
	// whose initial knowledge Init seeds.
	vi int32
	// cross marks knowledge changed since the last port crossing; only
	// nodes with virtual ports set it. quiet marks a last Round that sent
	// nothing. news marks knowledge changed since the host's last
	// machine round.
	cross, quiet, news bool
	// sent counts the payload words this machine handed to the transport
	// (per-machine so the tally needs no synchronization; the runner sums
	// after the session, which is deterministic for every geometry).
	sent int64
}

// relayBufs is the number of w-word buffers of a node.
const relayBufs = 3

func (m *relayMachine) words() []uint64 {
	return m.ctl.plane.words[m.at : m.at+m.w : m.at+m.w]
}

var (
	_ engine.TypedMachine[relayMsg] = (*relayMachine)(nil)
	_ engine.Sleeper                = (*relayMachine)(nil)
)

func (m *relayMachine) Init(engine.NodeInfo) {
	m.lastChange = 0
	m.cross, m.quiet, m.news = false, false, false
	m.sent = 0
	words := m.words()
	if m.vi >= 0 {
		m.ctl.table.SeedWords(graph.NodeID(m.vi), words)
	} else {
		clear(words)
	}
	if h := m.host; h != nil {
		// The host keeps its info; run writes the seed into it.
		h.Init(h.info, words)
	}
}

func (m *relayMachine) Round(recv, send []relayMsg) bool {
	pl := &m.ctl.plane
	round := pl.round()
	words := m.words()
	gad, virt := m.ports[:m.nGad], m.ports[m.nGad:]
	// fresh marks knowledge that changed this round; round 1 sends the
	// initial knowledge. A payload is at most w words: a longer count
	// (only a fault produces one) is clamped, as the native merge clamps.
	fresh := round == 1
	if !fresh {
		for _, p := range m.ports {
			in := recv[p]
			in.n = min(in.n, m.w)
			if orInto(words, pl.view(in)) {
				m.lastChange, m.news, fresh = round, true, true
			}
		}
	}
	// Only hosts and nodes with a crossing to make read the boundary.
	reflood := m.ctl.reflood
	boundary := false
	if m.host != nil || len(virt) > 0 && (fresh || m.cross || reflood) {
		boundary = (round-1)%m.crossEvery == 0
	}
	if h := m.host; h != nil && boundary {
		// One machine round per crossing interval: the payloads that
		// crossed the gadget's port edges have flooded to the leader by
		// the next boundary. Gather machines tolerate the faster cadence
		// — extra calls learn nothing new.
		h.Round(m.news)
		m.news = false
	}
	if fresh && len(virt) > 0 {
		m.cross = true
	}
	// A quiet last round left every send slot silent, and only this
	// machine writes them.
	if !m.quiet {
		clear(send)
	}
	toGad := (fresh || reflood) && len(gad) > 0
	// Port crossings follow the node's own gadget's measured eccentricity
	// (every round for single-word payloads), not the worst gadget's
	// d+1-round super-round. Stopping stays safe under the faster
	// schedule: done requires round − lastChange > crossEvery, so a node
	// that received news meets a boundary before it can be done. A
	// session can never stop with uncrossed news at a port.
	toVirt := boundary && (m.cross || reflood) && len(virt) > 0
	m.quiet = !toGad && !toVirt
	if !m.quiet {
		// The send buffer of this round's parity.
		msg := relayMsg{at: m.at + (1+round&1)*m.w, n: m.w}
		copy(pl.words[msg.at:msg.at+m.w], words)
		if toGad {
			for _, p := range gad {
				send[p] = msg
			}
			m.sent += int64(m.w) * int64(len(gad))
		}
		if toVirt {
			for _, p := range virt {
				send[p] = msg
			}
			m.sent += int64(m.w) * int64(len(virt))
			m.cross = false
		}
	}
	done := round > m.superLen && round-m.lastChange > m.crossEvery
	if m.host != nil {
		done = done && m.host.settled
	}
	return done
}

// Quiet implements engine.Sleeper: the last Round sent no payload.
func (m *relayMachine) Quiet() bool { return m.quiet }

// Asleep implements engine.Sleeper. A quiet non-host node with no
// crossing waiting would, with only silent ports, merge nothing and send
// nothing, and its stop rule reads only the round: it is done from round
// max(superLen, lastChange+crossEvery) + 1 on. Hosts stay awake, as they
// drive their gather machine at every boundary.
func (m *relayMachine) Asleep() (bool, int) {
	if m.host != nil || !m.quiet || m.cross {
		return false, 0
	}
	return true, int(max(m.superLen, m.lastChange+m.crossEvery)) + 1
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
	// addressing excluded). A gather node sends its words only in rounds
	// they changed (and in round 1), and across its port edges only when
	// they changed since the last crossing, unless an interceptor forces
	// the full re-flood. Deterministic for every worker/shard geometry.
	Words int64
	// Inner is the merged profile of the hosts' nested engine solves when
	// the inner solver is itself an EnginePaddedSolver (nil otherwise):
	// one per component of H, folded as concurrent siblings.
	Inner *EngineRunStats
}

// gatherRelay is a prepared gather relay: the per-node relay machines,
// the hosted gather machines, and the engine session that executes
// them. A run executes the inner algorithm as gather machines over the
// payload relay plane: hosted at gadget leaders, their knowledge
// flood-forwarded through gadget interiors and across port edges under
// the crossing schedule, outputs decoded from the stabilized knowledge.
// Only the seed changes between runs, and it reaches the machines
// through the hosts' VirtualNodeInfo.
//
// A delivery-fault plan's interceptor (relayfault.go) is installed on
// the session and reset before every run; the round cap then doubles as
// the loud failure mode — a fault regime that starves the flood of its
// fixpoint surfaces as engine.ErrRoundLimit, never as a hang.
type gatherRelay struct {
	vg        *VirtualGraph
	machines  []relayMachine
	hosts     []GatherMachine // by virtual node
	sess      *engine.Session[relayMsg]
	maxRounds int
	// itc is the fault plan's interceptor (nil: the engine's plain
	// delivery loop).
	itc *adversary.Interceptor[relayMsg]
}

// newGatherRelay prepares a gather relay running inner on the plan's
// virtual graph, under the delivery-fault plan fault when it is not nil.
// It requires at least one valid gadget.
func newGatherRelay(eng *engine.Engine, g *graph.Graph, plan *paddedPlan, table *FactTable, inner lcl.Solver, fault *adversary.Plan) (*gatherRelay, error) {
	nv := plan.vg.NumVirtualNodes()
	if nv == 0 {
		return nil, fmt.Errorf("run relay: no valid gadgets")
	}
	machines, hosts := buildRelayMachines(g, plan, table, inner)
	typed := make([]engine.TypedMachine[relayMsg], len(machines))
	for v := range machines {
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(eng.Options(), g, typed)
	if err != nil {
		return nil, fmt.Errorf("run relay: %w", err)
	}
	ctl := machines[0].ctl
	ctl.plane.sess = sess
	// Dissemination needs at most ~2 super-rounds per virtual hop plus
	// one super-round of stabilization detection.
	r := &gatherRelay{vg: plan.vg, machines: machines, hosts: hosts, sess: sess,
		maxRounds: int(machines[0].superLen) * (2*nv + 8)}
	if fault != nil {
		r.itc = ctl.plane.faultInterceptor(fault)
		sess.SetInterceptor(r.itc)
		ctl.reflood = true
	}
	return r, nil
}

// run executes the relay session under seed.
func (r *gatherRelay) run(seed int64) (*RelayRun, error) {
	for vi := range r.hosts {
		r.hosts[vi].info.Seed = seed
	}
	if r.itc != nil {
		r.itc.Reset()
	}
	stats, err := r.sess.Run(seed, false, r.maxRounds)
	if err != nil {
		return nil, fmt.Errorf("run relay: %w", err)
	}
	nv := r.vg.NumVirtualNodes()
	run := &RelayRun{Out: lcl.NewLabeling(r.vg.H), Rounds: make([]int, nv), Stats: stats}
	for v := range r.machines {
		run.Words += r.machines[v].sent
	}
	for vi := range r.hosts {
		if r.hosts[vi].Inner == nil {
			return nil, fmt.Errorf("run relay: virtual node %d has no hosted machine", vi)
		}
		run.Rounds[vi] = r.hosts[vi].Rounds()
	}
	if run.Inner, err = finishComponents(r.vg, r.hosts, run.Out); err != nil {
		return nil, fmt.Errorf("run relay: %w", err)
	}
	return run, nil
}

func (r *gatherRelay) close() { r.sess.Close() }

// buildRelayMachines derives the per-physical-node relay configuration:
// port lists, knowledge buffers, the crossing interval from the node's
// own gadget's leader eccentricity (plan.compEcc), and the gather machine
// around inner hosted at each valid gadget's leader node. Port lists live
// in one flat slab and word buffers in the shared plane, the hosts in one
// slab by virtual node; their VirtualNodeInfo carries seed 0 until a run
// writes its seed.
func buildRelayMachines(g *graph.Graph, plan *paddedPlan, table *FactTable, inner lcl.Solver) ([]relayMachine, []GatherMachine) {
	vg := plan.vg
	superLen := superRoundLen(plan.dilation)
	n := g.NumNodes()
	words := table.Words()
	machines := make([]relayMachine, n)
	hosts := make([]GatherMachine, vg.NumVirtualNodes())
	ports := make([]int32, 0, g.NumPorts())
	ctl := &relayCtl{plane: relayPlane{words: make([]uint64, relayBufs*n*words)}, table: table}
	for v := graph.NodeID(0); int(v) < n; v++ {
		m := &machines[v]
		m.ctl = ctl
		m.superLen = superLen
		m.crossEvery = superLen
		m.w = int32(words)
		m.at = int32(relayBufs * int(v) * words)
		m.vi = -1
		if ci := vg.CompOf[v]; ci >= 0 && vg.Valid[ci] && vg.VirtOf[ci] >= 0 {
			vi := vg.VirtOf[ci]
			m.vi = int32(vi)
			if words == 1 {
				m.crossEvery = 1
			} else {
				m.crossEvery = int32(plan.compEcc[ci] + 1)
			}
			if vg.Comps[ci][0] == v {
				// The leader hosts the gadget's gather machine.
				hosts[vi] = GatherMachine{
					Inner: inner,
					info: VirtualNodeInfo{
						Node: vi, ID: vg.H.ID(vi), Degree: vg.H.Degree(vi),
						Table: table,
					},
				}
				m.host = &hosts[vi]
			}
		}
		ports, m.ports, m.nGad = classifyPorts(ports, g, plan.scope, vg, v)
	}
	return machines, hosts
}

// classifyPorts appends node v's ports to the slab — gadget-interior
// ports (scoped edges, flooded when the payload changed) first, then virtual ports
// (port edges carrying a virtual edge, crossed on the node's crossing
// schedule) — and returns the slab, the node's run of it (nil when
// empty) and the number of gadget-interior ports.
func classifyPorts(slab []int32, g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, v graph.NodeID) (rest, ports []int32, nGad int32) {

	start := len(slab)
	for p, h := range g.Halves(v) {
		if scope(h.Edge) {
			slab = append(slab, int32(p))
		}
	}
	nGad = int32(len(slab) - start)
	for p, h := range g.Halves(v) {
		if scope(h.Edge) {
			continue
		}
		if _, ok := vg.VEdgeOf[h.Edge]; ok {
			slab = append(slab, int32(p))
		}
	}
	if len(slab) > start {
		ports = slab[start:len(slab):len(slab)]
	}
	return slab, ports, nGad
}

// superRoundLen is the dilated super-round length d+1, floored at one
// physical round.
func superRoundLen(dilation int) int32 {
	if dilation < 0 {
		return 1
	}
	return int32(dilation + 1)
}
