package core

import (
	"fmt"
	"math/bits"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// The native relay plane: constant-bandwidth inner machines over the
// gadgets. Where the gather machines (vm.go) flood component-sized
// knowledge vectors until stabilization and then run a centralized
// decision function, a native machine executes the inner protocol's real
// rounds — one bounded word per incident virtual edge per round — so the
// payload a session moves is O(1) words per virtual edge per protocol
// round instead of O(|H|) words per physical edge per round of change.
// The sinkless message solver is the one inner with such a protocol
// (sinklessNative, chosen by runsNative); the plane hosts it directly.
//
// Transport is slot-routed rather than flooded. Each valid gadget keeps
// a table of 2·deg(vi) slots — OUT_p, the hosted machine's current
// outgoing word for virtual port p, and IN_p, the neighbor's latest word
// arriving at that port. Records travel only along precomputed routes: a
// BFS tree from the gadget's host node carries OUT_p down to the Port
// node realizing p, the Port node rewrites it across the port edge as
// the neighbor gadget's IN_p′, and the parent chain carries IN records
// back up to the host. A record is forwarded only when its slot's value
// changed (value semantics: a receiver holding the previous value is
// indistinguishable from one that just received an identical word), so
// quiescent protocol phases cost nothing. Records travel on the
// transport both relays share (relay.go): a record is two words of the
// session's relayPlane (receiving slot, value), written into the
// sender's lane for the port, and a message is a relayMsg view of the
// lane's records.
//
// Scheduling is global lockstep. The host runs protocol round k at
// physical round k·L + 1, where the session's super-round length
//
//	L = max over virtual edges (dist_A(host_A, port_A) + dist_B(host_B, port_B) + 1)
//
// is measured at plan time from the per-gadget host placements (host =
// the gadget node minimizing the maximum distance to its active ports).
// A word produced at round (k-1)·L + 1 reaches the far host strictly
// before round k·L + 1, so every machine observes exactly the messages
// of the one-hop-per-round execution on H and the whole session is
// byte-identical to running the protocol directly on H — for every
// worker/shard geometry.

// maxNativePorts bounds the virtual degree a native machine supports:
// slot routes and host word buffers are fixed-size arrays, and the
// changed slots a 16-bit mask, so the round loop stays allocation-free.
const maxNativePorts = 8

// maxNatSlots is the slot-table width: OUT and IN per virtual port. A
// message carries at most 2·maxNatSlots words.
const maxNatSlots = 2 * maxNativePorts

// runsNative reports whether the native relay can run inner on vg: the
// sinkless message solver, whose constant-bandwidth protocol
// sinklessNative hosts, on a virtual graph that fits the fixed-width slot
// tables and passes the solver's own solvability precheck (an unsolvable
// H must surface the message solver's error, which the gather fallback
// reproduces exactly). Callers fall back to gather machines otherwise.
func runsNative(inner lcl.Solver, vg *VirtualGraph) bool {
	return vg.H != nil && vg.H.MaxDegree() <= maxNativePorts &&
		inner.Name() == sinkless.MessageSolverName && sinkless.CheckSolvable(vg.H) == nil
}

// sinklessNative hosts the sinkless-orientation protocol in
// bounded-bandwidth normal form: one 64-bit word per incident virtual
// edge per round (8 payload bits used), against the gather machines'
// component-sized knowledge vectors. Neighbor identifiers never travel —
// they are reconstructed from the static topology — and the RNG stream
// is pinned to (seed, virtual identifier) exactly as the engine pins it
// for a direct run on H, so the state evolution is byte-identical to the
// message solver's. Unlike a GatherMachine, whose Finish decodes labels
// for its whole known component, its Finish writes only its own node's
// labels: the runner finishes every virtual node's machine.
type sinklessNative struct {
	info   VirtualNodeInfo
	rng    engine.NodeRNG
	proto  sinkless.Protocol
	nbrID  []int64
	recvW  []sinkless.Wire
	sendW  []sinkless.Wire
	calls  int
	rounds int
	done   bool
}

// Init resets the machine for virtual node info.Node.
func (m *sinklessNative) Init(info VirtualNodeInfo) {
	m.info = info
	m.proto.Init(info.ID, info.Degree, m.rng.Derive(info.Seed, info.ID))
	H := info.Table.vg.H
	// A held machine is re-initialized every run: its buffers are
	// reused, and Step overwrites every send word.
	if cap(m.nbrID) < info.Degree {
		m.nbrID = make([]int64, info.Degree)
		m.recvW = make([]sinkless.Wire, info.Degree)
		m.sendW = make([]sinkless.Wire, info.Degree)
	}
	m.nbrID = m.nbrID[:info.Degree]
	m.recvW, m.sendW = m.recvW[:info.Degree], m.sendW[:info.Degree]
	for p := 0; p < info.Degree; p++ {
		nbr, _ := H.NeighborAt(info.Node, int32(p))
		m.nbrID[p] = H.ID(nbr)
	}
	m.calls = 0
	m.rounds = 0
	m.done = false
}

// Round runs one protocol round: recv[p] is the word the neighbor across
// virtual port p sent last round (zero on the first call), send[p] this
// round's word for port p. It returns whether the protocol terminated.
func (m *sinklessNative) Round(recv, send []uint64) bool {
	m.calls++
	for p := range m.recvW {
		m.recvW[p] = sinkless.UnpackWire(recv[p], m.nbrID[p])
	}
	done := m.proto.Step(m.recvW, m.sendW)
	for p := range m.sendW {
		send[p] = sinkless.PackWire(m.sendW[p])
	}
	if done && !m.done {
		m.rounds = m.calls
	}
	m.done = done
	return done
}

// Rounds reports the protocol round at which the machine most recently
// terminated: its charged virtual-round locality.
func (m *sinklessNative) Rounds() int { return m.rounds }

// Finish transcribes the node's port orientations into half-edge labels
// of out (a labeling of H), exactly as the message solver labels a
// direct run on H.
func (m *sinklessNative) Finish(out *lcl.Labeling) error {
	H := m.info.Table.vg.H
	for p := 0; p < m.info.Degree; p++ {
		h := H.HalfAt(m.info.Node, int32(p))
		if m.proto.Out(p) {
			out.SetHalf(h, sinkless.LabelOut)
		} else {
			out.SetHalf(h, sinkless.LabelIn)
		}
	}
	return nil
}

// natLane locates one port slot's records in the relay plane: the half
// of even rounds starts at word at, the half of odd rounds follows it.
// Each half is width words, two per slot its node routes through the
// port (a record is the receiving slot, then the slot's word): a sender
// writes its round-r records into the half of r's parity, which its
// receivers read in round r+1 while it fills the other half.
type natLane struct {
	at, width int32
}

// natMachine is the per-physical-node transport of the native relay
// plane: a slot table plus a static route per slot. Host nodes
// additionally run the gadget's sinklessNative every L-th round. The node is
// an engine.Sleeper: after a round in which it forwarded no record it is
// quiet, and a non-host node sleeps until a neighbor forwards it one.
type natMachine struct {
	// host is the gadget's hosted protocol machine on the node hosting it,
	// nil everywhere else.
	host *natHost
	// plane is the session's relay plane; the node's lanes start at
	// port slot off.
	plane *relayPlane
	off   int32

	// nslots is 2·deg(vi) for nodes of a valid gadget, 0 elsewhere.
	nslots int32
	// route[s] is the outgoing physical port of slot s (-1: this node is
	// the slot's terminus or off its path); relabel[s] is the slot
	// identifier forwarded records carry — the neighbor gadget's IN slot
	// at port crossings, s itself everywhere else.
	route   [maxNatSlots]int8
	relabel [maxNatSlots]uint8

	// vals is the slot table, nslots words of the plane's slot slab;
	// bit s of fresh marks slot s as changed since it was last
	// forwarded.
	vals  []uint64
	fresh uint16

	// L is the lockstep super-round length.
	L int32
	// sent counts payload words handed to the transport (one per
	// record), the native plane's bandwidth tally; idle marks a last
	// round that forwarded none.
	sent int64
	idle bool
}

// natHost is a hosted protocol machine with its word buffers. Only the
// few host nodes carry one, which keeps the per-node transport state
// small.
type natHost struct {
	pm           sinklessNative
	info         VirtualNodeInfo
	recvW, sendW []uint64 // views of words, info.Degree wide
	words        [2 * maxNativePorts]uint64
}

var (
	_ engine.TypedMachine[relayMsg] = (*natMachine)(nil)
	_ engine.Sleeper                = (*natMachine)(nil)
)

func (m *natMachine) Init(engine.NodeInfo) {
	m.sent = 0
	m.idle = true
	clear(m.vals)
	m.fresh = 0
	if h := m.host; h != nil {
		h.pm.Init(h.info)
	}
}

func (m *natMachine) Round(recv, send []relayMsg) bool {
	pl := m.plane
	round := pl.round()
	// Merge incoming records. A record only arrives when its value
	// differs from what this node holds (senders forward on change), but
	// the guard keeps re-deliveries idempotent. Records are validated
	// before use: a malformed count is clamped to the slot-table width, a
	// view reaching outside the plane reads as silence, and a slot
	// outside this node's table is dropped — legitimate transport never
	// produces any of these (a message names its sender's lane, relabel
	// always targets a live slot of the receiver), so the checks only
	// matter under fault injection, where corrupt deliveries must
	// degrade, never panic (FuzzNativeSlotRewrite pins this).
	if round > 1 {
		for _, in := range recv {
			in.n = min(in.n, 2*maxNatSlots)
			rec := pl.view(in)
			for i := 1; i < len(rec); i += 2 {
				slot, val := rec[i-1], rec[i]
				if slot >= uint64(m.nslots) {
					continue
				}
				if m.vals[slot] != val {
					m.vals[slot] = val
					m.fresh |= 1 << slot
				}
			}
		}
	}
	// Hosts run one protocol round per super-round: by round k·L+1 every
	// IN slot holds the neighbor's round-(k-1) word.
	if h := m.host; h != nil && (round-1)%m.L == 0 {
		for p := range h.recvW {
			h.recvW[p] = m.vals[2*p+1]
		}
		h.pm.Round(h.recvW, h.sendW)
		for p := range h.sendW {
			s := 2 * p
			if m.vals[s] != h.sendW[p] {
				m.vals[s] = h.sendW[p]
				m.fresh |= 1 << s
			}
		}
	}
	// Forward changed slots along their routes.
	for p := range send {
		send[p] = relayMsg{}
	}
	half := round & 1
	sent := m.sent
	for f := m.fresh; f != 0; f &= f - 1 {
		s := bits.TrailingZeros16(f)
		r := m.route[s]
		if r < 0 {
			continue
		}
		out := &send[r]
		if out.n == 0 {
			ln := pl.lanes[m.off+int32(r)]
			out.at = ln.at + half*ln.width
		}
		at := out.at + out.n
		pl.words[at], pl.words[at+1] = uint64(m.relabel[s]), m.vals[s]
		out.n += 2
		m.sent++
	}
	m.fresh = 0
	m.idle = m.sent == sent
	if m.host == nil {
		return true
	}
	return m.host.pm.done
}

// Quiet implements engine.Sleeper: a node that forwarded no record wrote
// only empty messages.
func (m *natMachine) Quiet() bool { return m.idle }

// Asleep implements engine.Sleeper. A quiet non-host node (a fresh one
// too) holds no fresh slot; with only empty messages arriving it would
// merge nothing and forward nothing, and it is always done. Hosts stay
// awake, quiet between the super-round boundaries their protocol runs on.
func (m *natMachine) Asleep() (bool, int) { return m.host == nil && m.idle, 0 }

// nativeRelay is a prepared native relay: the per-node transport
// machines, the hosted protocol machines, and the engine session that
// executes them. Only the seed changes between runs, and it reaches the
// protocol machines through the hosts' VirtualNodeInfo. A run executes the
// inner algorithm as native constant-bandwidth machines over the
// slot-routed relay plane: its labeling is byte-identical to running
// the inner protocol directly on H (and therefore to the sequential
// oracle), while the session moves only changed per-port words instead
// of knowledge vectors.
type nativeRelay struct {
	vg        *VirtualGraph
	machines  []natMachine
	hosts     []natHost // by virtual node
	sess      *engine.Session[relayMsg]
	maxRounds int
}

func newNativeRelay(eng *engine.Engine, g *graph.Graph, plan *paddedPlan, table *FactTable) (*nativeRelay, error) {
	if plan.vg.NumVirtualNodes() == 0 {
		return nil, fmt.Errorf("run native relay: no valid gadgets")
	}
	machines, hosts, superLen, err := buildNativeMachines(g, plan, table)
	if err != nil {
		return nil, fmt.Errorf("run native relay: %w", err)
	}
	typed := make([]engine.TypedMachine[relayMsg], len(machines))
	for v := range machines {
		typed[v] = &machines[v]
	}
	sess, err := engine.NewSession(eng.Options(), g, typed)
	if err != nil {
		return nil, fmt.Errorf("run native relay: %w", err)
	}
	machines[0].plane.sess = sess
	return &nativeRelay{
		vg: plan.vg, machines: machines, hosts: hosts, sess: sess,
		// The hosted protocol keeps the message solver's round cap; the
		// physical cap is L times it.
		maxRounds: int(superLen)*sinkless.MessageMaxRounds + 1,
	}, nil
}

// run executes the native session under seed.
func (r *nativeRelay) run(seed int64) (*RelayRun, error) {
	for vi := range r.hosts {
		r.hosts[vi].info.Seed = seed
	}
	stats, err := r.sess.Run(seed, false, r.maxRounds)
	if err != nil {
		return nil, fmt.Errorf("run native relay: %w", err)
	}
	nv := r.vg.NumVirtualNodes()
	run := &RelayRun{Out: lcl.NewLabeling(r.vg.H), Rounds: make([]int, nv), Stats: stats}
	for v := range r.machines {
		run.Words += r.machines[v].sent
	}
	// Every machine decodes its own node: no component decomposition to
	// share, unlike the gather machines' full-knowledge Finish.
	for vi := 0; vi < nv; vi++ {
		pm := &r.hosts[vi].pm
		if r.hosts[vi].info.Table == nil {
			return nil, fmt.Errorf("run native relay: virtual node %d has no hosted machine", vi)
		}
		run.Rounds[vi] = pm.Rounds()
		if err := pm.Finish(run.Out); err != nil {
			return nil, fmt.Errorf("run native relay: %w", err)
		}
	}
	return run, nil
}

func (r *nativeRelay) close() { r.sess.Close() }

// buildNativeMachines derives the per-physical-node transport plan: host
// placement, slot routes, the crossing relabels, and the lockstep
// super-round length L measured from the realized host-to-port
// distances. The hosted machines live in one slab indexed by virtual
// node; their VirtualNodeInfo carries seed 0 until a run writes its
// seed.
func buildNativeMachines(g *graph.Graph, plan *paddedPlan, table *FactTable) ([]natMachine, []natHost, int32, error) {
	vg := plan.vg
	n := g.NumNodes()
	machines := make([]natMachine, n)
	hosts := make([]natHost, vg.NumVirtualNodes())

	// Invert the port-edge map: virtual edge -> physical port edge.
	peOf := make(map[graph.EdgeID]graph.EdgeID, len(vg.VEdgeOf))
	for pe, ne := range vg.VEdgeOf {
		peOf[ne] = pe
	}

	// hostDist[vi][p] is the realized distance from vi's host to the Port
	// node carrying virtual port p; hostOf[vi] is the host node.
	hostDist := make([][]int32, vg.NumVirtualNodes())
	hostOf := make([]graph.NodeID, vg.NumVirtualNodes())

	bfs := newScopedBFS(g, plan.scope)
	var ecc []int32 // per component node, its maximum distance to a Port node
	for ci, nodes := range vg.Comps {
		if !vg.Valid[ci] || vg.VirtOf[ci] < 0 {
			continue
		}
		vi := vg.VirtOf[ci]
		dv := vg.H.Degree(vi)
		if dv > maxNativePorts {
			return nil, nil, 0, fmt.Errorf("virtual degree %d exceeds native port limit %d", dv, maxNativePorts)
		}

		// Resolve each virtual port to its physical Port node, the
		// physical port crossing the port edge, and the neighbor
		// gadget's virtual port on the other side.
		portNode := make([]graph.NodeID, dv)
		crossPort := make([]int32, dv)
		farPort := make([]int32, dv)
		for p := 0; p < dv; p++ {
			h := vg.H.Halves(vi)[p]
			pe, ok := peOf[h.Edge]
			if !ok {
				return nil, nil, 0, fmt.Errorf("virtual edge %d has no physical port edge", h.Edge)
			}
			end := g.Edge(pe).At(h.Side)
			portNode[p] = end.Node
			crossPort[p] = end.Port
			opp := vg.H.OppositeHalf(h)
			farPort[p] = vg.H.HalfPort(opp)
		}

		// Host placement: the gadget node minimizing the maximum distance
		// to its active Port nodes (ties: lowest node index, which is
		// deterministic because Comps lists nodes in BFS order from the
		// lowest index).
		ecc = ecc[:0]
		for range nodes {
			ecc = append(ecc, 0)
		}
		for p := 0; p < dv; p++ {
			bfs.run(portNode[p])
			for i, v := range nodes {
				ecc[i] = max(ecc[i], bfs.dist[v])
			}
		}
		host := nodes[0]
		bestEcc := int32(-1)
		for i, v := range nodes {
			if bestEcc < 0 || ecc[i] < bestEcc || (ecc[i] == bestEcc && v < host) {
				host, bestEcc = v, ecc[i]
			}
		}
		hostOf[vi] = host

		// Slot routes. The BFS parent tree from the host carries OUT
		// slots down to the Port nodes and IN slots back up; the Port
		// node rewrites OUT_p across the port edge as the far side's
		// IN slot.
		bfs.run(host)
		parent, parentPort, childPort := bfs.parent, bfs.parentPort, bfs.childPort
		// Distances are symmetric: the tree search from the host also
		// yields its distance to every Port node.
		hd := make([]int32, dv)
		for p := 0; p < dv; p++ {
			hd[p] = max(bfs.dist[portNode[p]], 0)
		}
		hostDist[vi] = hd
		for _, v := range nodes {
			m := &machines[v]
			m.nslots = int32(2 * dv)
			for s := 0; s < 2*dv; s++ {
				m.route[s] = -1
				m.relabel[s] = uint8(s)
			}
		}
		for p := 0; p < dv; p++ {
			out, in := uint8(2*p), uint8(2*p+1)
			pn := portNode[p]
			machines[pn].route[out] = int8(crossPort[p])
			machines[pn].relabel[out] = uint8(2*farPort[p] + 1)
			for v := pn; v != host; v = parent[v] {
				machines[v].route[in] = int8(parentPort[v])
				if parent[v] != host {
					machines[parent[v]].route[out] = int8(childPort[v])
				} else if pn != host {
					machines[host].route[out] = int8(childPort[v])
				}
			}
		}

		// The host runs the gadget's machine.
		hm := &hosts[vi]
		*hm = natHost{
			info: VirtualNodeInfo{
				Node: vi, ID: vg.H.ID(vi), Degree: dv,
				Table: table,
			},
		}
		hm.recvW, hm.sendW = hm.words[:dv:dv], hm.words[maxNativePorts:maxNativePorts+dv:maxNativePorts+dv]
		machines[host].host = hm
	}

	// Lockstep length: a word produced at one boundary must cross its
	// port edge and climb to the far host before the next.
	superLen := int32(1)
	for vi := 0; vi < vg.NumVirtualNodes(); vi++ {
		for p, h := range vg.H.Halves(graph.NodeID(vi)) {
			opp := vg.H.OppositeHalf(h)
			far := vg.H.HalfNode(opp)
			lat := hostDist[vi][p] + hostDist[far][vg.H.HalfPort(opp)] + 1
			if lat > superLen {
				superLen = lat
			}
		}
	}
	for _, host := range hostOf {
		machines[host].L = superLen
	}
	attachNativePlane(g, machines)
	return machines, hosts, superLen, nil
}

// attachNativePlane sizes every port slot's lane to the records its node
// routes through that port, hands the machines the shared plane, and
// carves their slot tables from one slab.
func attachNativePlane(g *graph.Graph, machines []natMachine) {
	off := g.PortOffsets()
	plane := &relayPlane{lanes: make([]natLane, g.NumPorts())}
	slots := 0
	for v := range machines {
		slots += int(machines[v].nslots)
	}
	vals := make([]uint64, slots)
	for v := range machines {
		m := &machines[v]
		m.plane, m.off = plane, off[v]
		if m.nslots > 0 {
			m.vals, vals = vals[:m.nslots:m.nslots], vals[m.nslots:]
		}
		for s := int32(0); s < m.nslots; s++ {
			if r := m.route[s]; r >= 0 {
				plane.lanes[m.off+int32(r)].width += 2
			}
		}
	}
	total := int32(0)
	for i := range plane.lanes {
		plane.lanes[i].at = total
		total += 2 * plane.lanes[i].width
	}
	plane.words = make([]uint64, total)
}
