package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"locallab/internal/graph"
)

// TypedMachine is the per-node program of a synchronous message-passing
// algorithm whose messages are concrete values of type M.
//
// Round consumes the messages received on each port (recv[p] is the
// message from port p's neighbor) and writes the messages to send into
// the engine-owned send buffer (send[p] is the message for port p's
// neighbor), returning whether this node has terminated with its final
// state. Both slices have length Degree and alias the engine's flat
// message planes, so no per-round allocation happens on either side.
//
// Contract:
//
//   - Every port carries a value of M every round (a Sleeper's silence,
//     the zero value, too). Machines must write every send slot on every
//     call — the buffers are reused across rounds, so an unwritten slot
//     would deliver the previous round's message.
//   - In the first Round call no messages have arrived yet and recv
//     holds zero values of M; machines must track the round number
//     instead of probing recv for presence.
//   - recv and send contents are only valid during the call; machines
//     that need a received value later must copy it into their state.
//   - A machine that also implements Sleeper may be skipped in rounds
//     where calling it would change nothing (see Sleeper). A session of
//     sleepers calls a machine only in rounds where it or a neighbor is
//     awake, so such a machine must read the round number from the
//     session (Session.Rounds) rather than count its own calls, and
//     Step on a terminated system calls only the machines still awake.
type TypedMachine[M any] interface {
	// Init resets the machine with the node's initial knowledge.
	Init(info NodeInfo)
	// Round consumes recv and fills send, returning done.
	Round(recv []M, send []M) (done bool)
}

// Sleeper is the optional sleep/wake contract of a TypedMachine. Silence
// is the zero value of M; after each Round the session asks the machine
// what its neighbors and it need next round.
//
//   - Quiet reports that the Round just made wrote only silent sends:
//     the machine's neighbors need not run on its account.
//   - Asleep may report true only right after Init, or right after a
//     Round that was Quiet. It promises that a later Round whose inputs
//     are all silent would write only silent sends and change nothing
//     (the machine's state), so the machine itself need not run until a
//     neighbor sends it something. Its doneAt is the first round from
//     which such a Round returns done: a machine that is already done
//     reports a past round, and one that keeps its stop rule on a clock
//     (Session.Rounds) may sleep before it is done. A machine's doneAt
//     must never decrease within a run, and a Round that returns done in
//     round r implies that every doneAt it reports is at most r.
//
// When every machine of a session implements Sleeper and no Interceptor
// is installed at Reset, the session runs a sparse schedule: a round
// computes only the machines awake after the previous round (after Init,
// for round 1) and the neighbors of those that were not Quiet, and
// gathers only those machines' port slots. Each shard keeps the largest
// doneAt its machines reported since Reset, and the run ends in the first
// round in which every computed machine returned done and the round has
// reached every shard's doneAt. A skipped machine is asleep and all its
// inputs are silent, so skipping it is exact: outputs, Stats.Rounds and
// Stats.Deliveries (which still counts every port slot of every delivered
// round) equal the dense loop's and RunReference's for every
// Workers/Shards geometry. An out-of-date doneAt is never larger than the
// machine's current one, so the running maximum never delays the end.
// Sessions with an interceptor, or with any machine that does not
// implement Sleeper, keep the dense loop.
type Sleeper interface {
	// Quiet reports whether the last Round wrote only silent sends.
	Quiet() bool
	// Asleep reports whether the machine may skip rounds until a
	// neighbor sends it something, and from which round on a Round with
	// silent inputs returns done.
	Asleep() (asleep bool, doneAt int)
}

// Interceptor is the typed plane's delivery-fault hook: when installed
// on a Session it sees every message in flight during the delivery
// phase and may replace it — the mechanism the adversarial
// fault-injection plane (internal/adversary) uses to realize crash,
// drop, duplication, corruption, and Byzantine faults without touching
// machine code.
//
// Contract:
//
//   - BeginRound(round) is called once by the coordinator, before the
//     delivery phase of the given round (Session.Rounds() numbering),
//     strictly between phase barriers — never concurrently with Deliver.
//   - Deliver(slot, m) is called for every receiver port slot of every
//     delivery phase, where m is the message the sender wrote for that
//     slot; the returned value is what the receiver observes. Slots are
//     partitioned across shards, so Deliver may run concurrently for
//     different slots but never twice for the same slot in one phase.
//     For deterministic executions the result must depend only on
//     (round, slot, m) and per-slot state — never on worker, shard, or
//     call order — which keeps outputs byte-identical across every
//     Workers/Shards geometry, interceptor installed or not.
//   - A nil interceptor is the fast path: the delivery gather loop is
//     the same straight pass as before the hook existed, and the
//     steady-state round loop stays at 0 allocs/op (pinned by the
//     AllocsPerRun tests).
type Interceptor[M any] interface {
	// BeginRound announces the round whose delivery phase follows.
	BeginRound(round int)
	// Deliver maps the message in flight on receiver slot p.
	Deliver(p int32, m M) M
}

// Execution phases of the round loop. phaseWarmup is a no-op barrier
// round-trip: a pooled session dispatches it once from NewSession so
// every worker and the coordinator park at least once there, allocating
// the runtime's lazy park state (sudogs, semaphores) before the first
// real round.
const (
	phaseInit = iota
	phaseCompute
	phaseDeliver
	phaseWarmup
)

// paddedBool keeps per-shard flags on separate cache lines so concurrent
// shard completions do not false-share.
type paddedBool struct {
	v bool
	_ [63]byte
}

// paddedCount keeps per-shard counters on separate cache lines for the
// same reason.
type paddedCount struct {
	v int64
	_ [56]byte
}

// nodeSched is one node's sparse-schedule entry: the last round whose
// wake step listed it, and its shard.
type nodeSched struct {
	stamp, shard int32
}

// sleepShard is one shard's sparse schedule: woken lists the nodes the
// next compute phase runs, loud the nodes the last one left awake (see
// computeSparse), and doneAt is the largest doneAt its sleeping machines
// reported since Reset. Both lists are carved from session slabs with
// capacity for the whole shard, so appends never reallocate; the padding
// keeps concurrent shards' entries off each other's cache lines.
type sleepShard struct {
	woken, loud []int32
	doneAt      int
	_           [8]byte
}

// RunStats executes machines on g under opts until every machine
// reports done or maxRounds is exceeded, returning the execution profile.
// It is the one-shot convenience wrapper over NewSession for callers that
// execute a graph once; repeated executions should hold a Session to
// reuse its buffers.
func RunStats[M any](opts Options, g *graph.Graph, machines []TypedMachine[M], masterSeed int64, randomized bool, maxRounds int) (Stats, error) {
	s, err := NewSession(opts, g, machines)
	if err != nil {
		return Stats{}, err
	}
	defer s.Close()
	return s.Run(masterSeed, randomized, maxRounds)
}

// Session is a prepared execution of one machine set on one graph: the
// flat message planes, the shard table, and (in pooled mode) the worker
// goroutines, all allocated exactly once and reused across rounds and
// across Runs. The steady-state round loop — Step, and therefore the
// loop inside Run — performs no allocations at all, on either the engine
// or (for well-behaved typed machines) the machine side.
//
// A Session is not safe for concurrent use. Close releases the worker
// pool; an inline Session needs no Close, but calling it is always safe.
type Session[M any] struct {
	g        *graph.Graph
	machines []TypedMachine[M]
	n        int
	delta    int

	// off and route are views of the graph's CSR topology: off delimits
	// each node's contiguous port-slot run, route maps every slot to the
	// sender slot it gathers from. Both are owned by the graph and shared
	// across every Session on it.
	off   []int32
	route []int32

	// recv and send are the typed message plane: two flat []M buffers in
	// port-slot space. Compute reads recv and writes send; delivery
	// gathers send back into recv through the route table. No swap is
	// needed because the two phases alternate directions.
	recv []M
	send []M

	workers int
	shards  int
	inline  bool // one effective worker: run phases inline, no pool

	shardLo        []int32 // shardLo[s]..shardLo[s+1] is shard s's node range
	shardDone      []paddedBool
	shardDelivered []paddedCount

	seed       int64
	randomized bool
	// rngs is the per-node random-source slab, allocated by the first
	// randomized Reset and reseeded in place by every later one.
	rngs   []NodeRNG
	phase  int
	rounds int

	// itc, when non-nil, observes and may rewrite every delivered
	// message (see Interceptor). The nil check happens once per shard,
	// outside the gather loop, so the nil case costs nothing.
	itc Interceptor[M]

	// The sparse schedule (see Sleeper). sleepers, sleep and sched are
	// allocated by NewSession only when every machine is a Sleeper;
	// sleepers holds each machine as its Sleeper, so the schedule asserts
	// no interface per node. sparse is chosen at Reset: it holds when
	// they are and no interceptor is installed.
	sparse   bool
	sleepers []Sleeper
	sleep    []sleepShard
	sched    []nodeSched

	// jobs feeds the worker pool; nil on an inline session.
	jobs   chan int
	wg     sync.WaitGroup
	closed bool
}

// NewSession validates the machine set against the graph and allocates
// the per-execution state under opts. The session runs inline (no worker
// pool) exactly when the effective worker count, after clamping to the
// shard count, is 1; the semantics are identical either way, and
// RunReference is the independent differential-testing oracle for both
// modes.
func NewSession[M any](opts Options, g *graph.Graph, machines []TypedMachine[M]) (*Session[M], error) {
	n := g.NumNodes()
	if len(machines) != n {
		return nil, fmt.Errorf("engine: %d machines for %d nodes", len(machines), n)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 4 * workers
	}
	if shards > n {
		shards = n
	}
	if workers > shards {
		workers = shards
	}
	// A single effective worker gains nothing from a pool: every phase
	// runs inline on the calling goroutine, shard by shard.
	inline := workers <= 1
	total := g.NumPorts()
	s := &Session[M]{
		g:              g,
		machines:       machines,
		n:              n,
		delta:          g.MaxDegree(),
		off:            g.PortOffsets(),
		route:          g.RouteTable(),
		recv:           make([]M, total),
		send:           make([]M, total),
		workers:        workers,
		shards:         shards,
		inline:         inline,
		shardLo:        make([]int32, shards+1),
		shardDone:      make([]paddedBool, shards),
		shardDelivered: make([]paddedCount, shards),
	}
	// Contiguous shard boundaries; the first n%shards shards take one
	// extra node.
	base, rem := n/shards, n%shards
	for i := 0; i < shards; i++ {
		size := base
		if i < rem {
			size++
		}
		s.shardLo[i+1] = s.shardLo[i] + int32(size)
	}
	s.initSleep()
	if !inline {
		// A pooled session starts its workers here and makes one no-op
		// barrier round-trip: it parks every worker and the coordinator
		// once, so even the runtime's lazily allocated park state exists
		// before the first real round. The first Reset+Step window then
		// allocates exactly as little as the steady state (pinned by
		// TestPoolWarmsAtNewSession).
		s.jobs = make(chan int, shards)
		for w := 0; w < workers; w++ {
			go func() {
				for i := range s.jobs {
					s.runShard(i)
					s.wg.Done()
				}
			}()
		}
		s.dispatch(phaseWarmup)
	}
	return s, nil
}

// initSleep allocates the sparse schedule when every machine opts in.
func (s *Session[M]) initSleep() {
	for _, m := range s.machines {
		if _, ok := m.(Sleeper); !ok {
			return
		}
	}
	s.sleepers = make([]Sleeper, s.n)
	for v, m := range s.machines {
		s.sleepers[v] = m.(Sleeper)
	}
	s.sleep = make([]sleepShard, s.shards)
	s.sched = make([]nodeSched, s.n)
	woken, loud := make([]int32, s.n), make([]int32, s.n)
	for i := range s.sleep {
		lo, hi := s.shardLo[i], s.shardLo[i+1]
		s.sleep[i] = sleepShard{woken: woken[lo:lo:hi], loud: loud[lo:lo:hi]}
		for v := lo; v < hi; v++ {
			s.sched[v].shard = int32(i)
		}
	}
}

// Close shuts down the worker pool. The Session must not be used after.
func (s *Session[M]) Close() {
	if s.jobs != nil && !s.closed {
		close(s.jobs)
	}
	s.closed = true
}

// dispatch runs one phase across all shards: inline for a single
// effective worker, through the persistent pool otherwise. The channel
// send orders the phase write before the workers' read, and wg.Wait
// orders every worker write before the coordinator's next read, so the
// round loop is barrier-clean.
func (s *Session[M]) dispatch(phase int) {
	s.phase = phase
	if s.inline {
		for i := 0; i < s.shards; i++ {
			s.runShard(i)
		}
		return
	}
	s.wg.Add(s.shards)
	for i := 0; i < s.shards; i++ {
		s.jobs <- i
	}
	s.wg.Wait()
}

func (s *Session[M]) runShard(i int) {
	switch s.phase {
	case phaseInit:
		s.initShard(i)
	case phaseCompute:
		if s.sparse {
			s.computeSparse(i)
		} else {
			s.computeShard(i)
		}
	case phaseDeliver:
		if s.sparse {
			s.deliverSparse(i)
		} else {
			s.deliverShard(i)
		}
	}
}

func (s *Session[M]) initShard(i int) {
	for v := s.shardLo[i]; v < s.shardLo[i+1]; v++ {
		id := s.g.ID(graph.NodeID(v))
		var rng *rand.Rand
		if s.randomized {
			rng = s.rngs[v].Derive(s.seed, id)
		}
		s.machines[v].Init(NodeInfo{
			N:      s.n,
			Delta:  s.delta,
			ID:     id,
			Degree: s.g.Degree(graph.NodeID(v)),
			RNG:    rng,
		})
	}
	if s.sparse {
		// Round 1's inputs are all silent: it computes exactly the
		// machines awake after Init.
		sh := &s.sleep[i]
		sh.woken, sh.doneAt = sh.woken[:0], 0
		for v := s.shardLo[i]; v < s.shardLo[i+1]; v++ {
			s.sched[v].stamp = 0
			if asleep, at := s.sleepers[v].Asleep(); asleep {
				sh.doneAt = max(sh.doneAt, at)
			} else {
				sh.woken = append(sh.woken, v)
			}
		}
	}
}

func (s *Session[M]) computeShard(i int) {
	allDone := true
	for v := s.shardLo[i]; v < s.shardLo[i+1]; v++ {
		o0, o1 := s.off[v], s.off[v+1]
		if !s.machines[v].Round(s.recv[o0:o1:o1], s.send[o0:o1:o1]) {
			allDone = false
		}
	}
	s.shardDone[i].v = allDone
}

// computeSparse runs the shard's woken machines and lists those still
// awake afterwards in loud: v for a machine that may have sent something,
// ^v for a Quiet one, which alone needs calling next round. A machine
// that falls asleep is skipped until a neighbor sends it something; its
// doneAt joins the shard's running maximum, which stands in for its done
// in the rounds it skips.
func (s *Session[M]) computeSparse(i int) {
	sh := &s.sleep[i]
	allDone := true
	loud, doneAt := sh.loud[:0], sh.doneAt
	for _, v := range sh.woken {
		o0, o1 := s.off[v], s.off[v+1]
		if !s.machines[v].Round(s.recv[o0:o1:o1], s.send[o0:o1:o1]) {
			allDone = false
		}
		sl := s.sleepers[v]
		if asleep, at := sl.Asleep(); asleep {
			doneAt = max(doneAt, at)
		} else if sl.Quiet() {
			loud = append(loud, ^v)
		} else {
			loud = append(loud, v)
		}
	}
	sh.loud, sh.doneAt = loud, doneAt
	s.shardDone[i].v = allDone
}

// wake builds the next round's woken lists between the compute and
// delivery phases: every awake node, and every neighbor of one that is
// not Quiet. It runs on the coordinator; the work is proportional to the
// awake nodes' degrees, not to the graph.
func (s *Session[M]) wake() {
	for i := range s.sleep {
		s.sleep[i].woken = s.sleep[i].woken[:0]
	}
	stamp := int32(s.rounds)
	for i := range s.sleep {
		for _, u := range s.sleep[i].loud {
			if u < 0 {
				s.wakeNode(^u, stamp)
				continue
			}
			s.wakeNode(u, stamp)
			for p := int32(0); p < s.off[u+1]-s.off[u]; p++ {
				w, _ := s.g.NeighborAt(graph.NodeID(u), p)
				s.wakeNode(int32(w), stamp)
			}
		}
	}
}

func (s *Session[M]) wakeNode(v, stamp int32) {
	if ns := &s.sched[v]; ns.stamp != stamp {
		ns.stamp = stamp
		sh := &s.sleep[ns.shard]
		sh.woken = append(sh.woken, v)
	}
}

// deliverSparse gathers only the woken nodes' slots. Every other slot's
// sender is asleep, so the dense gather would deliver silence there, and
// a node is always gathered before it next computes. The delivery count
// is the dense one: silence is a message of the model.
func (s *Session[M]) deliverSparse(i int) {
	recv, send, route := s.recv, s.send, s.route
	for _, v := range s.sleep[i].woken {
		for p := s.off[v]; p < s.off[v+1]; p++ {
			recv[p] = send[route[p]]
		}
	}
	s.shardDelivered[i].v += int64(s.off[s.shardLo[i+1]] - s.off[s.shardLo[i]])
}

// deliverShard gathers messages receiver-side: every port slot of the
// shard's nodes pulls from its sender's slot in the send plane. The
// route table is a permutation of the slot space, slots are contiguous
// per shard, and no two shards share a slot, so the gather is a straight
// pass over contiguous memory with no contention and no clearing pass.
func (s *Session[M]) deliverShard(i int) {
	lo := s.off[s.shardLo[i]]
	hi := s.off[s.shardLo[i+1]]
	recv, send, route := s.recv, s.send, s.route
	if itc := s.itc; itc != nil {
		// Fault-injection path: every in-flight message passes through
		// the interceptor. It rewrites contents, never which slots are
		// delivered, so the delivery count is the same either way.
		for p := lo; p < hi; p++ {
			recv[p] = itc.Deliver(p, send[route[p]])
		}
	} else {
		for p := lo; p < hi; p++ {
			recv[p] = send[route[p]]
		}
	}
	s.shardDelivered[i].v += int64(hi - lo)
}

// SetInterceptor installs (or, with nil, removes) the delivery
// interceptor. It must not be called while a Step or Run is executing;
// the usual pattern is SetInterceptor then Reset. Installing an
// interceptor never changes which slots are delivered, only their
// contents — and a nil interceptor restores the original zero-overhead
// gather loop. A session of Sleepers chooses its schedule at Reset, so
// on such a session an interceptor installed after Reset makes the next
// Step panic rather than let it miss the slots of sleeping nodes.
func (s *Session[M]) SetInterceptor(itc Interceptor[M]) { s.itc = itc }

// Reset re-initializes every machine under the given seed and clears the
// message plane and counters, leaving the Session at round zero. It is
// the explicit-stepping counterpart of the setup Run performs.
func (s *Session[M]) Reset(masterSeed int64, randomized bool) {
	s.seed = masterSeed
	s.randomized = randomized
	if randomized && s.rngs == nil {
		s.rngs = make([]NodeRNG, s.n)
	}
	s.rounds = 0
	clear(s.recv)
	clear(s.send)
	for i := range s.shardDelivered {
		s.shardDelivered[i].v = 0
	}
	s.sparse = s.sleep != nil && s.itc == nil
	s.dispatch(phaseInit)
}

// Step executes one synchronous round: a compute phase and — unless
// every machine reported done — a delivery phase. It returns whether the
// execution has terminated. Stepping a terminated system is legal and
// keeps invoking the machines (on a sparse session, only those still
// awake), but note it skips delivery exactly like Run's final round;
// allocation measurements that want the full compute+deliver loop must
// keep at least one machine reporting not done (see the pinned*
// wrappers in the coloring and sinkless alloc tests).
func (s *Session[M]) Step() (done bool) {
	if s.sparse && s.itc != nil {
		panic("engine: interceptor installed after Reset on a session of sleepers; install it before Reset")
	}
	s.rounds++
	s.dispatch(phaseCompute)
	for i := range s.shardDone {
		if !s.shardDone[i].v || s.sparse && s.rounds < s.sleep[i].doneAt {
			if s.itc != nil {
				s.itc.BeginRound(s.rounds)
			}
			if s.sparse {
				s.wake()
			}
			s.dispatch(phaseDeliver)
			return false
		}
	}
	if s.sparse {
		// No delivery follows, so the awake machines' inputs stand: a
		// further Step computes exactly them.
		for i := range s.sleep {
			sh := &s.sleep[i]
			for k, u := range sh.loud {
				if u < 0 {
					sh.loud[k] = ^u
				}
			}
			sh.woken, sh.loud = sh.loud, sh.woken
		}
	}
	return true
}

// Rounds returns the number of rounds executed since the last Reset.
func (s *Session[M]) Rounds() int { return s.rounds }

// Deliveries returns the messages delivered since the last Reset.
func (s *Session[M]) Deliveries() int64 {
	var total int64
	for i := range s.shardDelivered {
		total += s.shardDelivered[i].v
	}
	return total
}

// Run executes a full synchronous execution: Reset, then rounds until
// every machine reports done or maxRounds is exceeded. The returned
// Stats profile is deterministic for a given (graph, machines, seed) —
// identical across every Workers/Shards setting and across the pooled
// and inline modes. On ErrRoundLimit the Stats still describe the
// partial execution.
func (s *Session[M]) Run(masterSeed int64, randomized bool, maxRounds int) (Stats, error) {
	s.Reset(masterSeed, randomized)
	var stats Stats
	for round := 1; round <= maxRounds; round++ {
		if s.Step() {
			stats.Rounds = round
			stats.Deliveries = s.Deliveries()
			return stats, nil
		}
	}
	stats.Rounds = maxRounds
	stats.Deliveries = s.Deliveries()
	return stats, ErrRoundLimit
}
