// Package engine is the execution core of the LOCAL-model simulator: a
// sharded worker-pool runtime for synchronous message-passing algorithms.
//
// The model semantics are exactly those of Section 2 of the paper:
// computation proceeds in rounds; in each round every node consumes the
// messages that arrived on its ports, emits one message per port, and the
// messages cross their edges before the next round starts. The engine
// changes only the mechanics, not the semantics:
//
//   - Per-node programs are TypedMachine[M] values exchanging concrete
//     messages of type M; a Session holds one prepared execution of them
//     under the configuration in Options, and Session.Run returns its
//     Stats (core.go).
//   - Nodes are partitioned into contiguous shards. A fixed pool of worker
//     goroutines (Options.Workers, default GOMAXPROCS) executes each round
//     shard by shard instead of spawning one goroutine per node per round.
//     When the effective worker count is 1 the session runs every phase
//     inline on the calling goroutine and starts no pool at all; otherwise
//     NewSession starts and warms the pool, so the first round allocates
//     as little as the steady state.
//   - Messages live in two flat per-port []M planes over the graph's CSR
//     topology (PortOffsets plus the RouteTable slot permutation). The
//     compute phase reads one and writes the other; the delivery phase
//     gathers back through the route table (receiver-side delivery, so
//     writes never contend).
//   - All buffers are allocated once per Session and reused every round,
//     so the steady-state round loop performs no engine-side allocations.
//   - Machines that implement Sleeper run on a sparse schedule: a round
//     computes only the awake machines and the neighbors of those that
//     sent something, and gathers only their slots (core.go).
//
// Because every phase is separated by a barrier and every slot of every
// buffer is owned by exactly one node, the execution is deterministic: the
// outputs are byte-identical for every Workers/Shards setting. RunReference
// is the independent differential-testing oracle: a direct transcription
// of the model with per-node inboxes and sender-side delivery, sharing no
// code with the Session machinery.
//
// Invariants (pinned by the differential, determinism, and AllocsPerRun
// tests):
//
//   - Byte-identity: outputs, Stats.Rounds, and Stats.Deliveries are
//     identical for every Workers/Shards setting, for the pooled and
//     inline modes, for the dense and sparse schedules, and to
//     RunReference.
//   - Seed-pinned randomness: per-node RNGs derive from
//     (master seed, node identifier), never from worker or shard state.
//     Sessions reseed a per-node NodeRNG slab (rng.go) whose streams
//     equal DeriveRNG's, which RunReference uses.
//   - 0 allocs/op steady state: after Session setup, Step allocates
//     nothing (and well-behaved typed machines keep the machine side at
//     zero too).
package engine

import (
	"errors"
	"fmt"
	"math/rand"

	"locallab/internal/graph"
)

// NodeInfo is the initial knowledge of a node per the model: the global
// bounds n and Δ, its own identifier and degree, and a private random
// source (nil for deterministic machines).
type NodeInfo struct {
	N      int
	Delta  int
	ID     int64
	Degree int
	RNG    *rand.Rand
}

// ErrRoundLimit is returned when machines do not all terminate within
// the round budget.
var ErrRoundLimit = errors.New("round limit exceeded")

// Options configures the execution of Sessions: how many workers run
// them and into how many shards they split the graph. It configures only
// the scheduling, never the result: Stats and every output are the same
// for every Options value.
type Options struct {
	// Workers is the number of pool goroutines; <= 0 means GOMAXPROCS.
	Workers int
	// Shards is the number of contiguous node ranges the graph is split
	// into; <= 0 picks 4×Workers (work-stealing slack), capped at n.
	Shards int
}

// Engine carries the execution Options solvers run their sessions
// under. The zero value is usable and equivalent to New(Options{}), and
// so is a nil *Engine.
type Engine struct {
	opts Options
}

// New returns an Engine with the given options.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// Options returns the options the engine was created with, or Options{}
// for a nil engine. Solvers pass them to NewSession.
func (e *Engine) Options() Options {
	if e == nil {
		return Options{}
	}
	return e.opts
}

// Stats profiles one execution: the executed rounds and the number of
// messages that crossed edges over all delivery phases. Both are
// properties of the algorithm's execution, not of the scheduling — they
// are byte-identical across every Workers/Shards setting and equal
// RunReference's counts, so they are safe to record in deterministic
// reports.
type Stats struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// Deliveries counts messages delivered across all rounds: every port
	// slot of every delivery phase.
	Deliveries int64
}

// RunReference executes machines on g with the single-threaded
// reference implementation: a direct, goroutine-free transcription of the
// model semantics with per-node inboxes and outboxes, delivering
// sender-side through HalfAt/OppositeHalf. It shares no route table,
// shard table, or Session code, which is what makes it the independent
// differential-testing oracle of every Session geometry.
//
// The typed contract is the same as a Session's: inboxes start zeroed, every
// port slot is delivered every round (so Deliveries counts every port of
// every delivery phase), and outboxes persist across rounds. On
// ErrRoundLimit the Stats still describe the partial execution.
func RunReference[M any](g *graph.Graph, machines []TypedMachine[M], masterSeed int64, randomized bool, maxRounds int) (Stats, error) {
	n := g.NumNodes()
	if len(machines) != n {
		return Stats{}, fmt.Errorf("engine: %d machines for %d nodes", len(machines), n)
	}
	delta := g.MaxDegree()
	var stats Stats
	inbox := make([][]M, n)
	outbox := make([][]M, n)
	for v := 0; v < n; v++ {
		var rng *rand.Rand
		if randomized {
			rng = DeriveRNG(masterSeed, g.ID(graph.NodeID(v)))
		}
		deg := g.Degree(graph.NodeID(v))
		machines[v].Init(NodeInfo{
			N:      n,
			Delta:  delta,
			ID:     g.ID(graph.NodeID(v)),
			Degree: deg,
			RNG:    rng,
		})
		inbox[v] = make([]M, deg)
		outbox[v] = make([]M, deg)
	}
	for round := 1; round <= maxRounds; round++ {
		allDone := true
		for v := 0; v < n; v++ {
			if !machines[v].Round(inbox[v], outbox[v]) {
				allDone = false
			}
		}
		if allDone {
			stats.Rounds = round
			return stats, nil
		}
		// Deliver: the message sent on a half-edge arrives at the
		// opposite half's port.
		for v := 0; v < n; v++ {
			for p, msg := range outbox[v] {
				opp := g.OppositeHalf(g.HalfAt(graph.NodeID(v), int32(p)))
				inbox[g.HalfNode(opp)][g.HalfPort(opp)] = msg
				stats.Deliveries++
			}
		}
	}
	stats.Rounds = maxRounds
	return stats, ErrRoundLimit
}
