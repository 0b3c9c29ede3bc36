package sinkless

import (
	"math/rand"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// MessageSolverName is MessageSolver's registry name. The padded-relay
// plane keys its native constant-bandwidth execution on it.
const MessageSolverName = "sinkless-rand-messages"

// Wire is the sinkless-orientation protocol's per-port message — the
// exported face of smMsg. Every field fits a handful of bits except the
// identifier, which never needs to travel: a receiver that knows the
// static topology reconstructs the sender's identifier from the port the
// message arrived on. That is what makes the protocol constant-bandwidth
// when carried over the padded relay plane.
type Wire = smMsg

// WireBits is the number of payload bits a Wire carries beyond the
// reconstructible identifier: claim, out-degree (4 bits), sink, request,
// and grant flags.
const WireBits = 8

// PackWire encodes a Wire's payload bits (everything but the identifier)
// into one word. PackWire and UnpackWire are exact inverses on the
// non-identifier fields for out-degrees up to 15.
func PackWire(w Wire) uint64 {
	var v uint64
	if w.Claim {
		v |= 1 << 0
	}
	v |= uint64(w.OutDeg&0xf) << 1
	if w.IsSink {
		v |= 1 << 5
	}
	if w.Request {
		v |= 1 << 6
	}
	if w.Grant {
		v |= 1 << 7
	}
	return v
}

// UnpackWire decodes a packed payload word, restoring the sender's
// identifier from the receiver's static neighbor table.
func UnpackWire(v uint64, senderID int64) Wire {
	return Wire{
		ID:      senderID,
		Claim:   v&(1<<0) != 0,
		OutDeg:  int(v >> 1 & 0xf),
		IsSink:  v&(1<<5) != 0,
		Request: v&(1<<6) != 0,
		Grant:   v&(1<<7) != 0,
	}
}

// CheckSolvable reports whether every component of g admits a sinkless
// orientation (the message solver's own precheck): each non-trivial
// component must contain a cycle. The padded relay plane consults it
// before committing to a native execution, so unsolvable virtual graphs
// surface the message solver's error instead of a wedged session.
func CheckSolvable(g *graph.Graph) error { return checkSolvable(g) }

// Protocol drives one node of the randomized sinkless-orientation
// protocol outside the engine: the same smTyped state machine the
// message solver runs, exposed step by step so the padded relay plane
// can host it as a native virtual machine. The caller owns scheduling
// and message transport; state evolution — including the order of RNG
// draws — is byte-identical to a MessageSolver run over the same
// delivery sequence.
type Protocol struct {
	m smTyped
}

// Init (re)starts the protocol state for a node with the given
// identifier, degree, and private random source, reusing p's per-port
// state. The source must be the node's seed-pinned stream
// (engine.DeriveRNG, or engine.NodeRNG.Derive) for runs to reproduce the
// engine execution; a nil rng falls back to the deterministic
// identifier-seeded source the typed machine uses in deterministic mode.
// The zero Protocol is ready for Init.
func (p *Protocol) Init(id int64, degree int, rng *rand.Rand) {
	p.m.Init(engine.NodeInfo{ID: id, Degree: degree, RNG: rng})
}

// Step runs one protocol round: recv holds the neighbors' previous-round
// messages (zero values on the first call), send receives this round's
// outgoing messages. Both must have length equal to the node's degree.
// It returns true once the node observes no sink in its closed
// neighborhood — the protocol's local termination condition.
func (p *Protocol) Step(recv, send []Wire) bool {
	return p.m.Round(recv, send)
}

// Out reports whether the edge at port q is currently oriented outward.
func (p *Protocol) Out(q int) bool { return p.m.out[q] }
