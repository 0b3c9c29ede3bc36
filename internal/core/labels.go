// Package core implements the paper's primary contribution: the padding
// transform of Section 3. Given an ne-LCL Π and the (log, Δ)-gadget
// family of Section 4, it constructs the padded problem Π′ (Section 3.3),
// padded instances (Definition 3, Lemma 5), the Lemma-4 solver that
// simulates a Π-solver on the virtual graph obtained by contracting valid
// gadgets, and the recursive hierarchy Πᵢ of Theorem 11.
//
// Two executions of the Lemma-4 pipeline exist. PaddedSolver is the
// sequential oracle: centralized Ψ walk, one centralized inner Solve
// call on the virtual graph H. EnginePaddedSolver runs the same
// pipeline as machines on the sharded engine: Ψ as a fixpoint exchange,
// and the inner algorithm as the native or gather relay machines over
// the payload relay plane (native.go, relay.go) — no centralized inner
// Solve anywhere. Steps 2-3 and 5 are shared code (planPadded,
// assemblePadded); step 4 is differential-tested native vs centralized.
//
// Invariants (pinned by tests in this package and at the root):
//
//   - Byte-identity. Both solvers produce identical output labelings for
//     a given (instance, seed), across every engine worker/shard
//     geometry, pooled or inline.
//   - Seed-pinned randomness. Randomized inner streams derive from
//     (master seed, virtual identifier) — the gadget's minimal physical
//     identifier — never from worker, shard, or scheduling state.
//   - 0 allocs/op steady state. The Ψ, mask-simulation, and
//     payload-relay round loops allocate nothing after session setup.
//   - Honest accounting. The engine path charges measured rounds (Ψ
//     radius + relay-session length), and its measured engine rounds
//     never exceed the charged Cost bound.
//
// See docs/ARCHITECTURE.md for the layer diagram and the map from the
// paper's lemmas into this package.
package core

import (
	"encoding/json"
	"fmt"
	"unicode/utf8"

	"locallab/internal/lcl"
)

// Edge-class input marks distinguishing gadget-internal edges from the
// edges joining ports of different gadgets (Definition 3).
const (
	MarkGadEdge  lcl.Label = "GadEdge"
	MarkPortEdge lcl.Label = "PortEdge"
)

// Port-validity output labels (Section 3.3, constraints 3 and 4).
const (
	PortErr1  lcl.Label = "PortErr1"
	PortErr2  lcl.Label = "PortErr2"
	NoPortErr lcl.Label = "NoPortErr"
)

// LabPsiEdge is the placeholder output from Σ^G of ΨG on gadget edges and
// gadget half-edges (our ΨG carries its content on nodes); port edges and
// port half-edges must carry the empty label ε instead (constraint 1).
const LabPsiEdge lcl.Label = "psi-ok"

// Compose packs component labels into one label; Split unpacks. JSON
// arrays keep nesting safe: composite labels of level i embed composite
// labels of level i-1 without escaping issues. Marshal failures (only
// reachable through invalid UTF-8 smuggled into labels) are returned,
// not panicked, so malformed instance inputs surface as messages.
func Compose(parts ...lcl.Label) (lcl.Label, error) {
	ss := make([]string, len(parts))
	for i, p := range parts {
		ss[i] = string(p)
	}
	b, err := json.Marshal(ss)
	if err != nil {
		return "", fmt.Errorf("compose label: %w", err)
	}
	return lcl.Label(b), nil
}

// Split unpacks a composite label into exactly n parts.
func Split(l lcl.Label, n int) ([]lcl.Label, error) {
	ss, err := splitParts(l)
	if err != nil {
		return nil, err
	}
	if len(ss) != n {
		return nil, partCountErr(len(ss), n)
	}
	out := make([]lcl.Label, n)
	for i, s := range ss {
		out[i] = lcl.Label(s)
	}
	return out, nil
}

// splitParts decodes a composite label into its parts, whatever their
// number; the error is the one Split reports.
func splitParts(l lcl.Label) ([]string, error) {
	var ss []string
	if err := json.Unmarshal([]byte(l), &ss); err != nil {
		return nil, fmt.Errorf("split label %q: %w", l, err)
	}
	return ss, nil
}

func partCountErr(got, want int) error {
	return fmt.Errorf("split label: got %d parts, want %d", got, want)
}

// Input label layout of Π′:
//
//	node:  [ Π-input, gadget node label ]        (Portᵢ/NoPort is carried
//	                                              inside the gadget label)
//	edge:  [ Π-input, class mark ]               (class ∈ {GadEdge, PortEdge})
//	half:  [ Π-input, gadget half label ]
const (
	nodeParts = 2
	edgeParts = 2
	halfParts = 2
)

// Output label layout of Π′:
//
//	node:  [ Σlist JSON, portErr, Ψ output ]
//	edge:  single label: ε on port edges, ψ placeholder on gadget edges
//	half:  same convention as edges
const outNodeParts = 3

// SigmaList is the Σlist component of a node's output (Section 3.3): the
// valid-port set S, copies of the virtual node's inputs, and the virtual
// node's outputs, all indexed by physical gadget port 1..Δ (slot i-1).
type SigmaList struct {
	S  []int    `json:"s"`  // ascending physical port indices in S
	IV string   `json:"iv"` // virtual node input  (copied from Port1)
	IE []string `json:"ie"` // virtual edge inputs  per port
	IB []string `json:"ib"` // virtual half inputs  per port
	OV string   `json:"ov"` // virtual node output
	OE []string `json:"oe"` // virtual edge outputs per port
	OB []string `json:"ob"` // virtual half outputs per port
}

// NewSigmaList allocates Δ-wide slots.
func NewSigmaList(delta int) *SigmaList {
	return &SigmaList{
		IE: make([]string, delta),
		IB: make([]string, delta),
		OE: make([]string, delta),
		OB: make([]string, delta),
	}
}

// Encode renders the Σlist as a label. Marshal failures are returned,
// not panicked, mirroring Compose.
func (sl *SigmaList) Encode() (lcl.Label, error) {
	b, err := json.Marshal(sl)
	if err != nil {
		return "", fmt.Errorf("encode sigma list: %w", err)
	}
	return lcl.Label(b), nil
}

// DecodeSigmaList parses a Σlist label, validating slot widths against Δ.
func DecodeSigmaList(l lcl.Label, delta int) (*SigmaList, error) {
	var sl SigmaList
	if err := json.Unmarshal([]byte(l), &sl); err != nil {
		return nil, fmt.Errorf("decode sigma list: %w", err)
	}
	if err := sl.check(delta); err != nil {
		return nil, err
	}
	return &sl, nil
}

// check validates the slot widths against Δ and S as strictly ascending
// ports in 1..Δ.
func (sl *SigmaList) check(delta int) error {
	if len(sl.IE) != delta || len(sl.IB) != delta || len(sl.OE) != delta || len(sl.OB) != delta {
		return fmt.Errorf("decode sigma list: slot widths %d/%d/%d/%d, want Δ=%d",
			len(sl.IE), len(sl.IB), len(sl.OE), len(sl.OB), delta)
	}
	prev := 0
	for _, p := range sl.S {
		if p < 1 || p > delta {
			return fmt.Errorf("decode sigma list: port %d out of 1..Δ", p)
		}
		if p <= prev {
			return fmt.Errorf("decode sigma list: S not strictly ascending")
		}
		prev = p
	}
	return nil
}

// validUTF8 reports whether every string of the Σlist is valid UTF-8,
// so that json carries it through Encode and DecodeSigmaList unchanged.
func (sl *SigmaList) validUTF8() bool {
	if !utf8.ValidString(sl.IV) || !utf8.ValidString(sl.OV) {
		return false
	}
	for _, slots := range [][]string{sl.IE, sl.IB, sl.OE, sl.OB} {
		for _, s := range slots {
			if !utf8.ValidString(s) {
				return false
			}
		}
	}
	return true
}
