package core

import (
	"fmt"

	"locallab/internal/adversary"
)

// The adversary's view of the payload relay plane. Delivery faults
// compiled with adversary.Fault.CompileGraph against the padded
// instance install on the solver's relay session through SetRelayFault;
// the interceptor then rewrites relayMsg payloads in flight, exactly as
// the Ψ fault plane rewrites psiMsg predicate vectors. Fault decisions
// are pure in (round, slot), and the relay merge is OR-monotone, so a
// faulted execution — its outputs, its session length, its verdict — is
// still byte-identical across every worker/shard geometry.
//
// Only the gather execution is faultable: with a plan installed the
// solver skips the native port-machine fast path (the native plane's
// natMsg messages are views into the session's record plane and its
// robustness is pinned separately by FuzzNativeSlotRewrite), so the
// faults land on the knowledge-word payloads the flattened tower's inner
// levels actually ride.

// relayCodec is the adversary's word view of a relay payload: the first
// knowledge word. Encode of a silent port is 0; Decode yields a
// one-word payload (orInto merges shorter payloads soundly), so an
// arbitrary Byzantine word always decodes to a deliverable message.
// Decode allocates, but only on fired faults — the clean delivery path
// never calls it.
func relayCodec() adversary.Codec[relayMsg] {
	return adversary.Codec[relayMsg]{
		Encode: func(m relayMsg) uint64 {
			if len(m.Words) == 0 {
				return 0
			}
			return m.Words[0]
		},
		Decode: func(w uint64) relayMsg {
			return relayMsg{Words: []uint64{w}}
		},
	}
}

// SetRelayFault installs a compiled delivery-fault plan on every relay
// session the solver runs (nil uninstalls). The plan must have been
// compiled against the same graph later passed to Solve — slot counts
// are revalidated there. Duplicate faults are rejected: a relay payload
// is a read-only view of the sender's alternating buffer, so a replay
// held across a round would alias a buffer the sender is rewriting — a
// data race, not a modelable fault.
func (s *EnginePaddedSolver) SetRelayFault(p *adversary.Plan) error {
	if p != nil && p.Fault.Kind == adversary.KindDuplicate {
		return fmt.Errorf("engine padded solve: duplicate faults are not supported on the relay plane: payloads are live buffer views, a held replay would race the sender")
	}
	s.relayPlan = p
	return nil
}
