package core

import (
	"fmt"

	"locallab/internal/adversary"
)

// The adversary's view of the payload relay plane. Delivery faults
// compiled with adversary.Fault.CompileGraph against the padded
// instance install on the solver's gather relay through SetRelayFault;
// the relay's interceptor then rewrites relayMsg views in flight, exactly
// as the Ψ fault plane rewrites psiMsg predicate vectors. Fault decisions
// are pure in (round, slot), and the relay merge is OR-monotone, so a
// faulted execution — its outputs, its session length, its verdict — is
// still byte-identical across every worker/shard geometry.
//
// Only the gather execution is faultable: with a plan installed the
// solver skips the native relay (whose robustness under malformed views
// is pinned by FuzzNativeSlotRewrite), so the faults land on the
// knowledge-word payloads the flattened tower's inner levels actually
// ride.

// faultInterceptor ends the plane with one fault word per receiver slot
// of p and returns p's interceptor over them. Its codec reads a payload's
// first word (0 for silence) and writes a rewritten word into the
// receiver slot's own fault word, delivered as a one-word view (orInto
// merges shorter payloads soundly), so an arbitrary Byzantine word
// always decodes to a deliverable message and a fired fault allocates
// nothing. Deliver never runs twice for one slot in a phase, so two
// Decode calls never write the same word, and the receiver reads its
// word before the next phase rewrites it. Call it between runs: the
// machines re-read the plane at Init.
func (pl *relayPlane) faultInterceptor(p *adversary.Plan) *adversary.Interceptor[relayMsg] {
	base := int32(len(pl.words))
	pl.words = append(pl.words, make([]uint64, p.Slots())...)
	return adversary.NewInterceptor(p, adversary.Codec[relayMsg]{
		Encode: func(m relayMsg) uint64 {
			if w := pl.view(m); w != nil {
				return w[0]
			}
			return 0
		},
		Decode: func(slot int32, w uint64) relayMsg {
			at := base + slot
			pl.words[at] = w
			return relayMsg{at: at, n: 1}
		},
	})
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
