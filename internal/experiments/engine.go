package experiments

import (
	"fmt"

	"locallab/internal/measure"
	"locallab/internal/solver"
)

// EnginePaddedParity runs the Π₂ workload through the unified solver
// registry (internal/solver) — the exact code path cmd/lcl-scenario and
// cmd/lcl-run execute — and reports the parity between the charged round
// accounting and the rounds actually measured on the sharded
// message-passing engine: the Ψ fixpoint session plus the payload-relay
// session that carries the inner machines' messages through the gadgets.
// The measured engine rounds must never exceed the charged bound; the
// gap is the slack between the Lemma-10 gathering radius and the
// fixpoint's real convergence time.
func EnginePaddedParity(sc Scale) (*Result, error) {
	entry, ok := solver.ByName("pi2-det")
	if !ok {
		return nil, fmt.Errorf("pi2-det missing from the solver registry")
	}
	var rows [][]string
	for _, base := range sc.paddedBases() {
		o, err := entry.Run(solver.Request{
			Family: solver.PaddedFamily,
			N:      base,
			Seed:   int64(base),
			Engine: serialEngine(),
		})
		if err != nil {
			return nil, err
		}
		d := o.Padded
		bound := "ok"
		if o.Stats.Rounds > o.Rounds {
			bound = "EXCEEDED"
		}
		rows = append(rows, []string{
			fmt.Sprint(o.Nodes), fmt.Sprint(base),
			fmt.Sprint(o.Rounds),
			fmt.Sprint(o.Stats.Rounds),
			fmt.Sprint(d.Engine.Psi.Rounds), fmt.Sprint(d.Engine.Relay.Rounds),
			fmt.Sprint(o.Stats.Deliveries),
			bound,
		})
	}
	return &Result{
		ID:    "E-E1",
		Title: "Engine parity: padded pipeline measured on the message-passing engine",
		Table: measure.Table([]string{"N", "base n", "charged rounds", "engine rounds", "Ψ rounds", "relay rounds", "deliveries", "≤ bound"}, rows),
		Notes: []string{
			"engine rounds = Ψ fixpoint session + payload-relay session, always ≤ the charged bound",
			"the inner algorithm runs as native machines over the relay plane — no centralized inner Solve",
			"labelings are byte-identical to the sequential Lemma-4 oracle (pinned by the core differential tests)",
		},
	}, nil
}

// RelayDeliveryComparison measures the two relay executions of the same
// inner protocol against each other: for each balanced Π₂ instance it
// runs the sinkless message solver (a) as native constant-bandwidth port
// machines over the slot-routed relay plane (registry entry
// pi2-rand-native) and (b) forced onto gather machines flooding
// knowledge vectors (pi2-rand-gather). Both relay executions produce
// byte-identical labelings (checked here); the words columns are
// sender-counted payload words — the native/gather words ratio is the
// bandwidth win of constant-size inner machines, and the rounds columns
// show the sessions' physical lengths honestly (the native lockstep can
// be longer than the gather fast path on tiny instances even while
// moving a fraction of the words).
func RelayDeliveryComparison(sc Scale) (*Result, error) {
	native, ok := solver.ByName("pi2-rand-native")
	if !ok {
		return nil, fmt.Errorf("pi2-rand-native missing from the solver registry")
	}
	gather, ok := solver.ByName("pi2-rand-gather")
	if !ok {
		return nil, fmt.Errorf("pi2-rand-gather missing from the solver registry")
	}
	var rows [][]string
	for _, base := range sc.paddedBases() {
		req := solver.Request{
			Family: solver.PaddedFamily,
			N:      base,
			Seed:   int64(base),
			Engine: serialEngine(),
		}
		nat, err := native.Run(req)
		if err != nil {
			return nil, err
		}
		nd := nat.Padded
		if !nd.Engine.RelayNative {
			return nil, fmt.Errorf("base %d: native machines not selected", base)
		}
		gat, err := gather.Run(req)
		if err != nil {
			return nil, err
		}
		gd := gat.Padded
		if nat.Checksum != gat.Checksum {
			return nil, fmt.Errorf("base %d: native and gather labelings differ", base)
		}
		ratio := "n/a"
		if nd.Engine.RelayWords > 0 {
			ratio = fmt.Sprintf("%.1f", float64(gd.Engine.RelayWords)/float64(nd.Engine.RelayWords))
		}
		rows = append(rows, []string{
			fmt.Sprint(nat.Nodes), fmt.Sprint(base),
			fmt.Sprint(nd.Engine.Relay.Rounds), fmt.Sprint(nd.Engine.RelayWords),
			fmt.Sprint(gd.Engine.Relay.Rounds), fmt.Sprint(gd.Engine.RelayWords),
			ratio,
		})
	}
	return &Result{
		ID:    "E-E2",
		Title: "Relay executions: native port machines vs gather flooding",
		Table: measure.Table([]string{"N", "base n", "native rounds", "native words", "gather rounds", "gather words", "gather/native words"}, rows),
		Notes: []string{
			"native machines move O(1) words per virtual edge per protocol round, slot-routed host to port",
			"gather machines send component-sized knowledge vectors, each node only in the rounds its vector changed",
			"labelings of both executions are byte-identical to each other and to the sequential oracle",
		},
	}, nil
}
