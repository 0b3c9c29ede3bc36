package core

import (
	"slices"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// gatherRoundPins are the per-virtual-node charged rounds of the outer
// gather relay (RelayRun.Rounds, which Detail.InnerCost charges) of
// deterministic registry cells, balanced instance of the given seed run
// under that seed.
var gatherRoundPins = []struct {
	name   string
	level  int
	base   int
	seed   int64
	rounds []int
}{
	{"pi2-det", 2, 12, 1, []int{20, 25, 20, 30, 20, 30, 25, 15, 30, 25, 20, 20}},
	{"pi2-det", 2, 12, 2, []int{30, 30, 20, 25, 25, 25, 20, 20, 25, 30, 35, 35}},
	{"pi3-det", 3, 4, 1, []int{
		25, 23, 23, 21, 23, 23, 21, 27, 29, 29, 35, 37, 39, 39, 37, 39, 39, 33, 33, 31,
		25, 27, 29, 29, 23, 23, 21, 23, 23, 21, 35, 37, 39, 39, 37, 39, 39, 33, 33, 31,
	}},
	{"pi3-det", 3, 4, 2, []int{
		25, 27, 29, 29, 23, 23, 21, 27, 29, 29, 25, 27, 29, 29, 23, 23, 21, 27, 29, 29,
		25, 27, 29, 29, 27, 29, 29, 23, 23, 21, 15, 17, 19, 19, 17, 19, 19, 17, 19, 19,
	}},
}

// innerRounds reads a solve's per-virtual-node charged rounds.
func innerRounds(d *Detail) []int {
	rounds := make([]int, d.Virtual.NumVirtualNodes())
	for vi := range rounds {
		rounds[vi] = d.InnerCost.Radius(graph.NodeID(vi))
	}
	return rounds
}

// TestGatherChargedRounds pins when every gather host settles: the
// per-virtual-node rounds of held pi2-det base-12 and pi3-det base-4
// cells (outer level) equal the recorded ones, inline and pooled, and
// every held Run — including one after a Run under another seed —
// equals a one-shot solve in its rounds, output, Cost and engine
// profile.
func TestGatherChargedRounds(t *testing.T) {
	for _, pin := range gatherRoundPins {
		inst, err := BuildInstance(pin.level, InstanceOptions{BaseNodes: pin.base, Seed: pin.seed, Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		n := inst.G.NumNodes()
		for _, opts := range []engine.Options{{Workers: 1}, {Workers: 2, Shards: 3}} {
			eng := engine.New(opts)
			p, err := levelSolver(pin.level)(t, eng).Prepare(inst.G, inst.In)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{pin.seed, pin.seed + 7, pin.seed} {
				held, err := p.Run(seed)
				if err != nil {
					t.Fatalf("%s seed %d %+v: %v", pin.name, seed, opts, err)
				}
				oneShot, err := levelSolver(pin.level)(t, eng).SolveDetailed(inst.G, inst.In, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSolve(held, oneShot, n); err != nil {
					t.Fatalf("%s seed %d %+v: held Run: %v", pin.name, seed, opts, err)
				}
				got := innerRounds(held)
				if want := innerRounds(oneShot); !slices.Equal(got, want) {
					t.Fatalf("%s seed %d %+v: held rounds %v, one-shot %v", pin.name, seed, opts, got, want)
				}
				if seed == pin.seed && !slices.Equal(got, pin.rounds) {
					t.Fatalf("%s seed %d %+v: charged rounds %v, want %v", pin.name, seed, opts, got, pin.rounds)
				}
			}
			p.Close()
		}
	}
}

// hComponent lists the virtual nodes of vi's connected component of H in
// ascending order.
func hComponent(vg *VirtualGraph, vi graph.NodeID) []graph.NodeID {
	seen := map[graph.NodeID]bool{vi: true}
	comp := []graph.NodeID{vi}
	for i := 0; i < len(comp); i++ {
		for _, h := range vg.H.Halves(comp[i]) {
			if y := vg.H.Edge(h.Edge).Other(h.Side).Node; !seen[y] {
				seen[y] = true
				comp = append(comp, y)
			}
		}
	}
	slices.Sort(comp)
	return comp
}

// TestGatherKnowledgeHeldOnce: every gather node holds relayBufs word
// buffers, its own run of the relay plane, and after held Runs each host's knowledge is its leader's
// words themselves (one backing array, no copy) and reconstructs the
// host's whole component of H.
func TestGatherKnowledgeHeldOnce(t *testing.T) {
	for _, c := range []struct{ level, base int }{{2, 12}, {3, 4}} {
		p, r := heldGatherRelay(t, c.level, c.base, 1, engine.Options{Workers: 1})
		defer p.Close()
		if _, err := r.run(2); err != nil {
			t.Fatal(err)
		}
		w := r.machines[0].w
		if words := len(r.machines[0].ctl.plane.words); words != relayBufs*len(r.machines)*int(w) {
			t.Fatalf("level %d: plane holds %d words, want %d buffers of %d for each of %d nodes", c.level, words, relayBufs, w, len(r.machines))
		}
		for v := range r.machines {
			if m := &r.machines[v]; m.w != w || m.at != relayBufs*int32(v)*w {
				t.Fatalf("level %d: node %d's buffers start at word %d, want %d", c.level, v, m.at, relayBufs*int32(v)*w)
			}
		}
		vg := r.vg
		for ci, nodes := range vg.Comps {
			if !vg.Valid[ci] || vg.VirtOf[ci] < 0 {
				continue
			}
			vi := vg.VirtOf[ci]
			leader, h := &r.machines[nodes[0]], &r.hosts[vi]
			words := leader.words()
			if leader.host != h || len(h.know) != len(words) || &h.know[0] != &words[0] {
				t.Fatalf("level %d: virtual node %d's host does not run on its leader's words", c.level, vi)
			}
			ks, err := h.info.Table.Reconstruct(h.know)
			if err != nil {
				t.Fatalf("level %d: virtual node %d: %v", c.level, vi, err)
			}
			if want := hComponent(vg, vi); !slices.Equal(ks.Nodes, want) {
				t.Fatalf("level %d: virtual node %d knows %v, want its component %v", c.level, vi, ks.Nodes, want)
			}
		}
	}
}
