package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"time"

	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/sinkless"
	"locallab/internal/solver"
)

// paddedWorkload is a closed-loop workload over padded hierarchy cells:
// one caller runs prepared cells round-robin on an engine with one
// worker.
type paddedWorkload struct {
	entry  string // registry entry the timed loop runs
	oracle string // sequential oracle entry the correctness gate compares against
	level  int    // hierarchy level: 2 for Π₂, 3 for Π₃
	base   int    // base-graph nodes
	cells  int    // seeded cells, run round-robin
	// newSolver builds the engine-backed solver entry runs, for the
	// traced rebuild.
	newSolver func(lvl *core.Level, eng *engine.Engine) (*core.EnginePaddedSolver, error)
}

// pi2Native is the paper's randomized Π₂ with the native relay: the label
// codec and Π′ verify dominate it, and it bypasses the gather plane.
var pi2Native = paddedWorkload{
	entry: "pi2-rand-native", oracle: "pi2-rand-native-oracle",
	level: 2, base: 48, cells: 8,
	newSolver: func(_ *core.Level, eng *engine.Engine) (*core.EnginePaddedSolver, error) {
		return core.NewEnginePaddedSolver(sinkless.NewMessageSolver(), core.LevelDelta(2), eng), nil
	},
}

// towerPi3 is the deterministic Π₃ tower: nested engine sessions, the
// gather relay at both levels, and the deepest composite labels.
var towerPi3 = paddedWorkload{
	entry: "pi3-det", oracle: "pi3-det-oracle",
	level: 3, base: 4, cells: 8,
	newSolver: func(lvl *core.Level, eng *engine.Engine) (*core.EnginePaddedSolver, error) {
		det, _, err := lvl.EngineSolvers(eng)
		return det, err
	},
}

// cellRef is the deterministic record of one cell's solve: its output
// checksum and every count that must repeat exactly on each run.
type cellRef struct {
	checksum uint64
	counts   string
}

// countsOf renders a padded solve's deterministic counts: the checksum,
// the charged rounds, and per tower level the Ψ and relay rounds and
// deliveries and the relay words.
func countsOf(checksum uint64, d *core.Detail) cellRef {
	var b strings.Builder
	fmt.Fprintf(&b, "checksum=%016x rounds=%d", checksum, d.Cost.Rounds())
	level := 1
	for s := d.Engine; s != nil; s = s.Inner {
		fmt.Fprintf(&b, " l%d:psi=%d/%d,relay=%d/%d,words=%d",
			level, s.Psi.Rounds, s.Psi.Deliveries, s.Relay.Rounds, s.Relay.Deliveries, s.RelayWords)
		level++
	}
	return cellRef{checksum: checksum, counts: b.String()}
}

// digest fingerprints a run's counts so runs with the same seed can be
// compared across processes.
func digest(counts []string) string {
	h := fnv.New64a()
	for _, c := range counts {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func refCounts(refs []cellRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.counts
	}
	return out
}

func (w paddedWorkload) request(seed int64, eng *engine.Engine) solver.Request {
	return solver.Request{Family: solver.PaddedFamily, N: w.base, Seed: seed, Engine: eng}
}

// preparePadded is one set-up: prepare every cell, then run each once.
func preparePadded(entry solver.Entry, w paddedWorkload, seeds []int64, eng *engine.Engine) ([]solver.Prepared, []cellRef, error) {
	preps := make([]solver.Prepared, 0, len(seeds))
	refs := make([]cellRef, 0, len(seeds))
	for _, s := range seeds {
		p, err := entry.Prepare(w.request(s, eng))
		if err != nil {
			closeAll(preps)
			return nil, nil, fmt.Errorf("prepare %s seed %d: %w", w.entry, s, err)
		}
		preps = append(preps, p)
		o, err := p.Run()
		if err != nil {
			closeAll(preps)
			return nil, nil, fmt.Errorf("warm-up %s seed %d: %w", w.entry, s, err)
		}
		refs = append(refs, countsOf(o.Checksum, o.Padded))
	}
	return preps, refs, nil
}

func closeAll(preps []solver.Prepared) {
	for _, p := range preps {
		p.Close()
	}
}

// tally counts one run's outcomes.
type tally struct {
	attempted, verified int
	runs                []int // verified runs per cell
	firstErr            error
}

func newTally(cells int) *tally { return &tally{runs: make([]int, cells)} }

func (t *tally) add(cell int, ok bool, err error) {
	t.attempted++
	if ok {
		t.verified++
		t.runs[cell]++
		return
	}
	if err == nil {
		err = fmt.Errorf("cell %d: counts differ from its warm-up run", cell)
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// closedLoop runs the prepared cells round-robin for d, checking every
// run's counts against the cell's warm-up run, and returns the verified
// runs' latencies.
func closedLoop(t *tally, preps []solver.Prepared, refs []cellRef, d time.Duration) ([]time.Duration, windowStats) {
	var lat []time.Duration
	win := openWindow()
	deadline := win.start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		c := i % len(preps)
		start := time.Now()
		o, err := preps[c].Run()
		elapsed := time.Since(start)
		ok := err == nil && countsOf(o.Checksum, o.Padded) == refs[c]
		t.add(c, ok, err)
		if ok {
			lat = append(lat, elapsed)
		}
		win.sampleHeap()
	}
	return lat, win.close()
}

// oracleGate compares every cell's checksum with the sequential oracle
// entry's; a mismatched cell fails every run it made.
func oracleGate(w paddedWorkload, seeds []int64, refs []cellRef, t *tally) (bool, error) {
	oracle, ok := solver.ByName(w.oracle)
	if !ok {
		return false, fmt.Errorf("unknown oracle entry %q", w.oracle)
	}
	good := true
	for i, s := range seeds {
		o, err := oracle.Run(w.request(s, nil))
		if err != nil {
			return false, fmt.Errorf("oracle %s seed %d: %w", w.oracle, s, err)
		}
		if o.Checksum != refs[i].checksum {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: checksum %016x, oracle %016x\n",
				w.entry, s, refs[i].checksum, o.Checksum)
			good = false
			t.verified -= t.runs[i]
			t.runs[i] = 0
		}
	}
	return good, nil
}

// runPadded runs a closed-loop padded workload.
func runPadded(c config, w paddedWorkload) (*result, error) {
	entry, ok := solver.ByName(w.entry)
	if !ok {
		return nil, fmt.Errorf("unknown registry entry %q", w.entry)
	}
	eng := engine.New(engine.Options{Workers: 1})
	seeds := make([]int64, w.cells)
	for i := range seeds {
		seeds[i] = cellSeed(c.seed, i)
	}
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var (
		setups []time.Duration
		preps  []solver.Prepared
		refs   []cellRef
	)
	stable := true
	for r := 0; r < reps; r++ {
		start := time.Now()
		p, rs, err := preparePadded(entry, w, seeds, eng)
		if err != nil {
			closeAll(preps)
			return nil, err
		}
		setups = append(setups, time.Since(start))
		closeAll(preps)
		if refs != nil && digest(refCounts(refs)) != digest(refCounts(rs)) {
			fmt.Fprintf(os.Stderr, "perfbench: counts differ between set-ups\n")
			stable = false
		}
		preps, refs = p, rs
	}
	defer closeAll(preps)
	fmt.Printf("counts_digest %s\n", digest(refCounts(refs)))

	warm := newTally(len(seeds))
	closedLoop(warm, preps, refs, settle)
	if warm.firstErr != nil {
		return nil, fmt.Errorf("settle: %w", warm.firstErr)
	}
	t := newTally(len(seeds))
	if c.trace {
		return tracePadded(c, w, t, seeds, preps, refs, eng)
	}
	lat, ws := closedLoop(t, preps, refs, c.window)
	good, err := oracleGate(w, seeds, refs, t)
	if err != nil {
		return nil, err
	}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}
	return &result{
		Correct:   stable && good && t.firstErr == nil,
		Attempted: t.attempted,
		Failed:    t.attempted - t.verified,
		Metrics:   endToEnd(setups, lat, t.verified, t.attempted, ws, 1),
	}, nil
}

// tracePadded is the traced run: half the window runs the registry path
// untraced, half runs the same cells rebuilt from the public calls the
// registry makes, with a span around each; isolated probes follow in
// their own pass.
func tracePadded(c config, w paddedWorkload, t *tally, seeds []int64, preps []solver.Prepared, refs []cellRef, eng *engine.Engine) (*result, error) {
	half := c.window / 2
	untracedLat, untracedWin := closedLoop(t, preps, refs, half)
	untraced := t.verified

	tr := newTracer()
	lvl, err := core.NewLevel(w.level)
	if err != nil {
		return nil, err
	}
	s, err := w.newSolver(lvl, eng)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(seeds))
	insts := make([]*core.Instance, len(seeds))
	for i, seed := range seeds {
		names[i] = fmt.Sprintf("%s/%d", w.entry, seed)
		id := tr.begin("build", names[i], 0)
		insts[i], err = core.BuildInstance(w.level, core.InstanceOptions{BaseNodes: w.base, Seed: seed, Balanced: true})
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", names[i], err)
		}
	}

	var tracedLat []time.Duration
	details := make([]*core.Detail, len(seeds))
	deadline := time.Now().Add(half)
	for i := 0; time.Now().Before(deadline); i++ {
		ci := i % len(seeds)
		start := time.Now()
		sum, d, err := solveTraced(tr, names[ci], lvl, s, insts[ci], seeds[ci])
		ok := err == nil && countsOf(sum, d) == refs[ci]
		t.add(ci, ok, err)
		if ok {
			tracedLat = append(tracedLat, time.Since(start))
			details[ci] = d
		}
	}
	path, err := tr.write(c.workload, c.seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %s\n", path)

	pr, err := probePadded(w.level, insts, seeds, eng)
	if err != nil {
		return nil, err
	}

	good, err := oracleGate(w, seeds, refs, t)
	if err != nil {
		return nil, err
	}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}

	m := map[string]metric{}
	tot := tr.totals()
	spanLayers(m, tot, "build", "solve", "verify", "checksum")
	overhead(m, untracedLat, tracedLat, tot["cell"])
	var counted []*core.Detail
	for _, d := range details {
		if d != nil {
			counted = append(counted, d)
		}
	}
	engineCounts(m, counted)
	pr.put(m)
	gcMetrics(m, untracedWin, untraced)
	serveAbsent(m)
	return &result{
		Correct:   good && t.firstErr == nil,
		Attempted: t.attempted,
		Failed:    t.attempted - t.verified,
		Metrics:   m,
	}, nil
}

// solveTraced runs one padded cell the way the registry's runner does —
// clone the input, SolveDetailed, Level.Verify, LabelingChecksum — with a
// span around each call under one cell span.
func solveTraced(tr *tracer, name string, lvl *core.Level, s *core.EnginePaddedSolver, inst *core.Instance, seed int64) (uint64, *core.Detail, error) {
	root := tr.begin("cell", name, 0)
	defer tr.end(root)
	in := inst.In.Clone()
	id := tr.begin("solve", name, root)
	d, err := s.SolveDetailed(inst.G, in, seed)
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	id = tr.begin("verify", name, root)
	err = lvl.Verify(inst.G, in, d.Out)
	tr.end(id)
	if err != nil {
		return 0, nil, fmt.Errorf("verify %s: %w", name, err)
	}
	id = tr.begin("checksum", name, root)
	sum := solver.LabelingChecksum(d.Out)
	tr.end(id)
	return sum, d, nil
}

// spanLayers reports each named layer's self time and allocation per
// call.
func spanLayers(m map[string]metric, tot map[string]*layerTotals, layers ...string) {
	for _, name := range layers {
		var msPer, mbPer float64
		if lt := tot[name]; lt != nil && lt.count > 0 {
			msPer = float64(lt.self.Nanoseconds()) / 1e6 / float64(lt.count)
			mbPer = lt.alloc / 1e6 / float64(lt.count)
		}
		m[name+".ms_per_cell"] = metric{msPer, "ms"}
		if name == "solve" || name == "verify" {
			m[name+".alloc_mb_per_cell"] = metric{mbPer, "MB"}
		}
	}
}

// overhead reports the traced half's median cell latency against the
// untraced half's, and the share of the root spans (cell or request)
// that no child span covers.
func overhead(m map[string]metric, untraced, traced []time.Duration, cells *layerTotals) {
	u, t := quantile(ms(untraced), 0.5), quantile(ms(traced), 0.5)
	frac := 0.0
	if u > 0 {
		frac = t/u - 1
	}
	m["trace.overhead_frac"] = metric{frac, "frac"}
	unc := 0.0
	if cells != nil && cells.dur > 0 {
		unc = float64(cells.self) / float64(cells.dur)
	}
	m["trace.uncovered_frac"] = metric{unc, "frac"}
}

// engineCounts reports the mean per-cell Ψ, relay and engine counts of
// padded solves, summed over the tower's levels (relay words also per
// level).
func engineCounts(m map[string]metric, details []*core.Detail) {
	var psiR, psiD, relR, relD, words, l1, l2, engR, engD float64
	for _, d := range details {
		e := d.Engine
		engR += float64(e.Rounds())
		engD += float64(e.Deliveries())
		words += float64(e.TotalRelayWords())
		l1 += float64(e.RelayWords)
		if e.Inner != nil {
			l2 += float64(e.Inner.RelayWords)
		}
		for s := e; s != nil; s = s.Inner {
			psiR += float64(s.Psi.Rounds)
			psiD += float64(s.Psi.Deliveries)
			relR += float64(s.Relay.Rounds)
			relD += float64(s.Relay.Deliveries)
		}
	}
	n := float64(max(len(details), 1))
	for name, v := range map[string]float64{
		"psi.rounds": psiR, "psi.deliveries": psiD,
		"relay.rounds": relR, "relay.deliveries": relD,
		"relay.words": words, "relay.l1.words": l1, "relay.l2.words": l2,
		"engine.rounds": engR, "engine.deliveries": engD,
	} {
		m[name] = metric{v / n, "count"}
	}
}

// probeReps is how often each isolated probe runs per cell.
const probeReps = 3

// probes are the isolated measurements of layers the registry calls
// cannot separate from outside.
type probes struct {
	decodeMs, decodeMB, psiMs, rngMs float64
}

func (p probes) put(m map[string]metric) {
	m["decode.isolated_ms_per_cell"] = metric{p.decodeMs, "ms"}
	m["decode.alloc_mb_per_cell"] = metric{p.decodeMB, "MB"}
	m["psi.isolated_ms_per_cell"] = metric{p.psiMs, "ms"}
	m["engine.rng_isolated_ms_per_cell"] = metric{p.rngMs, "ms"}
}

// probePadded times, on each cell's outer instance, the input-label
// decode (GadInputs + PiInputs + GadScope), the Ψ verifier on the engine
// (Verifier.RunEngine) and one engine.DeriveRNG per node.
func probePadded(level int, insts []*core.Instance, seeds []int64, eng *engine.Engine) (probes, error) {
	var decode, psi, rng time.Duration
	var decodeAlloc float64
	runs := 0
	for i, inst := range insts {
		g, in := inst.G, inst.In
		for r := 0; r < probeReps; r++ {
			a := allocBytes()
			start := time.Now()
			gadIn, err := core.GadInputs(g, in)
			if err != nil {
				return probes{}, err
			}
			if _, err := core.PiInputs(g, in); err != nil {
				return probes{}, err
			}
			scope := core.GadScope(g, in)
			decode += time.Since(start)
			decodeAlloc += float64(allocBytes() - a)

			vf := &errorproof.Verifier{Delta: core.LevelDelta(level), Scope: scope}
			start = time.Now()
			if _, _, _, err := vf.RunEngine(eng, g, gadIn, g.NumNodes()); err != nil {
				return probes{}, err
			}
			psi += time.Since(start)

			rng += deriveAll(seeds[i], g)
			runs++
		}
	}
	n := float64(runs)
	return probes{
		decodeMs: float64(decode.Nanoseconds()) / 1e6 / n,
		decodeMB: decodeAlloc / 1e6 / n,
		psiMs:    float64(psi.Nanoseconds()) / 1e6 / n,
		rngMs:    float64(rng.Nanoseconds()) / 1e6 / n,
	}, nil
}

// rngSink keeps the derived sources observable so the calls stay.
var rngSink *rand.Rand

// deriveAll times one engine.DeriveRNG per node of g.
func deriveAll(seed int64, g *graph.Graph) time.Duration {
	start := time.Now()
	for v := 0; v < g.NumNodes(); v++ {
		rngSink = engine.DeriveRNG(seed, g.ID(graph.NodeID(v)))
	}
	return time.Since(start)
}

// serveAbsent reports the serving-layer metrics of a workload that does
// not go through the server as 0.
func serveAbsent(m map[string]metric) {
	for _, name := range []string{"serve.rejected", "loadgen.sent"} {
		m[name] = metric{0, "count"}
	}
	for _, name := range []string{"serve.pool_hit_frac", "serve.coalesced_frac"} {
		m[name] = metric{0, "frac"}
	}
	m["serve.queue_depth_mean"] = metric{0, "count"}
	m["loadgen.late_ms_p90"] = metric{0, "ms"}
	for _, s := range mixSolvers {
		m["serve."+s.solver+".ms_p50"] = metric{0, "ms"}
	}
}
