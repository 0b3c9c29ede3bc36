package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/scenario"
	"locallab/internal/serve"
	"locallab/internal/serve/loadgen"
	"locallab/internal/solver"
)

// mixSolvers are the serve-mix cell kinds, each run under mixSeeds seeds.
// Their cells are engine-bound (the Cole–Vishkin round loop, per-node RNG
// derivation), with two small padded kinds on the request path.
var mixSolvers = []struct {
	family, solver string
	n              int
}{
	{"cycle", "cole-vishkin", 65536},
	{"regular", "sinkless-msg", 1024},
	{solver.PaddedFamily, "pi2-rand-native", 12},
	{solver.PaddedFamily, "pi2-det", 24},
}

const (
	mixSeeds = 4
	// serveRate is the offered Poisson arrival rate, about half the
	// in-process server's capacity on a 2-vCPU host.
	serveRate = 40.0
	// serveSlices is how many slices of the window the latency
	// quantiles are taken over: a 30 s window holds 1200 requests, about
	// 109 a slice.
	serveSlices = 11
)

func buildMix(seed int64) []scenario.CellRequest {
	var mix []scenario.CellRequest
	for k, s := range mixSolvers {
		for i := 0; i < mixSeeds; i++ {
			mix = append(mix, scenario.CellRequest{
				Family: s.family, Solver: s.solver, N: s.n, Seed: cellSeed(seed, k*mixSeeds+i),
			})
		}
	}
	return mix
}

// setupServer is one set-up: a server with default options, every mix
// cell prewarmed and then served once; the warm-up results are the
// references every later response must equal.
func setupServer(mix []scenario.CellRequest) (*serve.Server, map[scenario.CellRequest]scenario.CellResult, error) {
	srv := serve.New(serve.Options{})
	if err := srv.Prewarm(mix); err != nil {
		srv.Close()
		return nil, nil, fmt.Errorf("prewarm: %w", err)
	}
	refs := map[scenario.CellRequest]scenario.CellResult{}
	for _, req := range mix {
		res, err := srv.Do(context.Background(), req)
		if err != nil {
			srv.Close()
			return nil, nil, fmt.Errorf("warm-up %s seed %d: %w", req.Solver, req.Seed, err)
		}
		refs[req] = *res
	}
	return srv, refs, nil
}

// schedule draws seeded Poisson arrivals at serveRate over the mix, with
// two things held fixed that a free draw leaves to the seed:
//
//   - the count: exactly k·len(mix) arrivals with k = round(serveRate·d /
//     len(mix)). The first k·len(mix)+1 arrival times of loadgen.Generate
//     are scaled so the last of them falls at d; the others are then the
//     sorted uniform times of a Poisson process conditioned on its count.
//   - the composition: each consecutive block of len(mix) arrivals holds
//     every mix cell once, in a seeded order, so every slice of the
//     window offers the same work.
//
// A free draw moves the count by ±3.5% and each cell kind's share by
// more, and with them throughput, CPU per cell and the latency quantiles.
func schedule(mix []scenario.CellRequest, d time.Duration, seed int64) ([]loadgen.Arrival, error) {
	k := max(1, int(math.Round(serveRate*d.Seconds()/float64(len(mix)))))
	n := k * len(mix)
	// Twice the span holds n+1 arrivals except with negligible probability.
	drawn, err := loadgen.Generate([]loadgen.Window{{Process: loadgen.ProcessPoisson, Rate: serveRate, Duration: 2*d + time.Second}}, mix, seed)
	if err != nil {
		return nil, err
	}
	if len(drawn) <= n {
		return nil, fmt.Errorf("schedule: drew %d arrivals, need %d", len(drawn), n+1)
	}
	scale := float64(d) / float64(drawn[n].At)
	rng := rand.New(rand.NewSource(seed))
	out := make([]loadgen.Arrival, n)
	for b := 0; b < k; b++ {
		for i, j := range rng.Perm(len(mix)) {
			a := b*len(mix) + i
			out[a] = loadgen.Arrival{At: time.Duration(float64(drawn[a].At) * scale), Cell: mix[j]}
		}
	}
	return out, nil
}

// served is one request of the open loop.
type served struct {
	cell            scenario.CellRequest
	due, sent, done time.Time
	res             *scenario.CellResult
	err             error
}

// loopOut is one driven schedule.
type loopOut struct {
	recs                   []served
	win                    windowStats
	depths                 []float64
	before, after          serve.Stats
	completed, rejected    int
	errored, verified      int
	lat, late              []time.Duration
	latBySolver            map[string][]time.Duration
	booksBalanced, matched bool
}

// openLoop fires arrivals at their due times whatever the server's
// state. Each request is timed from its due time, not its send time, so
// a stalled generator or a backlog shows in latency; how late the
// generator sent is reported on its own. With tr set, each request
// records a span from due to done with children for the wait before
// sending and for the server call.
func openLoop(srv *serve.Server, arrivals []loadgen.Arrival, refs map[scenario.CellRequest]scenario.CellResult, tr *tracer) *loopOut {
	out := &loopOut{recs: make([]served, len(arrivals)), latBySolver: map[string][]time.Duration{}}
	out.before = srv.Stats()
	win := openWindow()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := win.start.Add(a.At)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		out.recs[i] = served{cell: a.Cell, due: due, sent: time.Now()}
		out.depths = append(out.depths, float64(srv.Stats().QueueDepth))
		win.sampleHeap()
		wg.Add(1)
		go func(r *served) {
			defer wg.Done()
			r.res, r.err = srv.Do(context.Background(), r.cell)
			r.done = time.Now()
		}(&out.recs[i])
	}
	wg.Wait()
	out.win = win.close()
	out.after = srv.Stats()

	out.matched = true
	for i := range out.recs {
		r := &out.recs[i]
		out.late = append(out.late, r.sent.Sub(r.due))
		switch {
		case r.err == nil:
			out.completed++
			if *r.res != refs[r.cell] {
				out.matched = false
				continue
			}
			out.verified++
			lat := r.done.Sub(r.due)
			out.lat = append(out.lat, lat)
			out.latBySolver[r.cell.Solver] = append(out.latBySolver[r.cell.Solver], lat)
		case errors.Is(r.err, serve.ErrOverloaded):
			out.rejected++
		default:
			out.errored++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", r.cell.Solver, r.cell.Seed, r.err)
		}
		if tr != nil {
			name := fmt.Sprintf("%s/%d", r.cell.Solver, r.cell.Seed)
			root := tr.record("request", name, 0, r.due, r.done)
			tr.record("loadgen.late", name, root, r.due, r.sent)
			tr.record("serve.do", name, root, r.sent, r.done)
		}
	}
	// The books balance on both sides: every request sent ended as
	// exactly one of completed, rejected or errored, and the server
	// admitted, coalesced or rejected each one.
	sent := len(out.recs)
	d := func(f func(serve.Stats) int64) int { return int(f(out.after) - f(out.before)) }
	admitted := d(func(s serve.Stats) int64 { return s.Accepted + s.Coalesced + s.Rejected })
	out.booksBalanced = sent == out.completed+out.rejected+out.errored &&
		sent == admitted && out.rejected == d(func(s serve.Stats) int64 { return s.Rejected })
	return out
}

// attempted and failed count the loop's requests: a rejected, errored or
// mismatched response fails.
func (o *loopOut) attempted() int { return len(o.recs) }
func (o *loopOut) failed() int    { return len(o.recs) - o.verified }

// servedGate checks every mix cell's reference result against
// scenario.RunCell; every response of a mismatched cell fails.
func servedGate(mix []scenario.CellRequest, refs map[scenario.CellRequest]scenario.CellResult, loops ...*loopOut) (bool, error) {
	good := true
	for _, req := range mix {
		want, err := scenario.RunCell(req)
		if err != nil {
			return false, fmt.Errorf("RunCell %s seed %d: %w", req.Solver, req.Seed, err)
		}
		if *want == refs[req] {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: served %s seed %d differs from RunCell\n", req.Solver, req.Seed)
		good = false
		for _, o := range loops {
			for _, r := range o.recs {
				if r.cell == req && r.err == nil && *r.res == refs[req] {
					o.verified--
				}
			}
		}
	}
	return good, nil
}

func runServeMix(c config) (*result, error) {
	mix := buildMix(c.seed)
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var (
		setups []time.Duration
		srv    *serve.Server
		refs   map[scenario.CellRequest]scenario.CellResult
	)
	stable := true
	for r := 0; r < reps; r++ {
		start := time.Now()
		s, rs, err := setupServer(mix)
		if err != nil {
			if srv != nil {
				srv.Close()
			}
			return nil, err
		}
		setups = append(setups, time.Since(start))
		if srv != nil {
			srv.Close()
			for k, v := range rs {
				stable = stable && refs[k] == v
			}
		}
		srv, refs = s, rs
	}
	defer srv.Close()
	// Set-up sized the server's workers from GOMAXPROCS, one per core.
	// One more P lets the generator and the goroutines waiting on
	// responses run while both workers compute. Without it they wait
	// for the Go scheduler to preempt a worker, 10 ms or more, which
	// shows as latency the server did not cause.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1))
	if !stable {
		fmt.Fprintln(os.Stderr, "perfbench: served results differ between set-ups")
	}
	counts := make([]string, len(mix))
	for i, req := range mix {
		counts[i] = fmt.Sprintf("%+v", refs[req])
	}
	fmt.Printf("counts_digest %s\n", digest(counts))

	warmup, err := schedule(mix, settle, cellSeed(c.seed, len(mix)+1))
	if err != nil {
		return nil, err
	}
	if warm := openLoop(srv, warmup, refs, nil); warm.failed() != 0 {
		return nil, fmt.Errorf("settle: %d of %d requests failed", warm.failed(), warm.attempted())
	}
	window := c.window
	if c.trace {
		window /= 2
	}
	arrivals, err := schedule(mix, window, cellSeed(c.seed, len(mix)))
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceServeMix(c, mix, srv, refs, arrivals, stable)
	}
	lo := openLoop(srv, arrivals, refs, nil)
	good, err := servedGate(mix, refs, lo)
	if err != nil {
		return nil, err
	}
	if !lo.booksBalanced {
		fmt.Fprintln(os.Stderr, "perfbench: open-loop books do not balance")
	}
	return &result{
		Correct:   stable && good && lo.matched && lo.booksBalanced && lo.failed() == 0,
		Attempted: lo.attempted(),
		Failed:    lo.failed(),
		Metrics:   endToEnd(setups, lo.lat, lo.verified, lo.attempted(), lo.win, serveSlices),
	}, nil
}

// traceServeMix runs the schedule untraced and then traced, rebuilds
// every mix cell from the public calls with spans, and probes the
// layers the server's calls hide.
func traceServeMix(c config, mix []scenario.CellRequest, srv *serve.Server, refs map[scenario.CellRequest]scenario.CellResult, arrivals []loadgen.Arrival, stable bool) (*result, error) {
	untraced := openLoop(srv, arrivals, refs, nil)
	tr := newTracer()
	traced := openLoop(srv, arrivals, refs, tr)

	m := map[string]metric{}
	sent := float64(len(traced.recs))
	diff := func(f func(serve.Stats) int64) float64 { return float64(f(traced.after) - f(traced.before)) }
	hits, misses := diff(func(s serve.Stats) int64 { return s.PoolHits }), diff(func(s serve.Stats) int64 { return s.PoolMisses })
	m["serve.pool_hit_frac"] = metric{hits / max(hits+misses, 1), "frac"}
	m["serve.coalesced_frac"] = metric{diff(func(s serve.Stats) int64 { return s.Coalesced }) / max(sent, 1), "frac"}
	m["serve.rejected"] = metric{float64(traced.rejected), "count"}
	m["serve.queue_depth_mean"] = metric{mean(traced.depths), "count"}
	for _, s := range mixSolvers {
		m["serve."+s.solver+".ms_p50"] = metric{quantile(ms(traced.latBySolver[s.solver]), 0.5), "ms"}
	}
	m["loadgen.late_ms_p90"] = metric{quantile(ms(traced.late), 0.9), "ms"}
	m["loadgen.sent"] = metric{sent, "count"}
	gcMetrics(m, untraced.win, untraced.verified)

	rebuilt, err := rebuildMix(tr, mix, refs)
	if err != nil {
		return nil, err
	}
	path, err := tr.write(c.workload, c.seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %s\n", path)
	tot := tr.totals()
	overhead(m, untraced.lat, traced.lat, tot["request"])
	spanLayers(m, tot, "build", "solve", "verify", "checksum")
	engineCounts(m, rebuilt.details)
	m["engine.rounds"] = metric{mean(rebuilt.rounds), "count"}
	m["engine.deliveries"] = metric{mean(rebuilt.deliveries), "count"}
	pr, err := probePadded(2, rebuilt.insts, rebuilt.instSeeds, rebuilt.eng)
	if err != nil {
		return nil, err
	}
	pr.rngMs = mean(rebuilt.rngMs)
	pr.put(m)

	good, err := servedGate(mix, refs, untraced, traced)
	if err != nil {
		return nil, err
	}
	balanced := untraced.booksBalanced && traced.booksBalanced
	if !balanced {
		fmt.Fprintln(os.Stderr, "perfbench: open-loop books do not balance")
	}
	failed := untraced.failed() + traced.failed() + rebuilt.failed
	return &result{
		Correct:   stable && good && balanced && untraced.matched && traced.matched && failed == 0,
		Attempted: untraced.attempted() + traced.attempted() + rebuilt.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// sameCell reports whether a rebuilt cell's checksum and counts equal
// the served result's.
func sameCell(served scenario.CellResult, checksum uint64, rounds int, deliveries, relayWords int64) bool {
	return served.Checksum == fmt.Sprintf("%016x", checksum) && served.Rounds == rounds &&
		served.Messages == deliveries && served.RelayWords == relayWords
}

// rebuiltMix is the traced rebuild of the mix cells.
type rebuiltMix struct {
	eng                       *engine.Engine
	insts                     []*core.Instance // padded cells' instances
	instSeeds                 []int64
	details                   []*core.Detail // padded cells' solves
	rounds, deliveries, rngMs []float64      // every cell
	attempted, failed         int
}

// rebuildMix runs every mix cell outside the server. Padded cells go
// through the same calls as the registry runner (BuildInstance,
// SolveDetailed, Level.Verify, LabelingChecksum), each in its own span;
// the others through the registry entry (Prepare as build, then Run,
// which solves, verifies and fingerprints inside). Every checksum and
// count must equal the served one. Each cell also times one
// engine.DeriveRNG per node.
func rebuildMix(tr *tracer, mix []scenario.CellRequest, refs map[scenario.CellRequest]scenario.CellResult) (*rebuiltMix, error) {
	rb := &rebuiltMix{eng: engine.New(engine.Options{Workers: 1})}
	lvl, err := core.NewLevel(2)
	if err != nil {
		return nil, err
	}
	det, _, err := lvl.EngineSolvers(rb.eng)
	if err != nil {
		return nil, err
	}
	native, err := pi2Native.newSolver(lvl, rb.eng)
	if err != nil {
		return nil, err
	}
	for _, req := range mix {
		name := fmt.Sprintf("%s/%d", req.Solver, req.Seed)
		want := refs[req]
		var s *core.EnginePaddedSolver
		switch req.Solver {
		case "pi2-rand-native":
			s = native
		case "pi2-det":
			s = det
		}
		var g *graph.Graph
		if s != nil {
			id := tr.begin("build", name, 0)
			inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: req.N, Seed: req.Seed, Balanced: true})
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", name, err)
			}
			for r := 0; r < probeReps; r++ {
				sum, d, err := solveTraced(tr, name, lvl, s, inst, req.Seed)
				rb.attempted++
				if err != nil || !sameCell(want, sum, d.Cost.Rounds(), d.Engine.Deliveries(), d.Engine.TotalRelayWords()) {
					rb.failed++
					fmt.Fprintf(os.Stderr, "perfbench: rebuilt %s differs from served (%v)\n", name, err)
					continue
				}
				if r == 0 {
					rb.details = append(rb.details, d)
					rb.rounds = append(rb.rounds, float64(d.Engine.Rounds()))
					rb.deliveries = append(rb.deliveries, float64(d.Engine.Deliveries()))
				}
			}
			rb.insts = append(rb.insts, inst)
			rb.instSeeds = append(rb.instSeeds, req.Seed)
			g = inst.G
		} else {
			entry, _ := solver.ByName(req.Solver)
			sreq := solver.Request{Family: req.Family, N: req.N, Seed: req.Seed, Engine: rb.eng}
			id := tr.begin("build", name, 0)
			p, err := entry.Prepare(sreq)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", name, err)
			}
			for r := 0; r < probeReps; r++ {
				root := tr.begin("cell", name, 0)
				id := tr.begin("run", name, root)
				o, err := p.Run()
				tr.end(id)
				tr.end(root)
				rb.attempted++
				if err != nil || !sameCell(want, o.Checksum, o.Rounds, o.Stats.Deliveries, o.RelayWords) {
					rb.failed++
					fmt.Fprintf(os.Stderr, "perfbench: rebuilt %s differs from served (%v)\n", name, err)
					continue
				}
				g = o.G
				if r == 0 {
					rb.rounds = append(rb.rounds, float64(o.Stats.Rounds))
					rb.deliveries = append(rb.deliveries, float64(o.Stats.Deliveries))
				}
			}
			p.Close()
		}
		if g != nil {
			rb.rngMs = append(rb.rngMs, float64(deriveAll(req.Seed, g).Nanoseconds())/1e6)
		}
	}
	return rb, nil
}
