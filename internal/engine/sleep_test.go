package engine_test

import (
	"fmt"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// waveMachine forwards tokens and sleeps between them. A token is a
// positive word whose low byte is its remaining hop count. Sources fire
// shots tokens, one every `every` rounds, and stay awake (not done)
// until the last one; every node digests what it receives and forwards a
// token with hops left, to the next port or (spread) to every other
// port. A node that sent nothing is quiet; if it also has no shot left it
// is, unless it insists on staying awake, asleep. It is done once it is
// asleep and linger rounds have passed since its last receipt, so a
// lingering node sleeps before it is done and reports the round it will
// be done in; it reads that round from the session's clock. With only
// zero words arriving it changes nothing, so it keeps the Sleeper
// contract. A liar breaks it: lieAsleep reports done and asleep,
// lieQuiet reports quiet, even in rounds it forwards; lieDoneAt reports
// a doneAt one round early.
type waveMachine struct {
	id       int64
	digest   uint64
	shots    int
	every    int
	fuse     int
	ttl      int64
	spread   bool
	awake    bool
	linger   int
	lastRecv int
	liar     lie
	done     bool
	silent   bool
	// clock is the session's round (Session.Rounds); without one the
	// machine counts its calls in ticks, which RunReference makes every
	// round.
	clock func() int
	ticks int
	// calls, lastCall and early are instrumentation only: never read by
	// Round.
	calls, lastCall int
	early           bool
	pattern         wavePattern
}

// lie selects how a waveMachine breaks the Sleeper contract.
type lie int

const (
	honest lie = iota
	lieAsleep
	lieQuiet
	lieDoneAt
)

// wavePattern is one node's behaviour, drawn from (seed, identifier).
type wavePattern struct {
	shots, every int
	ttl          int64
	spread       bool
	awake        bool
	linger       int
}

func (m *waveMachine) Init(info engine.NodeInfo) {
	m.id = info.ID
	m.digest = uint64(info.ID)
	m.shots, m.every, m.fuse = m.pattern.shots, m.pattern.every, m.pattern.every
	m.ttl, m.spread, m.awake = m.pattern.ttl, m.pattern.spread, m.pattern.awake
	m.linger, m.lastRecv, m.ticks = m.pattern.linger, 0, 0
	if info.Degree == 0 {
		m.shots = 0 // nowhere to fire
	}
	// A node with nothing to fire is asleep from the start.
	m.done, m.silent = m.shots == 0 && m.linger == 0, true
}

func (m *waveMachine) round() int {
	if m.clock != nil {
		return m.clock()
	}
	return m.ticks
}

func (m *waveMachine) Round(recv, send []int64) bool {
	m.calls++
	m.ticks++
	m.lastCall = m.round()
	for p := range send {
		send[p] = 0
	}
	for p, x := range recv {
		if x == 0 {
			continue
		}
		m.digest = m.digest*31 + uint64(x) + uint64(p)
		m.lastRecv = m.round()
		if x&0xff <= 1 {
			continue
		}
		fwd := x - 1
		if !m.spread {
			q := (p + 1) % len(send)
			send[q] = max(send[q], fwd)
			continue
		}
		for q := range send {
			if q != p || len(send) == 1 {
				send[q] = max(send[q], fwd)
			}
		}
	}
	if m.shots > 0 {
		if m.fuse--; m.fuse <= 0 {
			send[0] = max(send[0], m.id<<8|m.ttl)
			m.shots--
			m.fuse = m.every
		}
	}
	m.silent = true
	for _, x := range send {
		if x != 0 {
			m.silent = false
		}
	}
	m.done = m.shots == 0 && (m.silent || m.liar == lieAsleep) && m.round() >= m.lastRecv+m.linger
	return m.done
}

func (m *waveMachine) Quiet() bool { return m.silent || m.liar == lieQuiet }

func (m *waveMachine) Asleep() (bool, int) {
	doneAt := m.lastRecv + m.linger
	switch m.liar {
	case lieAsleep:
		return m.done, doneAt
	case lieDoneAt:
		doneAt--
	}
	asleep := m.shots == 0 && m.silent && !m.awake
	if asleep && !m.done {
		m.early = true
	}
	return asleep, doneAt
}

// wavePatterns draws every node's behaviour from seed: mostly pure
// forwarders, some sources, a few that never sleep, and about half
// lingering before they are done.
func wavePatterns(g *graph.Graph, seed int64) []wavePattern {
	out := make([]wavePattern, g.NumNodes())
	for v := range out {
		x := mix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(g.ID(graph.NodeID(v))))
		out[v] = wavePattern{
			shots:  []int{0, 0, 0, 0, 0, 0, 1, 2, 3}[x%9],
			every:  1 + int(x>>8)%5,
			ttl:    1 + int64(x>>16)%12,
			spread: (x>>24)%4 == 0,
			awake:  (x>>32)%10 == 0,
			linger: []int{0, 0, 1, 3, 7}[(x>>40)%5],
		}
	}
	return out
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// waveRun is one execution's observable result, with the Round calls
// made, the round of the last one, and how many machines fell asleep
// before they were done.
type waveRun struct {
	digests  []uint64
	stats    engine.Stats
	calls    int
	lastCall int
	early    int
}

// waveExec is how runWaves executes: RunReference, or a session under
// opts with itc installed, whose round the machines read.
type waveExec struct {
	ref  bool
	opts engine.Options
	itc  engine.Interceptor[int64]
}

var reference = waveExec{ref: true}

func onSession(opts engine.Options) waveExec { return waveExec{opts: opts} }

// runWaves executes wave machines under exec; every node lies as liar
// says.
func runWaves(t testing.TB, g *graph.Graph, pats []wavePattern, liar lie, exec waveExec) waveRun {
	t.Helper()
	machines := make([]waveMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range machines {
		machines[v].pattern = pats[v]
		machines[v].liar = liar
		typed[v] = &machines[v]
	}
	var stats engine.Stats
	var err error
	if exec.ref {
		stats, err = engine.RunReference(g, typed, 1, false, 2000)
	} else {
		s, serr := engine.NewSession(exec.opts, g, typed)
		if serr != nil {
			t.Fatal(serr)
		}
		defer s.Close()
		for v := range machines {
			machines[v].clock = s.Rounds
		}
		if exec.itc != nil {
			s.SetInterceptor(exec.itc)
		}
		stats, err = s.Run(1, false, 2000)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := waveRun{digests: make([]uint64, len(machines)), stats: stats}
	for v := range machines {
		out.digests[v] = machines[v].digest
		out.calls += machines[v].calls
		out.lastCall = max(out.lastCall, machines[v].lastCall)
		if machines[v].early {
			out.early++
		}
	}
	return out
}

// sameWaves reports how got differs from the reference execution, or "".
func sameWaves(got, want waveRun) string {
	if got.stats.Rounds != want.stats.Rounds || got.stats.Deliveries != want.stats.Deliveries {
		return fmt.Sprintf("rounds/deliveries %d/%d, want %d/%d",
			got.stats.Rounds, got.stats.Deliveries, want.stats.Rounds, want.stats.Deliveries)
	}
	for v := range want.digests {
		if got.digests[v] != want.digests[v] {
			return fmt.Sprintf("node %d digest diverged", v)
		}
	}
	return ""
}

func sleepGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := testGraphs(t)
	path, err := graph.NewPath(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	out["path60"] = path
	cyc, err := graph.NewCycle(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	out["cycle8"] = cyc
	reg, err := graph.NewRandomRegular(64, 4, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	out["regular64x4"] = reg
	return out
}

// sleepGeometries is workers 1–3 × shard counts 1/2/3/7.
func sleepGeometries() []engine.Options {
	var out []engine.Options
	for w := 1; w <= 3; w++ {
		for _, s := range []int{1, 2, 3, 7} {
			out = append(out, engine.Options{Workers: w, Shards: s})
		}
	}
	return out
}

// TestSleepScheduleMatchesReference differential-tests the sparse
// schedule: sessions of wave machines, which sleep between tokens and
// often before they are done, give RunReference's digests, Rounds and
// Deliveries under every geometry, while calling the machines fewer
// times than the dense loop would.
func TestSleepScheduleMatchesReference(t *testing.T) {
	for name, g := range sleepGraphs(t) {
		sparse, dense, early := 0, 0, 0
		for seed := int64(1); seed <= 3; seed++ {
			pats := wavePatterns(g, seed)
			want := runWaves(t, g, pats, honest, reference)
			for _, opts := range sleepGeometries() {
				got := runWaves(t, g, pats, honest, onSession(opts))
				if d := sameWaves(got, want); d != "" {
					t.Fatalf("%s seed %d %+v: %s", name, seed, opts, d)
				}
				sparse += got.calls
				dense += want.calls
				early += got.early
			}
		}
		t.Logf("%s: %d Round calls, dense %d; %d early sleeps", name, sparse, dense, early)
		if sparse >= dense {
			t.Errorf("%s: %d Round calls, dense %d: nothing slept", name, sparse, dense)
		}
		if early == 0 {
			t.Errorf("%s: no machine slept before it was done", name)
		}
	}
}

// TestSleepScheduleCatchesLiar is the differential test's negative
// case: machines that report Asleep, or Quiet, in rounds they still send
// lose their tokens under the sparse schedule, and the comparison with
// RunReference sees it. A keeper source on a cycle of forwarders keeps
// the execution alive while its tokens travel.
func TestSleepScheduleCatchesLiar(t *testing.T) {
	g, err := graph.NewCycle(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	pats := make([]wavePattern, g.NumNodes())
	for v := range pats {
		pats[v] = wavePattern{every: 1, ttl: 8}
	}
	pats[0] = wavePattern{shots: 4, every: 5, ttl: 8}
	opts := engine.Options{Workers: 1, Shards: 3}
	if d := sameWaves(runWaves(t, g, pats, honest, onSession(opts)),
		runWaves(t, g, pats, honest, reference)); d != "" {
		t.Fatalf("honest sleepers: %s", d)
	}
	for _, liar := range []lie{lieAsleep, lieQuiet} {
		want := runWaves(t, g, pats, liar, reference)
		if sameWaves(runWaves(t, g, pats, liar, onSession(opts)), want) == "" {
			t.Fatalf("lie %d matched the reference: the differential test cannot see a broken contract", liar)
		}
	}
	// Lingering forwarders sleep before they are done; one that reports
	// its doneAt a round early ends the run a round early.
	for v := range pats {
		pats[v].linger = 3
	}
	honestRun := runWaves(t, g, pats, honest, onSession(opts))
	if d := sameWaves(honestRun, runWaves(t, g, pats, honest, reference)); d != "" {
		t.Fatalf("honest lingering sleepers: %s", d)
	}
	if honestRun.lastCall >= honestRun.stats.Rounds {
		t.Fatalf("last Round call in round %d of %d: the run did not end on doneAt alone",
			honestRun.lastCall, honestRun.stats.Rounds)
	}
	want := runWaves(t, g, pats, lieDoneAt, reference)
	got := runWaves(t, g, pats, lieDoneAt, onSession(opts))
	if sameWaves(got, want) == "" {
		t.Fatal("an early doneAt matched the reference: the differential test cannot see it")
	}
	if got.stats.Rounds >= want.stats.Rounds {
		t.Fatalf("early doneAt ran %d rounds, want fewer than the reference's %d", got.stats.Rounds, want.stats.Rounds)
	}
}

// TestSleepersLingerFromInit: machines asleep from Init but not yet done
// keep the run going until their doneAt, although no Round is called at
// all, and it ends in the reference's round.
func TestSleepersLingerFromInit(t *testing.T) {
	g, err := graph.NewCycle(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	pats := make([]wavePattern, g.NumNodes())
	for v := range pats {
		pats[v] = wavePattern{linger: 5}
	}
	want := runWaves(t, g, pats, honest, reference)
	if want.stats.Rounds != 5 {
		t.Fatalf("reference ran %d rounds, want 5", want.stats.Rounds)
	}
	for _, opts := range sleepGeometries() {
		got := runWaves(t, g, pats, honest, onSession(opts))
		if d := sameWaves(got, want); d != "" {
			t.Fatalf("%+v: %s", opts, d)
		}
		if got.calls != 0 {
			t.Fatalf("%+v: %d Round calls, want none", opts, got.calls)
		}
	}
}

// countingItc records which receiver slots each delivery phase saw.
type countingItc struct {
	seen   []int32
	round  int
	rounds int
	bad    string
}

func (c *countingItc) BeginRound(r int) {
	c.check()
	c.round = r
	c.rounds++
}

func (c *countingItc) Deliver(p int32, m int64) int64 {
	c.seen[p]++
	return m
}

// check verifies that the delivery phase just finished saw every slot
// exactly once, and clears the tally.
func (c *countingItc) check() {
	if c.round == 0 {
		return
	}
	for p, k := range c.seen {
		if k != 1 && c.bad == "" {
			c.bad = fmt.Sprintf("round %d: slot %d delivered %d times", c.round, p, k)
		}
		c.seen[p] = 0
	}
}

// TestInterceptorKeepsSleepersDense: with an interceptor installed, a
// session of sleepers runs the dense loop. Deliver sees every receiver
// slot in every delivery phase, every machine is called every round, and
// the execution still equals RunReference.
func TestInterceptorKeepsSleepersDense(t *testing.T) {
	for name, g := range sleepGraphs(t) {
		pats := wavePatterns(g, 2)
		want := runWaves(t, g, pats, honest, reference)
		for _, opts := range []engine.Options{{Workers: 1}, {Workers: 3, Shards: 7}} {
			itc := &countingItc{seen: make([]int32, g.NumPorts())}
			got := runWaves(t, g, pats, honest, waveExec{opts: opts, itc: itc})
			itc.check()
			if d := sameWaves(got, want); d != "" {
				t.Fatalf("%s %+v: %s", name, opts, d)
			}
			if itc.bad != "" {
				t.Fatalf("%s %+v: %s", name, opts, itc.bad)
			}
			if itc.rounds != want.stats.Rounds-1 {
				t.Fatalf("%s %+v: %d delivery phases, want %d", name, opts, itc.rounds, want.stats.Rounds-1)
			}
			if got.calls != want.calls {
				t.Fatalf("%s %+v: %d Round calls, want the dense %d", name, opts, got.calls, want.calls)
			}
		}
	}
}

// TestInterceptorAfterResetPanics: a session of sleepers picks its
// schedule at Reset, so an interceptor installed after Reset would miss
// the slots of sleeping nodes; Step refuses to run rather than do that.
func TestInterceptorAfterResetPanics(t *testing.T) {
	g, err := graph.NewCycle(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pats := wavePatterns(g, 1)
	machines := make([]waveMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range machines {
		machines[v].pattern = pats[v]
		typed[v] = &machines[v]
	}
	s, err := engine.NewSession(engine.Options{Workers: 1}, g, typed)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset(1, false)
	s.SetInterceptor(identityItc{})
	defer func() {
		if recover() == nil {
			t.Fatal("Step ran a sparse schedule under an interceptor")
		}
	}()
	s.Step()
}

// TestStepAfterTerminationCallsAwakeOnly: Step on a terminated session
// of sleepers calls only the machines still awake, and it changes none
// of the sleeping machines' state.
func TestStepAfterTerminationCallsAwakeOnly(t *testing.T) {
	g, err := graph.NewRandomRegular(64, 4, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	pats := wavePatterns(g, 1)
	machines := make([]waveMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	awake := 0
	for v := range machines {
		machines[v].pattern = pats[v]
		typed[v] = &machines[v]
		if pats[v].awake {
			awake++
		}
	}
	for _, opts := range []engine.Options{{Workers: 1, Shards: 3}, {Workers: 3, Shards: 7}} {
		s, err := engine.NewSession(opts, g, typed)
		if err != nil {
			t.Fatal(err)
		}
		for v := range machines {
			machines[v].clock = s.Rounds
		}
		if _, err := s.Run(1, false, 2000); err != nil {
			t.Fatal(err)
		}
		before := 0
		for v := range machines {
			before += machines[v].calls
		}
		for range 2 {
			if !s.Step() {
				t.Fatal("terminated session resumed")
			}
		}
		after := 0
		for v := range machines {
			after += machines[v].calls
		}
		s.Close()
		if after-before != 2*awake {
			t.Fatalf("%+v: two Steps after termination made %d Round calls, want 2×%d awake machines",
				opts, after-before, awake)
		}
	}
}

// FuzzSleepSchedule compares sessions of wave machines — random small
// graphs, random sleep/send patterns, a random geometry — with
// RunReference.
func FuzzSleepSchedule(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(10), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(17), uint8(1), uint8(2))
	f.Add(int64(3), uint8(2), uint8(30), uint8(2), uint8(6))
	f.Add(int64(4), uint8(3), uint8(5), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kind, size, workers, shards uint8) {
		n := 3 + int(size)%48
		var g *graph.Graph
		var err error
		switch kind % 4 {
		case 0:
			g, err = graph.NewCycle(n, seed)
		case 1:
			g, err = graph.NewPath(n, seed)
		case 2:
			g, err = graph.NewRandomRegular(n+n%2, 3, seed, false)
		default:
			g, err = graph.NewRandomRegular(n, 4, seed, false)
		}
		if err != nil {
			t.Skip(err)
		}
		pats := wavePatterns(g, seed)
		want := runWaves(t, g, pats, honest, reference)
		opts := engine.Options{Workers: 1 + int(workers)%3, Shards: 1 + int(shards)%8}
		got := runWaves(t, g, pats, honest, onSession(opts))
		if d := sameWaves(got, want); d != "" {
			t.Fatalf("%+v: %s", opts, d)
		}
	})
}
