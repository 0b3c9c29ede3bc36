package solver

import (
	"reflect"
	"strings"
	"testing"

	"locallab/internal/core"
	"locallab/internal/engine"
)

// TestOracleEntriesMatchNativeChecksums: every engine and gather row of
// the padded table must fingerprint the same labeling as the oracle row
// sharing its (level, inner) — the registry-level face of the
// native-inner differential tests.
func TestOracleEntriesMatchNativeChecksums(t *testing.T) {
	req := Request{Family: PaddedFamily, N: 12, Seed: 3}
	oracles := map[[2]int]*Outcome{}
	for _, r := range paddedRows {
		if r.plane != planeOracle {
			continue
		}
		o, err := r.entry().Run(req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if o.Stats.Deliveries != 0 {
			t.Fatalf("%s: oracle entry reported engine deliveries", r.name)
		}
		oracles[[2]int{r.level, int(r.inner)}] = o
	}
	for _, r := range paddedRows {
		if r.plane == planeOracle {
			continue
		}
		oo, ok := oracles[[2]int{r.level, int(r.inner)}]
		if !ok {
			t.Fatalf("%s: no oracle row shares its level and inner", r.name)
		}
		e, ok := ByName(r.name)
		if !ok {
			t.Fatalf("entry %q missing", r.name)
		}
		no, err := e.Run(Request{Family: req.Family, N: req.N, Seed: req.Seed,
			Engine: engine.New(engine.Options{Workers: 2, Shards: 8})})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if r.plane == planeGather && no.Padded.Engine.RelayNative {
			t.Fatalf("%s: gather row ran native machines", r.name)
		}
		if no.Checksum != oo.Checksum {
			t.Fatalf("%s checksum %016x differs from its oracle's %016x", r.name, no.Checksum, oo.Checksum)
		}
		if no.Stats.Deliveries <= 0 {
			t.Fatalf("%s: engine entry reported no deliveries", r.name)
		}
	}
}

func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || e.Description == "" || e.Prepare == nil || e.DefaultFamily == "" {
			t.Errorf("entry %q incomplete", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		seen[e.Name] = true
		// Padded entries run on the engine, except the sequential-oracle
		// references (marked by the explicit Oracle attribute).
		if e.Padded && !e.EngineAware && !e.Oracle {
			t.Errorf("entry %q: padded entries must run on the engine", e.Name)
		}
		if e.Oracle && e.EngineAware {
			t.Errorf("entry %q: oracle entries are sequential references and must not be engine-aware", e.Name)
		}
		if err := e.CheckFamily(e.DefaultFamily); err != nil {
			t.Errorf("entry %q rejects its own default family: %v", e.Name, err)
		}
	}
	for _, name := range []string{"cole-vishkin", "sinkless-msg", "pi2-det", "pi2-rand", "netdecomp"} {
		if !seen[name] {
			t.Errorf("missing entry %q", name)
		}
	}
}

// TestNamesCanonicalOrder pins the builtin names and their order: they
// feed the "(known: …)" error texts, /v1/solvers, and every report and
// benchmark that looks entries up by name.
func TestNamesCanonicalOrder(t *testing.T) {
	want := []string{
		"cole-vishkin", "mis", "matching", "orientation", "trivial",
		"sinkless-det", "sinkless-rand", "sinkless-msg", "netdecomp",
		"pi2-det", "pi2-rand", "pi3-det", "pi3-rand",
		"pi2-rand-native", "pi2-rand-gather",
		"pi2-det-oracle", "pi2-rand-oracle", "pi3-det-oracle", "pi3-rand-oracle",
		"pi2-rand-native-oracle",
	}
	if got := strings.Join(Names(), ","); got != strings.Join(want, ",") {
		t.Fatalf("Names() = %s\nwant      %s", got, strings.Join(want, ","))
	}
}

func TestByNameAlias(t *testing.T) {
	direct, ok := ByName("cole-vishkin")
	if !ok {
		t.Fatal("cole-vishkin missing")
	}
	alias, ok := ByName("3coloring")
	if !ok {
		t.Fatal("3coloring alias missing")
	}
	if direct.Name != alias.Name {
		t.Fatalf("alias resolves to %q, want %q", alias.Name, direct.Name)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name accepted")
	}
}

func TestCheckFamily(t *testing.T) {
	cv, _ := ByName("cole-vishkin")
	if err := cv.CheckFamily("cycle-advid"); err != nil {
		t.Errorf("cycle-advid rejected: %v", err)
	}
	if err := cv.CheckFamily("regular"); err == nil {
		t.Error("cycle-only entry accepted regular")
	}
	if err := cv.CheckFamily(PaddedFamily); err == nil {
		t.Error("graph entry accepted padded family")
	}
	pi, _ := ByName("pi2-det")
	if err := pi.CheckFamily(PaddedFamily); err != nil {
		t.Errorf("padded entry rejects padded family: %v", err)
	}
	if err := pi.CheckFamily("regular"); err == nil {
		t.Error("padded entry accepted a graph family")
	}
	sk, _ := ByName("sinkless-det")
	if err := sk.CheckFamily("moebius"); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestPaddedEntryReportsEngineStats is the registry-level acceptance
// check: padded cells execute on the engine and report nonzero
// deterministic delivery counts, identical across engine geometries.
func TestPaddedEntryReportsEngineStats(t *testing.T) {
	entry, _ := ByName("pi2-det")
	var first *Outcome
	for _, opts := range []engine.Options{{Workers: 1}, {Workers: 4, Shards: 16}, {Workers: 2, Shards: 5}} {
		o, err := entry.Run(Request{Family: PaddedFamily, N: 12, Seed: 1, Engine: engine.New(opts)})
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if o.Stats.Deliveries <= 0 || o.Stats.Rounds <= 0 {
			t.Fatalf("%+v: padded cell reported empty engine stats %+v", opts, o.Stats)
		}
		if o.Stats.Rounds > o.Rounds {
			t.Fatalf("%+v: measured rounds %d exceed analytical bound %d", opts, o.Stats.Rounds, o.Rounds)
		}
		if first == nil {
			first = o
			continue
		}
		if o.Checksum != first.Checksum || o.Stats != first.Stats || o.Rounds != first.Rounds {
			t.Fatalf("%+v: outcome differs across engine geometries", opts)
		}
	}
}

// TestLCLEntriesReportOwnProfile: the engine-aware family rows return
// each Run's engine profile from that Run's held session. Dense sessions
// deliver every port slot in every round but the last, so a Run's
// deliveries are fixed by its rounds and the graph; a profile that is
// missing, or belongs to no Run, breaks that identity.
func TestLCLEntriesReportOwnProfile(t *testing.T) {
	for _, tc := range []struct {
		name, family string
		n            int
	}{
		{"cole-vishkin", "cycle", 64},
		{"sinkless-msg", "regular", 64},
	} {
		e, _ := ByName(tc.name)
		for _, workers := range []int{1, 2} {
			p, err := e.Prepare(Request{Family: tc.family, N: tc.n, Seed: 1, Engine: engine.New(engine.Options{Workers: workers})})
			if err != nil {
				t.Fatalf("%s workers=%d: prepare: %v", tc.name, workers, err)
			}
			for run := 1; run <= 2; run++ {
				o, err := p.Run()
				if err != nil {
					p.Close()
					t.Fatalf("%s workers=%d run %d: %v", tc.name, workers, run, err)
				}
				if o.Stats.Rounds <= 0 || o.Stats.Rounds != o.Rounds {
					t.Errorf("%s workers=%d run %d: engine rounds %d, charged rounds %d",
						tc.name, workers, run, o.Stats.Rounds, o.Rounds)
				}
				if want := int64(o.Stats.Rounds-1) * int64(o.G.NumPorts()); o.Stats.Deliveries != want {
					t.Errorf("%s workers=%d run %d: deliveries %d, want (rounds−1)·ports = %d",
						tc.name, workers, run, o.Stats.Deliveries, want)
				}
			}
			p.Close()
		}
	}
}

// TestPreparedRunRepeatable: every registry entry's Prepared must be
// reusable — repeated Run calls on one Prepared return the same outcome
// as a fresh prepare-and-run. This is the contract the serving layer's
// session pool stands on.
func TestPreparedRunRepeatable(t *testing.T) {
	for _, e := range Registry() {
		req := Request{Family: e.DefaultFamily, N: 16, Seed: 5}
		if e.DefaultFamily == PaddedFamily {
			req.N = 12
		}
		if e.CycleOnly || e.DefaultFamily == "cycle" {
			req.N = 33
		}
		if e.EngineAware {
			req.Engine = engine.New(engine.Options{Workers: 2, Shards: 8})
		}
		p, err := e.Prepare(req)
		if err != nil {
			t.Fatalf("%s: prepare: %v", e.Name, err)
		}
		first, err := p.Run()
		if err != nil {
			p.Close()
			t.Fatalf("%s: first run: %v", e.Name, err)
		}
		again, err := p.Run()
		if err != nil {
			p.Close()
			t.Fatalf("%s: second run: %v", e.Name, err)
		}
		p.Close()
		if again.Checksum != first.Checksum || again.Rounds != first.Rounds || again.Stats != first.Stats ||
			again.RelayWords != first.RelayWords {
			t.Fatalf("%s: repeated run differs: %+v vs %+v", e.Name, again, first)
		}
		fresh, err := e.Run(req)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", e.Name, err)
		}
		if fresh.Checksum != first.Checksum {
			t.Fatalf("%s: fresh checksum %016x differs from prepared %016x", e.Name, fresh.Checksum, first.Checksum)
		}
	}
}

// TestHeldRunsLeaveInputUnchanged: every padded row's Runs read the
// cell's one input labeling without a copy, so no Run may write to it.
// Each Run must return the cell's own input, deep-equal to a separately
// built snapshot of the same instance.
func TestHeldRunsLeaveInputUnchanged(t *testing.T) {
	for _, r := range paddedRows {
		req := Request{Family: PaddedFamily, N: 4, Seed: 4}
		if r.plane != planeOracle {
			req.Engine = engine.New(engine.Options{Workers: 2, Shards: 4})
		}
		snap, err := core.BuildInstance(r.level, core.InstanceOptions{BaseNodes: req.N, Seed: req.Seed, Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.entry().Prepare(req)
		if err != nil {
			t.Fatalf("%s: prepare: %v", r.name, err)
		}
		for run := 1; run <= 3; run++ {
			o, err := p.Run()
			if err != nil {
				p.Close()
				t.Fatalf("%s: run %d: %v", r.name, run, err)
			}
			if o.In != o.Instance.In {
				p.Close()
				t.Fatalf("%s: run %d: Outcome.In is not the cell's input", r.name, run)
			}
			if !reflect.DeepEqual(o.Instance.In, snap.In) {
				p.Close()
				t.Fatalf("%s: run %d changed the cell's input", r.name, run)
			}
		}
		p.Close()
	}
}

// TestEngineUnawareEntriesIgnoreEngine: non-engine entries run fine with
// a nil engine and report zero stats.
func TestEngineUnawareEntriesIgnoreEngine(t *testing.T) {
	for _, name := range []string{"sinkless-det", "mis", "netdecomp"} {
		e, _ := ByName(name)
		fam := e.DefaultFamily
		n := 64
		if fam == "cycle" {
			n = 33
		}
		o, err := e.Run(Request{Family: fam, N: n, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Stats != (engine.Stats{}) {
			t.Errorf("%s: non-engine entry reported engine stats %+v", name, o.Stats)
		}
		if o.Checksum == 0 || o.Cost == nil {
			t.Errorf("%s: incomplete outcome", name)
		}
	}
}
