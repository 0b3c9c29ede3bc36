// Command lcl-scenario runs declarative workload scenarios: a JSON spec
// (or a builtin from the library) names graph families, size × seed
// grids, solvers, and engine parameters; the runner executes the grids
// on the sharded engine and emits a structured report whose canonical
// JSON is byte-identical across runs and worker counts — the format the
// CI benchmark artifact records. The report schema (locallab.report/v1)
// is documented field by field in docs/REPORT_SCHEMA.md.
//
// Parallelism precedence: a scenario's engine.workers always governs the
// engine layer inside its cells; -workers governs only the grid layer.
// Passing -workers > 1 explicitly while a scenario pins engine.workers
// > 1 is rejected loudly (exactly one layer may parallelize). With
// -autoscale and a calibrated cost twin (-twin), -workers becomes a
// total budget instead: the twin splits it between the grid and engine
// layers per cell (docs/COSTTWIN.md), still emitting byte-identical
// reports.
//
// Usage:
//
//	lcl-scenario -builtin ci-smoke -json bench.json
//	lcl-scenario -spec workload.json -workers 8
//	lcl-scenario -builtin regular -shards 64 -timing
//	lcl-scenario -builtin autoscale-mixed -autoscale -twin TWIN_0.json
//	lcl-scenario -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"locallab/internal/graph"
	"locallab/internal/measure"
	"locallab/internal/scenario"
	"locallab/internal/solver"
	"locallab/internal/twin"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lcl-scenario:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("lcl-scenario", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to a scenario spec (JSON); see -list for builtins instead")
	builtin := fs.String("builtin", "", "run a builtin spec by name (see -list)")
	list := fs.Bool("list", false, "list builtin specs, graph families, and solvers, then exit")
	jsonOut := fs.String("json", "", "write the canonical JSON report to this file ('-' for stdout); schema documented in docs/REPORT_SCHEMA.md")
	workers := fs.Int("workers", 0, "grid workers: each scenario's (size × seed) cells run this wide (0 = GOMAXPROCS); spec engine.workers governs the engine layer, and an explicit value > 1 conflicts loudly with spec-pinned engine workers")
	shards := fs.Int("shards", 0, "override engine shards for engine-aware solvers (0 = spec values; outputs identical either way)")
	timing := fs.Bool("timing", false, "record per-cell wall time in the report (makes reports non-byte-identical)")
	autoscale := fs.Bool("autoscale", false, "twin-driven adaptive split: -workers becomes a total budget divided between the grid and engine layers per cell (requires -twin); report bytes identical to the static split")
	twinPath := fs.String("twin", "", "path to a locallab.twin/v1 artifact (e.g. TWIN_0.json) for -autoscale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// An explicit -workers 0 means "the adaptive default" per the flag
	// help, so only positive values count as an explicit width request.
	workersExplicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" && *workers > 0 {
			workersExplicit = true
		}
	})
	if *list {
		printList(stdout)
		return nil
	}
	spec, err := selectSpec(*specPath, *builtin)
	if err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	var tw *twin.Twin
	if *twinPath != "" {
		tw, err = twin.LoadFile(*twinPath)
		if err != nil {
			return err
		}
	}
	if *autoscale && tw == nil {
		return fmt.Errorf("-autoscale requires -twin (calibrate one with lcl-bench -calibrate)")
	}
	rep, err := scenario.Run(spec, scenario.RunOptions{
		GridWorkers:         *workers,
		GridWorkersExplicit: workersExplicit,
		ShardOverride:       *shards,
		Timing:              *timing,
		Autoscale:           *autoscale,
		Twin:                tw,
	})
	if err != nil {
		return err
	}
	if *jsonOut == "-" {
		data, err := rep.CanonicalJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	}
	printReport(stdout, rep)
	if *jsonOut != "" {
		if err := rep.WriteFile(*jsonOut); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "report written to", *jsonOut)
	}
	return nil
}

func selectSpec(specPath, builtin string) (*scenario.Spec, error) {
	switch {
	case specPath != "" && builtin != "":
		return nil, fmt.Errorf("-spec and -builtin are mutually exclusive")
	case specPath != "":
		return scenario.LoadFile(specPath)
	case builtin != "":
		spec, ok := scenario.Builtin(builtin)
		if !ok {
			return nil, fmt.Errorf("unknown builtin %q (use -list)", builtin)
		}
		return spec, nil
	default:
		return nil, fmt.Errorf("nothing to run: pass -spec or -builtin (use -list)")
	}
}

func printList(w *os.File) {
	fmt.Fprintln(w, "builtin specs:")
	for _, s := range scenario.Builtins() {
		fmt.Fprintf(w, "  %-18s %d scenarios\n", s.Name, len(s.Scenarios))
	}
	fmt.Fprintln(w, "\ngraph families:")
	for _, f := range graph.Families() {
		fmt.Fprintf(w, "  %-18s min %-5d %s\n", f.Name, f.MinSize, f.Description)
	}
	fmt.Fprintf(w, "  %-18s min %-5d %s\n", scenario.PaddedFamily, scenario.PaddedMinSize,
		"padded hierarchy instances, any Πᵢ level (sizes are base-graph nodes)")
	fmt.Fprintln(w, "\nsolvers:")
	for _, s := range solver.Registry() {
		fmt.Fprintf(w, "  %-18s %s\n", s.Name, s.Description)
	}
}

func printReport(w *os.File, rep *scenario.Report) {
	for _, sr := range rep.Scenarios {
		fmt.Fprintf(w, "## %s — %s on %s\n\n", sr.Name, sr.Solver, sr.Family)
		headers := []string{"n", "seed", "nodes", "edges", "rounds", "messages", "checksum"}
		rows := make([][]string, len(sr.Cells))
		for i, c := range sr.Cells {
			rows[i] = []string{
				fmt.Sprint(c.N), fmt.Sprint(c.Seed), fmt.Sprint(c.Nodes), fmt.Sprint(c.Edges),
				fmt.Sprint(c.Rounds), fmt.Sprint(c.Messages), c.Checksum,
			}
		}
		fmt.Fprintln(w, measure.Table(headers, rows))
	}
}
