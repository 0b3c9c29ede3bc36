// Command lcl-bench runs the full experiment suite — one experiment per
// figure/theorem of the paper, in the order of experiments.Registry —
// and prints their tables, optionally as a locallab.report/v1 JSON report.
//
// Usage:
//
//	lcl-bench [-quick] [-only E-F1,E-T11] [-workers 8] [-json out.json]
//	lcl-bench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	lcl-bench -calibrate BENCH_0.json -json TWIN_0.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"locallab/internal/experiments"
	"locallab/internal/scenario"
	"locallab/internal/solver"
	"locallab/internal/twin"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lcl-bench:", err)
		os.Exit(1)
	}
}

// writeMemProfile snapshots the heap into path after a GC, so the
// profile reflects the final live set.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// runCalibrate fits the cost twin from a report and writes the
// canonical locallab.twin/v1 artifact: the calibration mode behind
// TWIN_0.json and the CI twin-smoke recalibration (docs/COSTTWIN.md).
func runCalibrate(reportPath, out string) error {
	t, err := twin.CalibrateFile(reportPath)
	if err != nil {
		return err
	}
	if out == "" {
		out = "TWIN.json"
	}
	if err := t.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("twin calibrated from %s (%d models, source %q)\n", reportPath, len(t.Models), t.Source)
	fmt.Printf("max relative error: rounds %.4f, deliveries %.4f, relay_words %.4f (tolerance %.2f)\n",
		t.Errors.Rounds.MaxRel, t.Errors.Deliveries.MaxRel, t.Errors.RelayWords.MaxRel, t.Tolerance)
	fmt.Println("twin written to", out)
	return nil
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("lcl-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "small sizes (seconds instead of minutes)")
	only := fs.String("only", "", "comma-separated experiment ids to run (default all)")
	workers := fs.Int("workers", 0, "sweep-grid workers: the (size × seed) cells of each measurement sweep run this wide (0 = GOMAXPROCS)")
	jsonOut := fs.String("json", "", "also write the experiment tables as a machine-readable report to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	listSolvers := fs.Bool("list-solvers", false, "list the unified solver registry (shared with lcl-run and lcl-scenario) and exit")
	calibrate := fs.String("calibrate", "", "calibrate the analytical cost twin from a locallab.report/v1 report file and write the locallab.twin/v1 artifact to -json (default TWIN.json); skips the experiment suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calibrate != "" {
		return runCalibrate(*calibrate, *jsonOut)
	}
	if *listSolvers {
		for _, e := range solver.Registry() {
			fmt.Printf("%-16s %s\n", e.Name, e.Description)
		}
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err != nil {
				return // keep the run's own error; no profile to report
			}
			err = writeMemProfile(*memprofile)
		}()
	}
	// Exactly one layer fans out across -workers: the sweep grid of E-F1
	// and E-T11, whose independent (size × seed) cells are the bulk of
	// the work. Experiments run in order, and every engine-aware solver
	// inside a cell runs on a one-worker engine (internal/experiments).
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[id] = true
		}
	}
	h := &experiments.Harness{Scale: scale, SweepWorkers: *workers, Only: wanted}
	results, err := h.Run()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("## %s — %s\n\n%s\n", r.ID, r.Title, r.Table)
		for _, n := range r.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Println()
	}
	if *jsonOut != "" {
		name := "experiments-full"
		if *quick {
			name = "experiments-quick"
		}
		if err := scenario.ExperimentReport(name, results).WriteFile(*jsonOut); err != nil {
			return err
		}
		fmt.Println("report written to", *jsonOut)
	}
	return nil
}
