// Package measure provides the experiment harness: size sweeps with
// repetition, growth-model fitting against the complexity classes of the
// paper's Figure 1, and plain-text table rendering for EXPERIMENTS.md.
package measure

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Point is one measured locality: rounds on an instance with N nodes.
type Point struct {
	N      int
	Rounds float64
}

// Series is a labeled measurement sweep.
type Series struct {
	Label  string
	Points []Point
}

// Model is a candidate growth class T(n) ≈ c·F(n).
type Model struct {
	Name string
	F    func(n float64) float64
}

// logStar is the iterated logarithm (base 2).
func logStar(n float64) float64 {
	s := 0.0
	for n > 1 {
		n = math.Log2(n)
		s++
	}
	return s
}

// Models lists the growth classes appearing in the paper's landscape
// (Figure 1), ordered roughly by growth.
func Models() []Model {
	log := math.Log2
	loglog := func(n float64) float64 { return math.Max(1, log(math.Max(2, log(math.Max(2, n))))) }
	return []Model{
		{Name: "1", F: func(n float64) float64 { return 1 }},
		{Name: "log*", F: func(n float64) float64 { return math.Max(1, logStar(n)) }},
		{Name: "loglog", F: loglog},
		{Name: "log", F: func(n float64) float64 { return math.Max(1, log(math.Max(2, n))) }},
		{Name: "log·loglog", F: func(n float64) float64 { return math.Max(1, log(math.Max(2, n))) * loglog(n) }},
		{Name: "log^2", F: func(n float64) float64 { l := math.Max(1, log(math.Max(2, n))); return l * l }},
		{Name: "log^2·loglog", F: func(n float64) float64 { l := math.Max(1, log(math.Max(2, n))); return l * l * loglog(n) }},
		{Name: "log^3", F: func(n float64) float64 { l := math.Max(1, log(math.Max(2, n))); return l * l * l }},
		{Name: "sqrt", F: func(n float64) float64 { return math.Sqrt(n) }},
		{Name: "n", F: func(n float64) float64 { return n }},
	}
}

// Fit is the result of fitting one model to a series.
type Fit struct {
	Model Model
	// Scale is the least-squares constant c in rounds ≈ c·F(n).
	Scale float64
	// RelRMSE is the root-mean-square error relative to the mean rounds.
	RelRMSE float64
}

// BestFit fits every model and returns them sorted by relative error
// (best first). It needs at least two points.
func BestFit(points []Point) []Fit {
	fits := make([]Fit, 0, len(Models()))
	for _, m := range Models() {
		var num, den float64
		for _, p := range points {
			f := m.F(float64(p.N))
			num += f * p.Rounds
			den += f * f
		}
		if den == 0 {
			continue
		}
		c := num / den
		var sse, mean float64
		for _, p := range points {
			d := p.Rounds - c*m.F(float64(p.N))
			sse += d * d
			mean += p.Rounds
		}
		mean /= float64(len(points))
		rel := math.Sqrt(sse/float64(len(points))) / math.Max(mean, 1e-9)
		fits = append(fits, Fit{Model: m, Scale: c, RelRMSE: rel})
	}
	sort.Slice(fits, func(i, j int) bool { return fits[i].RelRMSE < fits[j].RelRMSE })
	return fits
}

// sweepWorkers is the worker count Sweep fans its grid across; 0 means
// sequential (1). Parallel sweeping is opt-in so that callers which are
// already parallel at a coarser layer — the experiment harness, engine
// pools inside solvers — do not silently multiply into oversubscription.
// Stored atomically so command-line flag threading never races with
// concurrently running sweeps.
var sweepWorkers atomic.Int32

// SetSweepWorkers sets the default grid parallelism of Sweep. Values
// <= 0 restore the sequential default.
func SetSweepWorkers(w int) { sweepWorkers.Store(int32(w)) }

// SweepWorkers returns the effective default grid parallelism.
func SweepWorkers() int {
	if w := int(sweepWorkers.Load()); w > 0 {
		return w
	}
	return 1
}

// Sweep runs the measurement at each size, averaging rounds over reps
// seeds. The (size × rep) grid is fanned across SweepWorkers() workers;
// see ParallelSweep for the determinism contract.
func Sweep(label string, sizes []int, reps int, run func(n int, seed int64) (int, error)) (Series, error) {
	return ParallelSweep(label, sizes, reps, SweepWorkers(), run)
}

// cellSeed derives the measurement seed of grid cell (n, rep). Both the
// sequential and the parallel path use it, which is what keeps sweeps
// byte-identical across worker counts.
func cellSeed(n, rep int) int64 { return int64(rep)*7919 + int64(n) }

// CellSpec identifies one cell of a measurement grid: an instance size
// paired with the seed that derives the instance and any solver
// randomness.
type CellSpec struct {
	N    int
	Seed int64
}

// Cell is one completed grid measurement.
type Cell struct {
	Spec   CellSpec
	Rounds int
}

// ParallelCellsOrdered fans an explicit measurement grid across the
// given number of workers and returns one Cell per spec, in spec order.
// The results are deterministic regardless of the worker count: every
// cell runs with exactly the spec it was given, results come back in
// grid order, and on failure the error of the earliest grid cell is
// returned (wrapped with that cell's coordinates). run must be safe to
// call concurrently, which holds for measurement closures that build
// their instance and solver per call. It is the scenario runner's grid.
//
// order[k] is the grid index of the k-th cell handed to the worker pool.
// Every cell runs and the earliest grid cell's error wins whatever the
// order, so reordering can never change outputs — only wall-clock. The
// scenario autoscaler uses it to dispatch predicted-heavy cells first,
// the longest-processing-time heuristic that keeps a big cell from
// landing last on an otherwise drained pool. A nil order means grid
// order; a non-nil order must be a permutation of the grid indices.
func ParallelCellsOrdered(label string, specs []CellSpec, workers int, order []int, run func(c CellSpec) (int, error)) ([]Cell, error) {
	if order != nil {
		if err := checkPermutation(order, len(specs)); err != nil {
			return nil, fmt.Errorf("grid %s: %w", label, err)
		}
	}
	cells, fail, err := runCells(specs, workers, order, run)
	if err != nil {
		c := specs[fail]
		return nil, fmt.Errorf("grid %s cell n=%d seed=%d: %w", label, c.N, c.Seed, err)
	}
	return cells, nil
}

// checkPermutation validates a dispatch order against the grid size.
func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("dispatch order has %d entries for %d cells", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("dispatch order is not a permutation of 0..%d", n-1)
		}
		seen[i] = true
	}
	return nil
}

// runCells executes the grid and reports the index of the earliest
// failing cell (with its unwrapped error) so each caller can attach its
// own coordinate text. order, when non-nil, sets the dispatch sequence
// (see ParallelCellsOrdered); results and error selection are
// order-independent by construction.
func runCells(specs []CellSpec, workers int, order []int, run func(c CellSpec) (int, error)) ([]Cell, int, error) {
	if workers < 1 {
		workers = 1
	}
	out := make([]Cell, len(specs))
	if workers == 1 {
		// Sequential fast path, with early exit on the first error. The
		// dispatch order is ignored here on purpose: with one worker,
		// order changes which failing cell is hit first, and the error
		// contract pins the earliest grid cell regardless of scheduling.
		for i, c := range specs {
			rounds, err := run(c)
			if err != nil {
				return nil, i, err
			}
			out[i] = Cell{Spec: c, Rounds: rounds}
		}
		return out, -1, nil
	}
	errs := make([]error, len(specs))
	jobs := make(chan int, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every dequeued cell runs to completion even after another
			// cell has failed: skipping would let scheduling decide
			// whether the earliest failing cell was ever observed, and
			// the reported error must not depend on scheduling.
			for i := range jobs {
				rounds, err := run(specs[i])
				out[i] = Cell{Spec: specs[i], Rounds: rounds}
				errs[i] = err
			}
		}()
	}
	if order != nil {
		for _, i := range order {
			jobs <- i
		}
	} else {
		for i := range specs {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, i, err
		}
	}
	return out, -1, nil
}

// ParallelSweep fans the (size × rep) measurement grid across the given
// number of workers. Results are deterministic regardless of the worker
// count: every grid cell gets the same derived seed the sequential sweep
// used, cells are aggregated in grid order, and on failure the error of
// the earliest grid cell is returned. run must therefore be safe to call
// concurrently, which holds for measurement closures that build their
// instance and solver per call.
func ParallelSweep(label string, sizes []int, reps int, workers int, run func(n int, seed int64) (int, error)) (Series, error) {
	s := Series{Label: label}
	if reps < 1 {
		return s, fmt.Errorf("sweep %s: reps = %d", label, reps)
	}
	specs := make([]CellSpec, 0, len(sizes)*reps)
	for _, n := range sizes {
		for r := 0; r < reps; r++ {
			specs = append(specs, CellSpec{N: n, Seed: cellSeed(n, r)})
		}
	}
	cells, fail, err := runCells(specs, workers, nil, func(c CellSpec) (int, error) {
		return run(c.N, c.Seed)
	})
	if err != nil {
		return s, fmt.Errorf("sweep %s at n=%d rep %d: %w", label, sizes[fail/reps], fail%reps, err)
	}
	for i, n := range sizes {
		total := 0.0
		for r := 0; r < reps; r++ {
			total += float64(cells[i*reps+r].Rounds)
		}
		s.Points = append(s.Points, Point{N: n, Rounds: total / float64(reps)})
	}
	return s, nil
}

// Table renders a fixed-width plain-text table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatSeries renders a series as "n=..: rounds" pairs.
func FormatSeries(s Series) string {
	parts := make([]string, len(s.Points))
	for i, p := range s.Points {
		parts[i] = fmt.Sprintf("n=%d:%.1f", p.N, p.Rounds)
	}
	return s.Label + " [" + strings.Join(parts, " ") + "]"
}
