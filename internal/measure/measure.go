// Package measure provides the measurement primitives of the
// experiments: the ordered fan-out of independent grid cells, size
// sweeps with repetition, growth-model fitting against the complexity
// classes of the paper's Figure 1, and plain-text table rendering.
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

// Sweep runs the measurement at each size, averaging rounds over reps
// seeds. The (size × rep) grid fans out across workers (see FanOut), and
// the series is the same at every width: each cell gets the seed
// cellSeed derives from its coordinates, and cells aggregate in grid
// order. With workers > 1, run must be safe to call concurrently, which
// holds for closures that build their instance and solver per call.
func Sweep(label string, sizes []int, reps, workers int, run func(n int, seed int64) (int, error)) (Series, error) {
	s := Series{Label: label}
	if reps < 1 {
		return s, fmt.Errorf("sweep %s: reps = %d", label, reps)
	}
	rounds := make([]int, len(sizes)*reps)
	err := FanOut(len(rounds), workers, nil, func(i int) error {
		n, r := sizes[i/reps], i%reps
		var err error
		if rounds[i], err = run(n, cellSeed(n, r)); err != nil {
			return fmt.Errorf("sweep %s at n=%d rep %d: %w", label, n, r, err)
		}
		return nil
	})
	if err != nil {
		return s, err
	}
	for i, n := range sizes {
		total := 0.0
		for _, r := range rounds[i*reps : (i+1)*reps] {
			total += float64(r)
		}
		s.Points = append(s.Points, Point{N: n, Rounds: total / float64(reps)})
	}
	return s, nil
}

// cellSeed derives the measurement seed of sweep cell (n, rep).
func cellSeed(n, rep int) int64 { return int64(rep)*7919 + int64(n) }

// CellSpec is one coordinate of a measurement grid: an instance size
// paired with the seed that derives the instance and any solver
// randomness.
type CellSpec struct {
	N    int
	Seed int64
}

// FanOut runs run(i) for every index 0..n-1 on up to workers goroutines
// and returns the error of the earliest failing index. Every index runs
// even after another has failed, so which error wins never depends on
// scheduling; run(i) must touch only index i's results. It is the one
// fan-out of measurement sweeps, scenario grids and campaign cells; each
// caller's run wraps its own error with the cell's coordinates.
//
// order[k] is the index handed out k-th. It changes only wall-clock: the
// scenario autoscaler dispatches predicted-heavy cells first, so a big
// cell does not land last on an otherwise drained pool. A nil order
// means index order; a non-nil order must be a permutation of 0..n-1.
// With workers <= 1 the indices run inline in index order (order is
// still checked but not followed) and the first error stops the run.
func FanOut(n, workers int, order []int, run func(i int) error) error {
	if order != nil {
		if err := checkPermutation(order, n); err != nil {
			return err
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if order != nil {
					i = order[i]
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
