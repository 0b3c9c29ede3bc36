package measure

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func synth(model string, sizes []int, scale float64) []Point {
	var m Model
	for _, cand := range Models() {
		if cand.Name == model {
			m = cand
		}
	}
	pts := make([]Point, len(sizes))
	for i, n := range sizes {
		pts[i] = Point{N: n, Rounds: scale * m.F(float64(n))}
	}
	return pts
}

func TestBestFitRecoversModels(t *testing.T) {
	sizes := []int{64, 256, 1024, 4096, 16384, 65536}
	for _, name := range []string{"log", "loglog", "log^2", "log·loglog", "n"} {
		pts := synth(name, sizes, 2.5)
		fits := BestFit(pts)
		if fits[0].Model.Name != name {
			t.Errorf("model %s: best fit = %s (rel %.3f)", name, fits[0].Model.Name, fits[0].RelRMSE)
		}
		if math.Abs(fits[0].Scale-2.5) > 0.1 {
			t.Errorf("model %s: scale = %.2f, want 2.5", name, fits[0].Scale)
		}
	}
}

func TestBestFitSeparatesLogFromLogLog(t *testing.T) {
	sizes := []int{256, 4096, 65536, 1 << 20}
	pts := synth("log", sizes, 1)
	fits := BestFit(pts)
	var logErr, loglogErr float64
	for _, f := range fits {
		switch f.Model.Name {
		case "log":
			logErr = f.RelRMSE
		case "loglog":
			loglogErr = f.RelRMSE
		}
	}
	if logErr >= loglogErr {
		t.Errorf("log data fit worse by log (%.3f) than loglog (%.3f)", logErr, loglogErr)
	}
}

func TestSweep(t *testing.T) {
	s, err := Sweep("test", []int{10, 20}, 3, 1, func(n int, seed int64) (int, error) {
		return n + int(seed%2), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(s.Points))
	}
	if s.Points[0].Rounds < 10 || s.Points[0].Rounds > 11 {
		t.Errorf("averaged rounds = %f", s.Points[0].Rounds)
	}
}

// TestParallelSweepDeterministic asserts the core harness contract: the
// series is identical for every worker count, because each grid cell gets
// the same derived seed and aggregation happens in grid order.
func TestParallelSweepDeterministic(t *testing.T) {
	sizes := []int{8, 16, 32, 64}
	run := func(n int, seed int64) (int, error) {
		return n*3 + int(seed%13), nil
	}
	want, err := Sweep("p", sizes, 5, 1, run)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16, 0} {
		got, err := Sweep("p", sizes, 5, workers, run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: series %+v, want %+v", workers, got, want)
		}
	}
}

func TestParallelSweepSeedsMatchSequential(t *testing.T) {
	var calls atomic.Int64
	seen := make([]int64, 4*3)
	idx := map[[2]int]int{}
	sizes := []int{10, 20, 30, 40}
	for i, n := range sizes {
		for r := 0; r < 3; r++ {
			idx[[2]int{n, r}] = i*3 + r
		}
	}
	_, err := Sweep("s", sizes, 3, 4, func(n int, seed int64) (int, error) {
		calls.Add(1)
		// Recover the rep from the seed formula to index deterministically.
		r := (seed - int64(n)) / 7919
		seen[idx[[2]int{n, int(r)}]] = seed
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 12 {
		t.Fatalf("calls = %d, want 12", calls.Load())
	}
	for i, n := range sizes {
		for r := 0; r < 3; r++ {
			if want := int64(r)*7919 + int64(n); seen[i*3+r] != want {
				t.Errorf("cell (n=%d, rep=%d) seed = %d, want %d", n, r, seen[i*3+r], want)
			}
		}
	}
}

// fanCells runs specs through FanOut the way the scenario grid does:
// each index writes its own slot and wraps its own error with the
// cell's coordinates.
func fanCells(specs []CellSpec, workers int, order []int, run func(c CellSpec) (int, error)) ([]int, error) {
	out := make([]int, len(specs))
	err := FanOut(len(specs), workers, order, func(i int) error {
		c := specs[i]
		var err error
		if out[i], err = run(c); err != nil {
			return fmt.Errorf("grid g cell n=%d seed=%d: %w", c.N, c.Seed, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TestParallelCellsDeterministic: every index runs with its own cell and
// the results land in index order for every worker count.
func TestParallelCellsDeterministic(t *testing.T) {
	specs := []CellSpec{{N: 8, Seed: 3}, {N: 8, Seed: 4}, {N: 16, Seed: 3}, {N: 32, Seed: 9}}
	run := func(c CellSpec) (int, error) { return c.N*100 + int(c.Seed), nil }
	want, err := fanCells(specs, 1, nil, run)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range want {
		if r != specs[i].N*100+int(specs[i].Seed) {
			t.Fatalf("cell %d rounds = %d", i, r)
		}
	}
	for _, workers := range []int{2, 3, 8, 0} {
		got, err := fanCells(specs, workers, nil, run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: cells %+v, want %+v", workers, got, want)
		}
	}
}

// TestParallelCellsErrorDeterministic: the earliest failing cell's error
// is reported with its coordinates, regardless of worker interleaving
// and dispatch order.
func TestParallelCellsErrorDeterministic(t *testing.T) {
	boom := errors.New("boom")
	specs := []CellSpec{{N: 1, Seed: 1}, {N: 2, Seed: 7}, {N: 3, Seed: 8}}
	for _, order := range [][]int{nil, {2, 1, 0}} {
		for _, workers := range []int{1, 2, 8} {
			cells, err := fanCells(specs, workers, order, func(c CellSpec) (int, error) {
				if c.N >= 2 {
					return 0, boom
				}
				return c.N, nil
			})
			if cells != nil {
				t.Fatalf("order=%v workers=%d: cells = %+v, want nil on error", order, workers, cells)
			}
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("order=%v workers=%d: err = %v, want wrapped boom", order, workers, err)
			}
			if want := "grid g cell n=2 seed=7: boom"; err.Error() != want {
				t.Errorf("order=%v workers=%d: err = %q, want earliest failing cell %q", order, workers, err, want)
			}
		}
	}
}

// TestParallelSweepErrorDeterministic: when several cells fail, the error
// reported is that of the earliest grid cell, regardless of worker
// interleaving.
func TestParallelSweepErrorDeterministic(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		_, err := Sweep("e", []int{1, 2, 3, 4}, 2, workers, func(n int, seed int64) (int, error) {
			if n >= 3 {
				return 0, boom
			}
			return n, nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if want := "sweep e at n=3 rep 0: boom"; err.Error() != want {
			t.Errorf("workers=%d: err = %q, want earliest failing cell %q", workers, err, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"problem", "rounds"}, [][]string{{"sinkless", "12"}, {"trivial", "0"}})
	if !strings.Contains(out, "problem") || !strings.Contains(out, "sinkless") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestLogStar(t *testing.T) {
	for _, tc := range []struct {
		n    float64
		want float64
	}{{1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}} {
		if got := logStar(tc.n); got != tc.want {
			t.Errorf("logStar(%v) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestFormatSeries(t *testing.T) {
	s := Series{Label: "x", Points: []Point{{N: 4, Rounds: 2}}}
	if got := FormatSeries(s); !strings.Contains(got, "n=4:2.0") {
		t.Errorf("FormatSeries = %q", got)
	}
}

// TestParallelCellsOrdered: an explicit dispatch order changes only
// scheduling — results stay in index order, identical to the unordered
// run — and a non-permutation order is rejected loudly.
func TestParallelCellsOrdered(t *testing.T) {
	specs := []CellSpec{{N: 8, Seed: 3}, {N: 16, Seed: 1}, {N: 32, Seed: 9}, {N: 64, Seed: 2}}
	run := func(c CellSpec) (int, error) { return c.N*10 + int(c.Seed), nil }
	want, err := fanCells(specs, 1, nil, run)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{nil, {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		for _, workers := range []int{1, 2, 8} {
			got, err := fanCells(specs, workers, order, run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("order=%v workers=%d: cells %+v, want grid order %+v", order, workers, got, want)
			}
		}
	}
	// Dispatch order is scheduling, not selection: every cell still runs
	// exactly once under a reordered parallel fan-out.
	var calls atomic.Int64
	if err := FanOut(len(specs), 2, []int{3, 2, 1, 0}, func(int) error {
		calls.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(len(specs)) {
		t.Fatalf("reordered grid ran %d cells, want %d", calls.Load(), len(specs))
	}
	for _, bad := range [][]int{{0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 4}, {-1, 1, 2, 3}} {
		for _, workers := range []int{1, 2} {
			calls.Store(0)
			err := FanOut(len(specs), workers, bad, func(int) error {
				calls.Add(1)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "dispatch order") {
				t.Errorf("order %v workers=%d: err = %v, want permutation error", bad, workers, err)
			}
			if calls.Load() != 0 {
				t.Errorf("order %v workers=%d: ran %d cells before refusing", bad, workers, calls.Load())
			}
		}
	}
}
