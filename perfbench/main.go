// Command perfbench is the repository benchmark: it runs one named
// workload through the public entry points of the solver registry, the
// padded-hierarchy core, the Ψ verifier, the engine and the serving
// layer, checks every output, and prints its metrics as one JSON object
// on the last line of standard output.
//
//	perfbench --workload pi2-native --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with in-memory spans around every layer call plus isolated
// probes and prints the per-layer metrics. README.md describes each
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median, because one set-up's wall time jitters by 2×
// on a shared host.
const setupReps = 3

// settle is how long a run keeps its workload going untimed between the
// last set-up and the timed window, so the heap reaches its steady size
// before timing starts.
const settle = 2 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"pi2-native": func(c config) (*result, error) { return runPadded(c, pi2Native) },
	"tower-pi3":  func(c config) (*result, error) { return runPadded(c, towerPi3) },
	"serve-mix":  runServeMix,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: pi2-native, tower-pi3 or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed; derives every cell seed and the arrival schedule")
	seconds := fs.Int("seconds", 30, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	res, err := runner(config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d failed %d failed_frac %.4f correct %v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: outputs failed the correctness checks", *workload)
	}
	return nil
}

// cellSeed derives the i-th cell seed of a workload seed (SplitMix64
// finalizer), positive and below 2³¹ so every registry entry accepts it.
func cellSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

// median of a set of durations in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// quantile is the q-th sample quantile with linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// sliceSamples is the fewest samples a slice of the window holds when a
// quantile is taken per slice, so that a slice's p90 has at least ten
// samples beyond it. The padded workloads pass maxSlices 1 and keep
// pooled quantiles: their windows hold too few cells for three such
// slices, and a slice count that followed throughput would change the
// estimator when a change made the cells faster.
const sliceSamples = 100

// sliceQuantile is the median over consecutive slices of the window of
// each slice's q-th quantile, with at most maxSlices slices. The slice
// count is odd, so the median is one slice's own quantile; with one
// slice it is the pooled quantile. A burst of host noise that inflates a
// few slices then moves the figure far less than it moves the pooled
// quantile. xs must be in time order.
func sliceQuantile(xs []float64, q float64, maxSlices int) float64 {
	k := min(maxSlices, len(xs)/sliceSamples)
	if k%2 == 0 {
		k--
	}
	k = max(k, 1)
	per := make([]float64, k)
	for i := range per {
		per[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return quantile(per, 0.5)
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Runtime metrics a window reads at its edges.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mLiveHeap   = "/gc/heap/live:bytes"
)

// runtimeReading is one read of the window's runtime metrics.
type runtimeReading struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
	cpu                  time.Duration
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeReading{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		cpu:        processCPU(),
	}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window measures one timed stretch of a run: wall time, process CPU,
// bytes allocated, GC cycles and GC CPU share, and the highest live heap
// any GC cycle in the window marked.
type window struct {
	start    time.Time
	begin    runtimeReading
	live     []metrics.Sample
	peakLive uint64
}

// openWindow collects garbage first so every window starts from the same
// heap — the prepared cells and nothing else — then starts the clocks.
func openWindow() *window {
	runtime.GC()
	w := &window{live: []metrics.Sample{{Name: mLiveHeap}}}
	w.sampleHeap()
	w.begin = readRuntime()
	w.start = time.Now()
	return w
}

// sampleHeap folds the live heap of the latest GC cycle into the peak.
// Not safe for concurrent use: call it from the window's own goroutine.
func (w *window) sampleHeap() {
	metrics.Read(w.live)
	if v := w.live[0].Value.Uint64(); v > w.peakLive {
		w.peakLive = v
	}
}

// windowStats is a closed window's totals.
type windowStats struct {
	elapsed    time.Duration
	cpu        time.Duration
	allocBytes float64
	gcCycles   float64
	gcCPUFrac  float64
	peakLive   uint64
}

func (w *window) close() windowStats {
	elapsed := time.Since(w.start)
	w.sampleHeap()
	end := readRuntime()
	st := windowStats{
		elapsed:    elapsed,
		cpu:        end.cpu - w.begin.cpu,
		allocBytes: end.allocBytes - w.begin.allocBytes,
		gcCycles:   end.gcCycles - w.begin.gcCycles,
		peakLive:   w.peakLive,
	}
	if d := end.totalCPU - w.begin.totalCPU; d > 0 {
		st.gcCPUFrac = (end.gcCPU - w.begin.gcCPU) / d
	}
	return st
}

// endToEnd assembles the eight end-to-end metrics of an untraced run;
// the latency quantiles are taken over at most maxSlices slices.
func endToEnd(setups []time.Duration, lat []time.Duration, verified, attempted int, w windowStats, maxSlices int) map[string]metric {
	lms := ms(lat)
	cells := float64(max(verified, 1))
	return map[string]metric{
		"setup_s":           {medianSeconds(setups), "s"},
		"cells_per_s":       {float64(verified) / w.elapsed.Seconds(), "1/s"},
		"cell_ms_p50":       {sliceQuantile(lms, 0.5, maxSlices), "ms"},
		"cell_ms_p90":       {sliceQuantile(lms, 0.9, maxSlices), "ms"},
		"cpu_ms_per_cell":   {float64(w.cpu.Nanoseconds()) / 1e6 / cells, "ms"},
		"alloc_mb_per_cell": {w.allocBytes / 1e6 / cells, "MB"},
		"peak_heap_mb":      {float64(w.peakLive) / 1e6, "MB"},
		"verified_frac":     {float64(verified) / float64(max(attempted, 1)), "frac"},
	}
}

// gcMetrics are the Go runtime's per-layer metrics of a window.
func gcMetrics(m map[string]metric, w windowStats, cells int) {
	m["gc.cycles_per_cell"] = metric{w.gcCycles / float64(max(cells, 1)), "1/cell"}
	m["gc.cpu_frac"] = metric{w.gcCPUFrac, "frac"}
}
