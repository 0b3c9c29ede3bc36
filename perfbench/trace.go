package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// spansDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (ignored by git).
const spansDir = ".bench_build/spans"

// span is one timed call into a layer. Spans of one cell share Cell;
// Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the process-wide bytes allocated while the span was open;
	// it is the span's own allocation only where nothing else runs
	// concurrently (the padded workloads and the rebuild pass).
	Alloc uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, cell string, parent int) int {
	a := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		Start: int64(time.Since(t.origin)), Alloc: a})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	a := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Alloc = a - s.Alloc
}

// record adds an already-finished span with explicit times: a serve-mix
// request's spans start at its due time, before any code runs for it.
func (t *tracer) record(name, cell string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return id
}

// layerTotals sums, per span name, the spans' count, self time and
// allocation. Self time is a span's duration minus the part of it its
// children cover.
type layerTotals struct {
	count int
	dur   time.Duration
	self  time.Duration
	alloc float64
}

func (t *tracer) totals() map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTotals{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.count++
		lt.dur += d
		lt.self += d - covered(s, children[s.ID])
		lt.alloc += float64(s.Alloc)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s <= curEnd:
			curEnd = max(curEnd, e)
		default:
			total += curEnd - curStart
			curStart, curEnd = s, e
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines under spansDir and returns the
// file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
