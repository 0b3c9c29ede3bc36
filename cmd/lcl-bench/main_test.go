package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunQuickSubset(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E-F2,E-F5"}); err != nil {
		t.Fatal(err)
	}
}

// -workers widens only the sweep grid of E-F1 (and E-T11): the report
// bytes must not depend on it.
func TestRunQuickSubsetParallel(t *testing.T) {
	dir := t.TempDir()
	var reports [][]byte
	for _, w := range []string{"1", "4"} {
		out := filepath.Join(dir, "bench-w"+w+".json")
		if err := run([]string{"-quick", "-only", "E-F1,E-F2,E-F5,E-L1", "-workers", w, "-json", out}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("-json report differs between -workers 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", reports[0], reports[1])
	}
}

// The experiments pick their own engines, so lcl-bench takes no engine
// flag: -shards, which only ever changed scheduling, is refused.
func TestRunRefusesShards(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E-F2", "-shards", "16"}); err == nil {
		t.Fatal("-shards accepted")
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-quick", "-only", "E-F2", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", p, err)
		}
	}
}

func TestRunMemProfileError(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "mem.pprof")
	if err := run([]string{"-quick", "-only", "E-F2", "-memprofile", bad}); err == nil {
		t.Fatal("unwritable -memprofile path accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E-NOPE"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestRunJSONReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-only", "E-F2,E-F5", "-json", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema      string `json:"schema"`
		Tool        string `json:"tool"`
		Experiments []struct {
			ID    string `json:"id"`
			Table string `json:"table"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "lcl-bench" || rep.Schema == "" {
		t.Fatalf("report envelope = %+v", rep)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].ID != "E-F2" || rep.Experiments[0].Table == "" {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
}
