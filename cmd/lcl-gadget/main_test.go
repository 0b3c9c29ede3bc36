package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunDefault(t *testing.T) {
	if err := run([]string{"-delta", "2", "-height", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCorrupt(t *testing.T) {
	if err := run([]string{"-delta", "3", "-height", "3", "-corrupt", "self-loop"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-corrupt", "no-such"}); err == nil {
		t.Error("unknown corruption accepted")
	}
}

// TestRunEngineFlags: the verifier runs centrally, so lcl-gadget has no
// engine knobs, and passing one is a flag error rather than a silent
// no-op.
func TestRunEngineFlags(t *testing.T) {
	for _, flag := range []string{"-workers", "-shards"} {
		if err := run([]string{"-delta", "2", "-height", "3", flag, "2"}); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDOT(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.dot")
	if err := run([]string{"-delta", "2", "-height", "2", "-dot", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("dot file missing: %v", err)
	}
}
