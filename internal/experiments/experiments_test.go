package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestAllQuickExperiments(t *testing.T) {
	results, err := (&Harness{Scale: Quick}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 19 {
		t.Fatalf("experiments = %d, want 19", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.ID == "" || r.Title == "" || r.Table == "" {
			t.Errorf("experiment %q incomplete", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %q", r.ID)
		}
		seen[r.ID] = true
		if !strings.Contains(r.Table, "\n") {
			t.Errorf("experiment %q table not rendered", r.ID)
		}
	}
	for _, id := range []string{"E-F1", "E-F2", "E-F3", "E-F4", "E-F5", "E-F6", "E-F7", "E-F8", "E-T1", "E-T6", "E-T11", "E-E1", "E-E2", "E-A1", "E-A2", "E-D1", "E-L1", "E-A3", "E-A4"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

// TestHarnessSweepWidthMatchesInline renders both sweeping experiments
// (E-F1 and E-T11) plus two that do not sweep through the harness at
// sweep width 1 and at 4: every table and note must be byte-identical,
// which is the determinism contract of the (size × seed) sweep grid.
func TestHarnessSweepWidthMatchesInline(t *testing.T) {
	only := map[string]bool{"E-F1": true, "E-T1": true, "E-T11": true, "E-L1": true}
	seq, err := (&Harness{Scale: Quick, SweepWorkers: 1, Only: only}).Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Harness{Scale: Quick, SweepWorkers: 4, Only: only}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) || len(seq) != len(only) {
		t.Fatalf("result counts: inline=%d wide=%d, want %d", len(seq), len(par), len(only))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Fatalf("result order differs at %d: %s vs %s", i, seq[i].ID, par[i].ID)
		}
		if seq[i].Table != par[i].Table {
			t.Errorf("experiment %s table differs between sweep width 1 and 4:\n--- width 1 ---\n%s\n--- width 4 ---\n%s",
				seq[i].ID, seq[i].Table, par[i].Table)
		}
		if !reflect.DeepEqual(seq[i].Notes, par[i].Notes) {
			t.Errorf("experiment %s notes differ between sweep width 1 and 4:\n%q\n%q", seq[i].ID, seq[i].Notes, par[i].Notes)
		}
	}
}

func TestHarnessUnknownID(t *testing.T) {
	if _, err := (&Harness{Scale: Quick, Only: map[string]bool{"E-NOPE": true}}).Run(); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestRegistryMatchesResultIDs(t *testing.T) {
	for _, e := range Registry(1) {
		r, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if r.ID != e.ID {
			t.Errorf("registry id %s produced result id %s", e.ID, r.ID)
		}
	}
}

func TestFig3SoundnessComplete(t *testing.T) {
	r, err := Fig3SinklessChecker(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("soundness warning: %s", n)
		}
	}
}

func TestFig8LemmaChecks(t *testing.T) {
	r, err := Fig8ChainProof(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Table, "false") {
		t.Errorf("a Lemma 9/10 check failed:\n%s", r.Table)
	}
}
