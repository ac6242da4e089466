package eval

import (
	"strings"
	"testing"
)

// TestParallelMatchesSerial asserts the Table-1 run produces the same
// aggregate on many workers as on one.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := RunTable1Parallel(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, err := RunTable1Parallel(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.TotalBugs != serial.TotalBugs || par.TotalWarnings != serial.TotalWarnings {
			t.Errorf("workers=%d: %d/%d, serial %d/%d", workers,
				par.TotalBugs, par.TotalWarnings, serial.TotalBugs, serial.TotalWarnings)
		}
		if len(par.Missed) != len(serial.Missed) {
			t.Errorf("workers=%d: missed %v vs %v", workers, par.Missed, serial.Missed)
		}
		for f, n := range serial.RowBugs {
			if par.RowBugs[f] != n {
				t.Errorf("workers=%d: row %s = %d, want %d", workers, f, par.RowBugs[f], n)
			}
		}
	}
}

// TestAblationDecomposesTable1 checks the per-checker contributions sum to
// the full result: the five checkers are responsible for disjoint findings.
func TestAblationDecomposesTable1(t *testing.T) {
	abl, err := RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Rows) != 5 {
		t.Fatalf("rows = %d", len(abl.Rows))
	}
	wantBugs := map[string]int{
		"path-state":        10 + 10 + 9,
		"trigger-condition": 19 + 14 + 8,
		"path-output":       12 + 12 + 11,
		"fault-handling":    27,
		"data-struct":       15 + 8,
	}
	totalB, totalW := 0, 0
	for _, r := range abl.Rows {
		if r.Bugs != wantBugs[r.Checker] {
			t.Errorf("%s: %d bugs, want %d", r.Checker, r.Bugs, wantBugs[r.Checker])
		}
		totalB += r.Bugs
		totalW += r.Warnings
	}
	if totalB != 155 {
		t.Errorf("ablation bugs sum = %d, want 155", totalB)
	}
	if totalW != 224 {
		t.Errorf("ablation warnings sum = %d, want 224", totalW)
	}
	if !strings.Contains(abl.Render(), "path-state") {
		t.Error("render missing checker names")
	}
}
