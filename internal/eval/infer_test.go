package eval

import (
	"strings"
	"testing"
)

// TestInferScorePinned pins the spec-inference score table (EXPERIMENTS.md,
// "Spec inference, scored") and the rule that keeps a heuristic: each one
// must find at least one seeded warning the pair directive alone misses.
func TestInferScorePinned(t *testing.T) {
	r, err := RunInfer()
	if err != nil {
		t.Fatal(err)
	}
	if r.Units != 35 || r.Seeded != 31 || r.PairOnly != 16 {
		t.Errorf("units %d, seeded %d, pair-only %d; want 35, 31, 16", r.Units, r.Seeded, r.PairOnly)
	}
	want := []InferRow{
		{Heuristic: "fault", Proposed: 2, Found: 1, Extra: 1},
		{Heuristic: "immutable", Proposed: 25, Found: 1, Extra: 8},
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("rows = %+v, want %+v", r.Rows, want)
	}
	for i, row := range r.Rows {
		if row != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
		if row.Found < 1 {
			t.Errorf("heuristic %s finds no seeded warning beyond the pair line", row.Heuristic)
		}
	}
	if all := (InferRow{Heuristic: "all", Proposed: 27, Found: 2, Extra: 9}); r.All != all {
		t.Errorf("all = %+v, want %+v", r.All, all)
	}
	if out := r.Render(); !strings.Contains(out, "35 units") || !strings.Contains(out, "immutable") {
		t.Errorf("render:\n%s", out)
	}
}
