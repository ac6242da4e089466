package main

import (
	"testing"
	"time"
)

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 4.5, 10.75, 0.5, 6}, [3]float64{1.8125, 5.25, 7.5}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 9, 4}, [3]float64{2, 4, 9}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("tail = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
}

// A parent's self time excludes the union of its children's intervals,
// counting overlap between concurrent children once.
func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "verdict", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 70, End: 80},
		{ID: 5, Parent: 4, Name: "c", Start: 72, End: 75},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"verdict": 50, "a": 50, "b": 7, "c": 3}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self[%s] = %d, want %d", k, got[k], w)
		}
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	gens := map[string]func(int64) string{
		"deep-units": func(s int64) string { return hashInputs(deepUnits(s)) },
		"serve-edits": func(s int64) string {
			b := &serveBench{}
			if err := b.generate(s); err != nil {
				t.Fatal(err)
			}
			return b.inputHash()
		},
	}
	for name, gen := range gens {
		if gen(3) != gen(3) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if gen(3) == gen(4) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", name)
		}
	}
}

// The decomposed pipeline must reproduce AnalyzeSource byte for byte, and
// every padded unit must keep its template's known answer.
func TestDecompositionAndOracle(t *testing.T) {
	b := &deepBench{}
	if err := b.generate(2); err != nil {
		t.Fatal(err)
	}
	if err := b.start(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for i := range b.units {
		u := &b.units[i]
		out, _, err := b.runTraced(u, tr)
		if err != nil || !verdictOK(u, out.rep) {
			t.Errorf("%s: verdict differs from the known answer (err %v)", u.ID, err)
		}
	}
	if m := b.dc.mismatches(); len(m) > 0 {
		t.Errorf("decomposition mismatches: %v", m)
	}
	for _, l := range b.d.lines() {
		t.Error(l)
	}
}

// Two passes of the edit script over fresh servers must agree on every
// exact count, and every response on its known answer.
func TestServePassesRepeatExactly(t *testing.T) {
	b := &serveBench{}
	if err := b.generate(5); err != nil {
		t.Fatal(err)
	}
	if err := b.start(); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	w := &window{}
	if err := b.pass(w, newTracer()); err != nil {
		t.Fatal(err)
	}
	if f := b.failures(); len(f) > 0 {
		t.Errorf("count drift: %v", f)
	}
	for _, l := range b.d.lines() {
		t.Error(l)
	}
	if w.ok != w.attempted || w.attempted == 0 {
		t.Errorf("%d of %d verdicts ok", w.ok, w.attempted)
	}
}
