package pallas_test

import (
	"testing"

	"pallas"
	"pallas/internal/corpus"
	"pallas/internal/metrics"
)

// TestFeasStatsReadAnalyzerRegistry: FeasStats and the analyzer registry's
// pallas_feas_* counters are one store. The second analysis of an unchanged
// unit is a whole-verdict memo replay, and it moves both alike.
func TestFeasStatsReadAnalyzerRegistry(t *testing.T) {
	a := pallas.New(pallas.Config{Precision: "strict", Incremental: &pallas.IncrementalOptions{}})
	c := corpus.FeasCases()[0]
	var first pallas.FeasStats
	for i := 0; i < 2; i++ {
		if _, err := a.AnalyzeSource("feas.c", c.Source, c.Spec); err != nil {
			t.Fatal(err)
		}
		fs := a.FeasStats()
		if i == 0 {
			first = fs
		}
		pruned := a.Metrics().Counter(metrics.MetricFeasPathsPruned, "").Value()
		contra := a.Metrics().Counter(metrics.MetricFeasContradictions, "").Value()
		if fs.Pruned != pruned || fs.Contradictions != contra {
			t.Fatalf("analysis %d: FeasStats %+v, registry pruned %d contradictions %d", i+1, fs, pruned, contra)
		}
	}
	if st, _ := a.IncrStats(); st.UnitHits != 1 {
		t.Fatalf("second analysis must replay the memoized verdict, got %+v", st)
	}
	if first.Pruned == 0 || a.FeasStats().Pruned != 2*first.Pruned {
		t.Fatalf("pruned after replay %d, want 2 × %d", a.FeasStats().Pruned, first.Pruned)
	}
}
