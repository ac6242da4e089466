package pallas_test

// TestAnalyzeIncrBenchArtifact and BENCH_incr.json: the cold-vs-warm story
// of the incremental engine on a multi-unit corpus. Cold run on an empty
// memo, one-function edit, warm re-check on the same store — the warm run
// replays every untouched unit's verdict and the edited unit's unchanged
// functions, re-analyzing only the edited function and its transitive
// callers, with output byte-identical to a from-scratch run. Two pairs are
// measured, as in BENCH_parallel.json: the plain cpu-bound corpus, and the
// same corpus with an injected per-function extraction stall (extract-func
// sleep failpoint), which models the expensive-extraction regime — there the
// warm re-check's O(diff) behavior shows as a large wall-clock ratio because
// memoized functions and replayed verdicts never reach the stall.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pallas"
	"pallas/internal/failpoint"
)

// genIncrUnit builds one corpus unit whose function bodies are offset by the
// unit index, so units share structure but not fingerprints (cross-unit memo
// reuse would otherwise pre-warm the cold run). Each analyzed function calls
// a per-unit helper chain, giving the edit a transitive blast radius.
func genIncrUnit(u, nFuncs, nBranches int) (src, spec string) {
	var sb, sp strings.Builder
	fmt.Fprintf(&sb, "static int seed%[1]d(int v) { return v + %[1]d; }\n", u)
	fmt.Fprintf(&sb, "static int scale%[1]d(int v) { return seed%[1]d(v) * 2; }\n", u)
	for f := 0; f < nFuncs; f++ {
		fmt.Fprintf(&sb, "int fast%d(int a, struct req *r) {\n\tint rc = scale%d(%d);\n", f, u, f)
		for i := 0; i < nBranches; i++ {
			fmt.Fprintf(&sb, "\tif (a > %d) rc = rc + %d;\n", i+1, u+i+1)
		}
		sb.WriteString("\treturn rc;\n}\n")
		fmt.Fprintf(&sp, "fastpath fast%d\n", f)
	}
	return sb.String(), sp.String()
}

// incrBench is the BENCH_incr.json schema.
type incrBench struct {
	Units           int     `json:"units"`
	FuncsTotal      int     `json:"funcs_total"`
	ColdMS          float64 `json:"cold_ms"`
	WarmMS          float64 `json:"warm_ms"`
	Speedup         float64 `json:"speedup"`
	StallColdMS     float64 `json:"stall_cold_ms"`
	StallWarmMS     float64 `json:"stall_warm_ms"`
	StallSpeedup    float64 `json:"stall_speedup"`
	FuncsReused     int     `json:"funcs_reused"`
	FuncsReanalyzed int     `json:"funcs_reanalyzed"`
	UnitVerdictHits int     `json:"unit_verdict_hits"`
	Identical       bool    `json:"identical_output"`
}

func TestAnalyzeIncrBenchArtifact(t *testing.T) {
	out := os.Getenv("PALLAS_BENCH_OUT")
	if testing.Short() && out == "" {
		t.Skip("short mode")
	}
	const (
		nUnits    = 8
		nFuncs    = 8
		nBranches = 5
	)
	type unit struct{ name, src, spec string }
	corpus := make([]unit, nUnits)
	for u := range corpus {
		src, spec := genIncrUnit(u, nFuncs, nBranches)
		corpus[u] = unit{name: fmt.Sprintf("u%d.c", u), src: src, spec: spec}
	}
	// The edit: one constant in one function of one unit.
	edited := make([]unit, nUnits)
	copy(edited, corpus)
	edited[3].src = strings.Replace(edited[3].src, "int rc = scale3(5);", "int rc = scale3(55);", 1)
	if edited[3].src == corpus[3].src {
		t.Fatal("edit did not land")
	}

	render := func(a *pallas.Analyzer, units []unit) (time.Duration, string) {
		var sb strings.Builder
		start := time.Now()
		for _, u := range units {
			res, err := a.AnalyzeSource(u.name, u.src, u.spec)
			if err != nil {
				t.Fatal(err)
			}
			var rb bytes.Buffer
			if err := res.Report.WriteJSON(&rb); err != nil {
				t.Fatal(err)
			}
			pb, err := json.Marshal(res.Paths)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(rb.Bytes())
			sb.Write(pb)
		}
		return time.Since(start), sb.String()
	}

	// Reference: the edited corpus from scratch, no memo anywhere.
	_, wantOut := render(pallas.New(pallas.Config{}), edited)

	// Cpu-bound pair.
	icfg := pallas.Config{Incremental: &pallas.IncrementalOptions{Dir: t.TempDir()}}
	coldTime, _ := render(pallas.New(icfg), corpus)
	warmA := pallas.New(icfg)
	warmTime, warmOut := render(warmA, edited)
	identical := warmOut == wantOut
	if !identical {
		t.Error("warm incremental output is not byte-identical to a from-scratch run")
	}
	st, ok := warmA.IncrStats()
	if !ok {
		t.Fatal("incremental stats unavailable")
	}
	// Only the edited function misses: its siblings replay from the function
	// memo and every untouched unit replays its whole verdict.
	if st.UnitHits != nUnits-1 {
		t.Errorf("unit verdict hits = %d, want %d", st.UnitHits, nUnits-1)
	}
	if st.FuncMisses != 1 || st.FuncHits != nFuncs-1 {
		t.Errorf("func stats = %+v, want 1 miss (the edited function) and %d hits", st, nFuncs-1)
	}

	// Stalled pair: every real per-function extraction costs an extra 25ms in
	// both runs. Memoized work skips the stall because it skips extraction —
	// that asymmetry IS the incremental win being measured. The sleep action
	// changes timing only, so outputs stay identical.
	scfg := pallas.Config{Incremental: &pallas.IncrementalOptions{Dir: t.TempDir()}}
	if err := failpoint.Arm("extract-func=sleep:25ms"); err != nil {
		t.Fatal(err)
	}
	stallCold, _ := render(pallas.New(scfg), corpus)
	stallWarm, stallOut := render(pallas.New(scfg), edited)
	failpoint.Disarm()
	if stallOut != wantOut {
		t.Error("stalled warm output is not byte-identical to a from-scratch run")
	}

	total := nUnits * nFuncs
	bench := incrBench{
		Units:           nUnits,
		FuncsTotal:      total,
		ColdMS:          float64(coldTime.Microseconds()) / 1000,
		WarmMS:          float64(warmTime.Microseconds()) / 1000,
		Speedup:         float64(coldTime.Nanoseconds()) / float64(warmTime.Nanoseconds()),
		StallColdMS:     float64(stallCold.Microseconds()) / 1000,
		StallWarmMS:     float64(stallWarm.Microseconds()) / 1000,
		StallSpeedup:    float64(stallCold.Nanoseconds()) / float64(stallWarm.Nanoseconds()),
		FuncsReused:     total - int(st.FuncMisses),
		FuncsReanalyzed: int(st.FuncMisses),
		UnitVerdictHits: int(st.UnitHits),
		Identical:       identical,
	}
	t.Logf("incr bench: %d units x %d funcs; cpu-bound cold %.1fms vs warm %.1fms (%.1fx); stalled cold %.1fms vs warm %.1fms (%.1fx); %d/%d funcs reused, %d verdicts replayed",
		bench.Units, nFuncs, bench.ColdMS, bench.WarmMS, bench.Speedup,
		bench.StallColdMS, bench.StallWarmMS, bench.StallSpeedup,
		bench.FuncsReused, total, bench.UnitVerdictHits)
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkIncrReplayReadsPaths measures what a function record saves on
// one 8-function genIncrUnit unit whose path database is read
// (res.Paths.MarshalJSON) after each analysis:
//
//   - cold: no memo, every function extracted;
//   - warm-miss: the unit's verdict misses (a new unit name each time) and
//     every function replays its record;
//   - replay-read: the verdict replays, and reading its paths runs the
//     lazy fill seeded with the records.
//
// The memo pays off only while warm-miss and replay-read cost less than cold.
func BenchmarkIncrReplayReadsPaths(b *testing.B) {
	src, spec := genIncrUnit(0, 8, 5)
	read := func(b *testing.B, a *pallas.Analyzer, name string) {
		res, err := a.AnalyzeSource(name, src, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Paths.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
	warm := func(b *testing.B) *pallas.Analyzer {
		a := pallas.New(pallas.Config{Incremental: &pallas.IncrementalOptions{}})
		read(b, a, "u.c")
		return a
	}
	b.Run("cold", func(b *testing.B) {
		a := pallas.New(pallas.Config{})
		for i := 0; i < b.N; i++ {
			read(b, a, "u.c")
		}
	})
	b.Run("warm-miss", func(b *testing.B) {
		a := warm(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, a, fmt.Sprintf("u%d.c", i))
		}
	})
	b.Run("replay-read", func(b *testing.B) {
		a := warm(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, a, "u.c")
		}
	})
}
