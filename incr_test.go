package pallas_test

// The incremental engine's differential invariant: after editing one
// function in a unit, an incremental re-check re-analyzes only that function
// and its transitive callers — everything else replays from the memo — and
// the report and path database are byte-identical to a cold run, at any
// AnalysisWorkers count.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"pallas"
	"pallas/internal/failpoint"
)

// incrSrc builds the test unit: top → mid → leaf call chain plus an
// independent sibling, two analyzed fast paths (top, sib) and a seeded
// immutable-overwrite warning in top. leafBody parameterizes the one edit.
func incrSrc(leafBody string) string {
	return fmt.Sprintf(`// @pallas: fastpath top
// @pallas: fastpath sib
// @pallas: immutable mode
int limit = 8;
int leaf(int a) { return %s; }
int mid(int a) { return leaf(a) + 2; }
int top(int mode)
{
	if (mode == 0) {
		mode = 5;
		return 1;
	}
	return mid(mode);
}
int sib(int mode)
{
	if (mode == 2) {
		return 0;
	}
	return 1;
}
`, leafBody)
}

// resultBytes marshals the two replay-sensitive outputs; byte equality here
// is byte equality of everything `check` prints or saves for the unit.
func resultBytes(t *testing.T, res *pallas.Result) (string, string) {
	t.Helper()
	rb, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	db, err := json.Marshal(res.Paths)
	if err != nil {
		t.Fatal(err)
	}
	return string(rb), string(db)
}

func analyzeIncr(t *testing.T, cfg pallas.Config, src string) *pallas.Result {
	t.Helper()
	a := pallas.New(cfg)
	if err := a.EnsureIncremental(); err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource("unit.c", src, "")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIncrementalDifferentialParallel is the engine's core guarantee, table-
// tested across worker counts: cold output ≡ incremental output for a cold
// store, a same-source replay, a formatting-only edit, and a one-function
// edit — and the edit re-analyzes exactly the functions it must.
func TestIncrementalDifferentialParallel(t *testing.T) {
	v1 := incrSrc("a + 1")
	v2 := incrSrc("a + 7")                    // leaf edit: invalidates top via mid, not sib
	v1fmt := incrSrc("a + 1 /* unchanged */") // same lines, same AST

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cold := pallas.Config{AnalysisWorkers: workers}

			coldV1, err := pallas.New(cold).AnalyzeSource("unit.c", v1, "")
			if err != nil {
				t.Fatal(err)
			}
			coldV2, err := pallas.New(cold).AnalyzeSource("unit.c", v2, "")
			if err != nil {
				t.Fatal(err)
			}
			wantRep1, wantDB1 := resultBytes(t, coldV1)
			wantRep2, wantDB2 := resultBytes(t, coldV2)
			if coldV1.Report == nil || len(coldV1.Report.Warnings) == 0 {
				t.Fatal("corpus lost its seeded warning; the diff proves nothing")
			}

			dir := t.TempDir()
			icfg := cold
			icfg.Incremental = &pallas.IncrementalOptions{Dir: dir}

			// Cold store: everything misses, output matches the plain run.
			a1 := pallas.New(icfg)
			if err := a1.EnsureIncremental(); err != nil {
				t.Fatal(err)
			}
			res, err := a1.AnalyzeSource("unit.c", v1, "")
			if err != nil {
				t.Fatal(err)
			}
			if rep, db := resultBytes(t, res); rep != wantRep1 || db != wantDB1 {
				t.Fatal("incremental cold run drifted from plain run")
			}
			st, _ := a1.IncrStats()
			if st.FuncHits != 0 || st.FuncMisses != 2 || st.UnitHits != 0 || st.UnitMisses != 1 {
				t.Fatalf("cold-store stats = %+v, want 2 func misses / 1 unit miss", st)
			}

			// Same source, same analyzer: the whole-unit verdict replays.
			res, err = a1.AnalyzeSource("unit.c", v1, "")
			if err != nil {
				t.Fatal(err)
			}
			if rep, db := resultBytes(t, res); rep != wantRep1 || db != wantDB1 {
				t.Fatal("unit-verdict replay drifted from plain run")
			}
			if st, _ = a1.IncrStats(); st.UnitHits != 1 {
				t.Fatalf("stats after replay = %+v, want 1 unit hit", st)
			}

			// One-function edit, fresh analyzer over the same store: only the
			// edited chain (top, through mid → leaf) re-analyzes; sib replays.
			// An armed extraction fault for sib proves its walk never ran.
			a2 := pallas.New(icfg)
			if err := a2.EnsureIncremental(); err != nil {
				t.Fatal(err)
			}
			if err := failpoint.Arm("extract-func=error/sib"); err != nil {
				t.Fatal(err)
			}
			res, err = a2.AnalyzeSource("unit.c", v2, "")
			failpoint.Disarm()
			if err != nil {
				t.Fatalf("warm re-check extracted the unchanged function: %v", err)
			}
			if rep, db := resultBytes(t, res); rep != wantRep2 || db != wantDB2 {
				t.Fatal("incremental re-check after a one-function edit drifted from plain run")
			}
			st, _ = a2.IncrStats()
			if st.FuncHits != 1 || st.FuncMisses != 1 {
				t.Fatalf("warm-edit stats = %+v, want sib hit + top miss", st)
			}
			if st.UnitHits != 0 || st.UnitMisses != 1 {
				t.Fatalf("warm-edit stats = %+v, want 1 unit miss", st)
			}

			// The continuing analyzer re-checks the edited source: a2 already
			// memoized v2's verdict in the shared store, so this replays it.
			res, err = a1.AnalyzeSource("unit.c", v2, "")
			if err != nil {
				t.Fatal(err)
			}
			if rep, db := resultBytes(t, res); rep != wantRep2 || db != wantDB2 {
				t.Fatal("same-analyzer re-check drifted from plain run")
			}
			st, _ = a1.IncrStats()
			if st.UnitHits != 2 { // v1 verdict earlier, v2 verdict now
				t.Fatalf("stats after edit = %+v, want 2 unit hits", st)
			}

			// Invalidation accounting needs function-level lookups under both
			// fingerprints by one store, so it gets a store with no v2
			// verdict: v1 then v2 on a fresh directory. Exactly one slot —
			// top — changes fingerprint; sib replays.
			inv := cold
			inv.Incremental = &pallas.IncrementalOptions{Dir: t.TempDir()}
			ai := pallas.New(inv)
			if err := ai.EnsureIncremental(); err != nil {
				t.Fatal(err)
			}
			for _, src := range []string{v1, v2} {
				if _, err := ai.AnalyzeSource("unit.c", src, ""); err != nil {
					t.Fatal(err)
				}
			}
			st, _ = ai.IncrStats()
			if st.FuncInvalidations != 1 {
				t.Fatalf("v1→v2 stats = %+v, want exactly 1 invalidation (top)", st)
			}
			if st.FuncHits != 1 || st.FuncMisses != 3 {
				t.Fatalf("v1→v2 stats = %+v, want 1 hit (sib) / 3 misses", st)
			}

			// Formatting-only edit: the unit fingerprint is unchanged, so the
			// verdict for v1 replays outright.
			a3 := pallas.New(icfg)
			if err := a3.EnsureIncremental(); err != nil {
				t.Fatal(err)
			}
			res, err = a3.AnalyzeSource("unit.c", v1fmt, "")
			if err != nil {
				t.Fatal(err)
			}
			if rep, db := resultBytes(t, res); rep != wantRep1 || db != wantDB1 {
				t.Fatal("formatting-only edit changed the output")
			}
			if st, _ = a3.IncrStats(); st.UnitHits != 1 || st.FuncMisses != 0 {
				t.Fatalf("formatting-edit stats = %+v, want a pure unit hit", st)
			}
		})
	}
}

// TestIncrementalBatchStats: AnalyzeBatch surfaces the memo's activity delta
// in BatchStats, and cross-unit function reuse works (the func key excludes
// the unit name).
func TestIncrementalBatchStats(t *testing.T) {
	dir := t.TempDir()
	cfg := pallas.Config{Incremental: &pallas.IncrementalOptions{Dir: dir}}
	units := []pallas.Unit{
		{Name: "a.c", Source: incrSrc("a + 1")},
		{Name: "b.c", Source: incrSrc("a + 1")}, // identical code, distinct unit
	}

	_, stats, err := pallas.New(cfg).AnalyzeBatch(units, pallas.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// a.c misses everything; b.c's functions hit (same code, key excludes the
	// unit name) while its unit verdict misses (key includes the unit name).
	if stats.IncrFuncHits != 2 || stats.IncrFuncMisses != 2 {
		t.Fatalf("stats = %+v, want 2 func hits (b.c reusing a.c) and 2 misses", stats)
	}
	if stats.IncrUnitHits != 0 || stats.IncrUnitMisses != 2 {
		t.Fatalf("stats = %+v, want 2 unit misses", stats)
	}

	// Second batch over the same store: both verdicts replay.
	_, stats, err = pallas.New(cfg).AnalyzeBatch(units, pallas.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.IncrUnitHits != 2 || stats.IncrFuncMisses != 0 {
		t.Fatalf("second-batch stats = %+v, want 2 unit hits and no extraction", stats)
	}
}

// TestIncrementalDegradedRunsNotMemoized: a unit with diagnostics must not
// land in the verdict memo — degraded output is timing- and mode-dependent.
func TestIncrementalDegradedRunsNotMemoized(t *testing.T) {
	dir := t.TempDir()
	cfg := pallas.Config{
		KeepGoing:   true,
		Incremental: &pallas.IncrementalOptions{Dir: dir},
	}
	src := "// @pallas: fastpath f\nint f(int a) { return g(; }\n"

	r1 := analyzeIncr(t, cfg, src)
	if r1.Report == nil || !r1.Report.Degraded {
		t.Skip("source did not degrade; test premise gone")
	}
	a := pallas.New(cfg)
	if err := a.EnsureIncremental(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeSource("unit.c", src, ""); err != nil {
		t.Fatal(err)
	}
	if st, _ := a.IncrStats(); st.UnitHits != 0 {
		t.Fatalf("degraded verdict was replayed: %+v", st)
	}
}

// unitOutput renders one analysis exactly as the deep goldens hash it —
// report JSON, path-database JSON and result-cache key — and returns its
// digest.
func unitOutput(t *testing.T, a *pallas.Analyzer, u goldenUnit) string {
	t.Helper()
	res, err := a.AnalyzeSource(u.file, u.src, u.spec)
	if err != nil {
		t.Fatalf("%s: %v", u.id, err)
	}
	var rb bytes.Buffer
	if err := res.Report.WriteJSON(&rb); err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(res.Paths)
	if err != nil {
		t.Fatal(err)
	}
	key := a.CacheKey(pallas.Unit{Name: u.file, Source: u.src, Spec: u.spec})
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n", rb.String(), pb, key)
	return hex.EncodeToString(h.Sum(nil))
}

// TestIncrementalDifferentialReplay: a whole-unit verdict replays byte-
// identically to a cold run on every deep golden unit (corpus, BigFiles,
// feasibility traps, deep_padded.c) at every precision tier — from the
// memory tier of the analyzer that stored it, and from the persistent tier
// through a fresh analyzer over the same directory.
func TestIncrementalDifferentialReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: deep-unit replay differential")
	}
	units := deepGoldenUnits(t)
	for _, tier := range []string{"fast", "balanced", "strict"} {
		t.Run(tier, func(t *testing.T) {
			cold := pallas.Config{Precision: tier}
			icfg := cold
			icfg.Incremental = &pallas.IncrementalOptions{Dir: t.TempDir(), MaxBytes: 1 << 30}
			plain, warm := pallas.New(cold), pallas.New(icfg)
			if err := warm.EnsureIncremental(); err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(units))
			for i, u := range units {
				want[i] = unitOutput(t, plain, u)
				if got := unitOutput(t, warm, u); got != want[i] {
					t.Fatalf("%s: incremental cold-store run drifted from plain run", u.id)
				}
				if got := unitOutput(t, warm, u); got != want[i] {
					t.Fatalf("%s: memory-tier unit replay drifted from plain run", u.id)
				}
			}
			if st, _ := warm.IncrStats(); st.UnitHits != int64(len(units)) {
				t.Fatalf("memory replays: stats = %+v, want %d unit hits", st, len(units))
			}

			fresh := pallas.New(icfg)
			if err := fresh.EnsureIncremental(); err != nil {
				t.Fatal(err)
			}
			for i, u := range units {
				if got := unitOutput(t, fresh, u); got != want[i] {
					t.Fatalf("%s: persistent-tier unit replay drifted from plain run", u.id)
				}
			}
			if st, _ := fresh.IncrStats(); st.UnitHits != int64(len(units)) || st.FuncMisses != 0 {
				t.Fatalf("persistent replays: stats = %+v, want %d unit hits and no extraction", st, len(units))
			}
		})
	}
}
