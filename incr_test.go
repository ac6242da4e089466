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
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pallas"
	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/incr"
	"pallas/internal/pathdb"
	"pallas/internal/rcache"
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

// deepPadded is testdata/deep_padded.c with its spec: the deep golden unit
// whose extraction dwarfs its preprocessing and parsing.
func deepPadded(t *testing.T) goldenUnit {
	t.Helper()
	us := deepGoldenUnits(t)
	return us[len(us)-1]
}

// pathBytes renders a path database both ways a consumer can: the compact
// JSON a server ships and the indented file Save writes.
func pathBytes(t *testing.T, db *pallas.PathDB) (string, string) {
	t.Helper()
	js, err := json.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := db.Write(&file); err != nil {
		t.Fatal(err)
	}
	return string(js), file.String()
}

// TestIncrementalReplayDerivesPathsOnRead: a unit verdict memo stores no
// path database. A replayed Result derives its paths on first read; they
// match a cold run byte for byte, a replay whose paths nobody reads runs
// no extraction, concurrent first reads fill once, and a unit record of
// the older layout (path database in the entry) is a miss.
func TestIncrementalReplayDerivesPathsOnRead(t *testing.T) {
	u := deepPadded(t)
	analyze := func(t *testing.T, a *pallas.Analyzer) *pallas.Result {
		t.Helper()
		res, err := a.AnalyzeSource(u.file, u.src, u.spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warmAnalyzer := func(t *testing.T, cfg pallas.Config) *pallas.Analyzer {
		t.Helper()
		a := pallas.New(cfg)
		if err := a.EnsureIncremental(); err != nil {
			t.Fatal(err)
		}
		analyze(t, a) // stores the verdict
		return a
	}

	t.Run("bytes", func(t *testing.T) {
		for _, tier := range []string{"fast", "balanced", "strict"} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/workers=%d", tier, workers), func(t *testing.T) {
					cold := pallas.Config{Precision: tier, AnalysisWorkers: workers}
					wantJSON, wantFile := pathBytes(t, analyze(t, pallas.New(cold)).Paths)
					icfg := cold
					icfg.Incremental = &pallas.IncrementalOptions{}
					a := warmAnalyzer(t, icfg)
					res := analyze(t, a)
					if st, _ := a.IncrStats(); st.UnitHits != 1 {
						t.Fatalf("second analysis did not replay: %+v", st)
					}
					if res.Paths.NumPaths() == 0 {
						t.Fatal("replayed path database is empty")
					}
					gotJSON, gotFile := pathBytes(t, res.Paths)
					if gotJSON != wantJSON {
						t.Fatal("replayed path database JSON drifted from the cold run")
					}
					if gotFile != wantFile {
						t.Fatal("replayed path database file drifted from the cold run")
					}
				})
			}
		}
	})

	t.Run("report-only replay runs no extraction", func(t *testing.T) {
		cold := testing.AllocsPerRun(2, func() { analyze(t, pallas.New(pallas.Config{})) })
		a := warmAnalyzer(t, pallas.Config{Incremental: &pallas.IncrementalOptions{}})
		replay := testing.AllocsPerRun(5, func() { analyze(t, a) })
		if replay*10 >= cold {
			t.Fatalf("report-only replay allocated %.0f times, cold analysis %.0f: want under a tenth", replay, cold)
		}
	})

	t.Run("concurrent first reads fill once", func(t *testing.T) {
		var fills atomic.Int32
		start := make(chan struct{})
		lazy := pathdb.Lazy("u.c", func() (*pathdb.DB, error) {
			fills.Add(1)
			time.Sleep(20 * time.Millisecond) // every reader arrives mid-fill
			db := pathdb.New("u.c")
			db.Put(&pallas.FuncPaths{Fn: "f", Signature: "f(a)"})
			return db, nil
		})
		a := warmAnalyzer(t, pallas.Config{Incremental: &pallas.IncrementalOptions{}, AnalysisWorkers: 4})
		replayed := analyze(t, a).Paths
		want, _ := pathBytes(t, analyze(t, pallas.New(pallas.Config{})).Paths)

		var wg sync.WaitGroup
		got := make([]string, 8)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if len(lazy.Funcs()) != 1 || lazy.Get("f") == nil || lazy.NumPaths() != 0 {
					t.Errorf("reader %d saw an unfilled database", i)
				}
				b, err := json.Marshal(replayed)
				if err != nil {
					t.Error(err)
				}
				got[i] = string(b)
			}()
		}
		close(start)
		wg.Wait()
		if n := fills.Load(); n != 1 {
			t.Fatalf("eight concurrent readers ran fill %d times, want 1", n)
		}
		for i, g := range got {
			if g != want {
				t.Fatalf("reader %d: replayed path database drifted from the cold run", i)
			}
		}
	})

	t.Run("path read seeds from the function memo without counting", func(t *testing.T) {
		src := incrSrc("a + 1")
		want := analyzeIncr(t, pallas.Config{}, src)
		a := pallas.New(pallas.Config{Incremental: &pallas.IncrementalOptions{}})
		for i := 0; i < 2; i++ { // store, then replay
			if _, err := a.AnalyzeSource("unit.c", src, ""); err != nil {
				t.Fatal(err)
			}
		}
		res, err := a.AnalyzeSource("unit.c", src, "")
		if err != nil {
			t.Fatal(err)
		}
		before, _ := a.IncrStats()
		if before.UnitHits != 2 {
			t.Fatalf("stats = %+v, want two verdict replays", before)
		}
		// Every analyzed function has a record, so the fill extracts
		// nothing and an armed extraction fault cannot reach it.
		if err := failpoint.Arm("extract-func=error"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm()
		wantRep, wantPaths := resultBytes(t, want)
		if rep, db := resultBytes(t, res); rep != wantRep || db != wantPaths {
			t.Fatal("replayed result drifted from the cold run")
		}
		if after, _ := a.IncrStats(); after != before {
			t.Fatalf("reading replayed paths moved the memo counters: %+v -> %+v", before, after)
		}
	})

	t.Run("failed fill is an error, not an empty database", func(t *testing.T) {
		// MaxPaths 1 truncates big, and truncated functions have no memo
		// record, so the fill must extract big again: under an injected
		// fault, or slowly enough to spend the fill's own deadline.
		var src strings.Builder
		src.WriteString("// @pallas: fastpath big\nint big(int a)\n{\n\tint r = 0;\n")
		for i := 0; i < 300; i++ {
			fmt.Fprintf(&src, "\tif (a > %d) r = r + %d;\n", i, i)
		}
		src.WriteString("\treturn r;\n}\n")
		for fault, want := range map[string]error{
			"extract-func=error/big":        failpoint.ErrInjected,
			"extract-func=sleep:1200ms/big": guard.ErrDeadline,
		} {
			cfg := pallas.Config{MaxPaths: 1, Deadline: time.Second,
				Incremental: &pallas.IncrementalOptions{}}
			a := pallas.New(cfg)
			var res *pallas.Result
			for i := 0; i < 2; i++ {
				var err error
				if res, err = a.AnalyzeSource("unit.c", src.String(), ""); err != nil {
					t.Fatal(err)
				}
			}
			if st, _ := a.IncrStats(); st.UnitHits != 1 || res.Degraded() {
				t.Fatalf("stats = %+v, degraded %v: want a clean replay", st, res.Degraded())
			}
			if err := failpoint.Arm(fault); err != nil {
				t.Fatal(err)
			}
			_, merr := json.Marshal(res.Paths)
			werr := res.Paths.Write(io.Discard)
			failpoint.Disarm()
			if !errors.Is(merr, want) || !errors.Is(werr, want) {
				t.Fatalf("%s: json.Marshal err = %v, Write err = %v; want %v", fault, merr, werr, want)
			}
			if res.Paths.Get("big") != nil || len(res.Paths.Diagnostics) != 0 {
				t.Fatalf("%s: a failed fill produced entries or diagnostics", fault)
			}
		}
	})

	t.Run("v2 unit record is a miss", func(t *testing.T) {
		dir := t.TempDir()
		icfg := pallas.Config{Incremental: &pallas.IncrementalOptions{Dir: dir}}
		coldRes := analyze(t, pallas.New(pallas.Config{}))
		wantPaths, _ := pathBytes(t, coldRes.Paths)
		warmAnalyzer(t, icfg)

		// Rewrite the stored verdict into the version-2 layout: the same
		// header under version 2, the path database in the entry's Paths,
		// and a Sum over both, so only the version can refuse it.
		rewritten := 0
		filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var e rcache.Entry
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(e.Unit, "incr-unit:") {
				return nil
			}
			v2 := strings.Replace(string(e.Report), `{"version":3,`, `{"version":2,`, 1)
			if v2 == string(e.Report) {
				t.Fatalf("unit record is not version 3: %.80s", e.Report)
			}
			e.Report, e.Paths = json.RawMessage(v2), json.RawMessage(wantPaths)
			e.Sum = rcache.ContentSum(e.Report, e.Paths)
			if b, err = json.Marshal(&e); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			rewritten++
			return nil
		})
		if rewritten != 1 {
			t.Fatalf("rewrote %d unit records, want 1", rewritten)
		}

		a := pallas.New(icfg)
		if err := a.EnsureIncremental(); err != nil {
			t.Fatal(err)
		}
		res := analyze(t, a)
		if st, _ := a.IncrStats(); st.UnitHits != 0 || st.UnitMisses != 1 {
			t.Fatalf("stats = %+v, want the version-2 unit record to miss", st)
		}
		wantRep, _ := resultBytes(t, coldRes)
		if rep, db := resultBytes(t, res); rep != wantRep || db != wantPaths {
			t.Fatal("analysis after a version-2 miss drifted from the cold run")
		}
	})
}

// recordingBacking is a memo backing over one memory-only cache that
// remembers the key of every live function record put through it.
type recordingBacking struct {
	incr.Backing
	cache *rcache.Cache
	mu    sync.Mutex
	keys  map[string]bool
}

func newRecordingBacking(t *testing.T) *recordingBacking {
	t.Helper()
	c, err := rcache.Open(rcache.Options{MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return &recordingBacking{Backing: incr.Local(c), cache: c, keys: map[string]bool{}}
}

func (r *recordingBacking) Put(e *rcache.Entry) error {
	if _, ok := e.Live.(*incr.FuncRecord); ok {
		r.mu.Lock()
		r.keys[e.Key] = true
		r.mu.Unlock()
	}
	return r.Backing.Put(e)
}

// liveRecord is one live function record the cache holds, with the unit
// it was stored for.
type liveRecord struct {
	unit string
	rec  *incr.FuncRecord
}

// records returns every recorded function record the cache still holds.
func (r *recordingBacking) records(t *testing.T) []liveRecord {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []liveRecord
	for key := range r.keys {
		e, ok := r.cache.Peek(key)
		if !ok {
			t.Fatalf("function record %s left the cache", key)
		}
		rec, ok := e.Live.(*incr.FuncRecord)
		if !ok {
			t.Fatalf("function record %s is no longer live", key)
		}
		unit := strings.TrimPrefix(e.Unit, "incr-func:")
		out = append(out, liveRecord{unit: unit[:strings.LastIndex(unit, "/")], rec: rec})
	}
	return out
}

// TestIncrementalLiveRecordsStayUnmodified: the memo keeps function records
// as live values shared by every analysis that replays them, so nothing may
// modify a FuncPaths after extraction emits it. Four clients analyze every
// deep golden unit concurrently through one memo-on analyzer, each from
// its own offset and twice over. Under the unit's own name a client
// replays the verdict, and reading its paths (MarshalJSON, Write) runs the
// lazy fill over the shared records; under an alias name the verdict
// misses and every function replays its record into the checkers and the
// path database. Afterwards every live record must deep-equal a fresh
// cold extraction of its function at the same precision tier. Run it with
// -race.
func TestIncrementalLiveRecordsStayUnmodified(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: deep-unit concurrent replay")
	}
	units := deepGoldenUnits(t)
	for _, run := range []struct {
		precision string
		workers   int
	}{{"fast", 1}, {"fast", 4}, {"balanced", 4}, {"strict", 1}, {"strict", 4}} {
		t.Run(fmt.Sprintf("precision=%s/workers=%d", run.precision, run.workers), func(t *testing.T) {
			rb := newRecordingBacking(t)
			a := pallas.New(pallas.Config{Precision: run.precision, AnalysisWorkers: run.workers, Incremental: &pallas.IncrementalOptions{Backing: rb}})
			const clients = 4
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 2*len(units); i++ {
						// Corpus cases share file names, so the name leads
						// with the unit's index.
						n := (i + c*len(units)/clients) % len(units)
						u := units[n]
						name := fmt.Sprintf("%d/%s", n, u.file)
						if c%2 == 1 {
							name = "alias/" + name
						}
						res, err := a.AnalyzeSource(name, u.src, u.spec)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							return
						}
						if _, err := res.Paths.MarshalJSON(); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						if err := res.Paths.Write(io.Discard); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}(c)
			}
			wg.Wait()
			if st, _ := a.IncrStats(); st.UnitHits == 0 || st.FuncHits == 0 {
				t.Fatalf("stats = %+v, want verdict replays and function replays", st)
			}

			recs := rb.records(t)
			if len(recs) == 0 {
				t.Fatal("no live function records")
			}
			cold := pallas.New(pallas.Config{Precision: run.precision})
			for _, r := range recs {
				var n int
				if _, err := fmt.Sscanf(strings.TrimPrefix(r.unit, "alias/"), "%d/", &n); err != nil {
					t.Fatalf("unit name %q: %v", r.unit, err)
				}
				u := units[n]
				want, err := cold.ExtractPaths(u.file, u.src, r.rec.Fn)
				if err != nil {
					t.Fatalf("%s/%s: %v", u.file, r.rec.Fn, err)
				}
				if !reflect.DeepEqual(r.rec.Paths, want) {
					t.Errorf("%s/%s: live record differs from a cold extraction", u.file, r.rec.Fn)
				}
			}
		})
	}
}

// TestLiveRecordSizeEstimate: the memory tier charges a live function
// record paths.FuncPaths.Size plus its header, an estimate of what it
// holds. Over the deep goldens that estimate must stay between one and two
// times the record's encoded length, the bytes it was charged as before.
func TestLiveRecordSizeEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: deep-unit extraction")
	}
	rb := newRecordingBacking(t)
	a := pallas.New(pallas.Config{Incremental: &pallas.IncrementalOptions{Backing: rb}})
	for _, u := range deepGoldenUnits(t) {
		if _, err := a.AnalyzeSource(u.file, u.src, u.spec); err != nil {
			t.Fatalf("%s: %v", u.id, err)
		}
	}
	var est, enc int64
	for _, r := range rb.records(t) {
		b, err := r.rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		est += r.rec.Size()
		enc += int64(len(b))
	}
	ratio := float64(est) / float64(enc)
	t.Logf("%d live records: estimate %d B, encoded %d B, ratio %.2f", len(rb.keys), est, enc, ratio)
	if ratio < 1 || ratio > 2 {
		t.Fatalf("size estimate is %.2f times the encoded length, want between 1 and 2", ratio)
	}
}

// bigUnit returns a unit whose preprocessed text is dominated by string
// literals, n bytes in all, with one small function the spec names.
func bigUnit(n int) string {
	var sb strings.Builder
	line := strings.Repeat("x", 64<<10)
	for i := 0; i < n/len(line); i++ {
		fmt.Fprintf(&sb, "static const char pad%d[] = \"%s\";\n", i, line)
	}
	return sb.String() + `int helper(int *p, int n) { if (*p > n) *p = n; return *p; }
int fast(int *p, int gfp_mask, int order) {
	int r = 0;
	if (gfp_mask & 4) {
		r = helper(p, order);
		if (!r)
			return -1;
	}
	gfp_mask = 0;
	return r + order;
}
`
}

// TestLiveRecordsHoldNoSourceText: the extractor's names are slices of the
// unit's whole preprocessed text, so a live memo record that kept them
// would keep that text alive, uncharged against the cache's byte budget.
// After analyzing a unit of 8 MiB and dropping the result, the heap the
// analyzer retains must stay near what its cache is charged.
func TestLiveRecordsHoldNoSourceText(t *testing.T) {
	const pad = 8 << 20
	rb := newRecordingBacking(t)
	a := pallas.New(pallas.Config{Incremental: &pallas.IncrementalOptions{Backing: rb}})
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	func() {
		res, err := a.AnalyzeSource("big.c", bigUnit(pad), "fastpath fast\nimmutable gfp_mask\n")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Diagnostics) > 0 || len(res.Report.Warnings) == 0 {
			t.Fatalf("diagnostics %v, %d warnings: want a clean analysis that warns", res.Diagnostics, len(res.Report.Warnings))
		}
	}()
	retained := heap() - before
	recs := rb.records(t)
	charged := rb.cache.Stats().Bytes
	t.Logf("%d live records, %d B charged, %d B retained", len(recs), charged, retained)
	if len(recs) == 0 {
		t.Fatal("no live function records")
	}
	if retained > 2*charged+pad/8 {
		t.Fatalf("the analyzer retains %d B after the result is gone; its cache is charged %d B", retained, charged)
	}
	runtime.KeepAlive(a)
}
