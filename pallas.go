// Package pallas is a semantic-aware static checking toolkit for finding
// deep bugs in fast paths, reproducing the system described in
//
//	Huang, Allen-Bond, Zhang. "PALLAS: Semantic-Aware Checking for Finding
//	Deep Bugs in Fast Path". ASPLOS 2017.
//
// A fast path is the optimized common-case branch of a workflow. Pallas
// checks five error-prone aspects of a fast path — path state, trigger
// condition, path output, fault handling, and assistant data structures —
// against simple user-provided semantic information (which variables are
// immutable, which variables form the trigger condition, what the defined
// return values are, ...).
//
// Typical use:
//
//	a := pallas.New(pallas.Config{})
//	res, err := a.AnalyzeSource("page_alloc.c", src, `
//	    fastpath get_page_from_freelist
//	    immutable gfp_mask nodemask migratetype
//	`)
//	for _, w := range res.Report.Warnings { fmt.Println(w) }
//
// The analyzer merges the source and its includes into one translation unit
// (as the paper does), parses it with the built-in C front-end, extracts
// bounded symbolic execution paths, and filters them through the five
// checkers.
package pallas

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pallas/internal/cast"
	"pallas/internal/cfg"
	"pallas/internal/checkers"
	"pallas/internal/cparse"
	"pallas/internal/cpp"
	"pallas/internal/difftool"
	"pallas/internal/failpoint"
	"pallas/internal/feas"
	"pallas/internal/guard"
	"pallas/internal/incr"
	"pallas/internal/infer"
	"pallas/internal/metrics"
	"pallas/internal/pathdb"
	"pallas/internal/paths"
	"pallas/internal/report"
	"pallas/internal/spec"
)

// Re-exported result types. The aliases make the internal types part of the
// public API without duplicating them.
type (
	// Warning is one rule violation.
	Warning = report.Warning
	// Report is a set of warnings for one analysis target.
	Report = report.Report
	// Aspect is one of the five fast-path aspects.
	Aspect = report.Aspect
	// Spec is the parsed semantic annotation set.
	Spec = spec.Spec
	// ExecPath is one extracted execution path.
	ExecPath = paths.ExecPath
	// FuncPaths is the extraction result for one function.
	FuncPaths = paths.FuncPaths
	// PathDB is a persistent store of extracted paths.
	PathDB = pathdb.DB
	// Diff is a fast-vs-slow path comparison.
	Diff = difftool.Diff
	// Suggestion is one inferred spec directive.
	Suggestion = infer.Suggestion
	// Diagnostic records one non-fatal problem (crash, budget exhaustion,
	// malformed input) that degraded an analysis.
	Diagnostic = guard.Diagnostic
)

// IsBudget reports whether err is a resource-budget violation (deadline,
// step, or macro-expansion limit) as opposed to a malformed-input error.
// Budget violations always yield a degraded partial result rather than a
// failure.
func IsBudget(err error) bool { return guard.IsBudget(err) }

// The five aspects, re-exported in paper order.
const (
	PathState        = report.PathState
	TriggerCondition = report.TriggerCondition
	PathOutput       = report.PathOutput
	FaultHandling    = report.FaultHandling
	DataStructure    = report.DataStructure
)

// Config configures an Analyzer.
type Config struct {
	// IncludeDirs are searched for #include "..." files.
	IncludeDirs []string
	// Includes optionally serves include files from memory; when set it takes
	// precedence over IncludeDirs.
	Includes map[string]string
	// Defines are predefined object-like macros (CONFIG_ options etc.).
	Defines map[string]string
	// MaxPaths caps extracted paths per function (default 512).
	MaxPaths int
	// MaxBlockVisits bounds loop traversals per path (default 2).
	MaxBlockVisits int
	// InlineDepth switches callee summarization: 0 or any positive value
	// turns summaries on, a negative one turns them off. Summaries are one
	// level deep whatever the value, so New normalises it to 2 (on) or -1
	// (off), and the cache and memo fingerprints render only those two.
	InlineDepth int
	// Checkers selects a subset of the five checkers by name ("path-state",
	// "trigger-condition", "path-output", "fault-handling", "data-struct");
	// empty means all.
	Checkers []string
	// Deadline bounds the wall-clock time of one analysis unit. When it
	// expires the unit returns whatever it has (partial paths, the warnings
	// already found) with Report.Degraded set. Zero means no deadline.
	Deadline time.Duration
	// MaxMacroExpansions bounds preprocessor macro replacements per unit,
	// stopping self-referential expansion bombs. Zero applies the
	// preprocessor default (cpp.DefaultMaxExpansions).
	MaxMacroExpansions int64
	// MaxSteps bounds path-extraction block visits per unit; like Deadline,
	// exhaustion degrades instead of failing. Zero means unlimited.
	MaxSteps int64
	// KeepGoing turns malformed-input failures (unparseable functions, bad
	// spec directives, missing includes) into per-stage Diagnostics on a
	// degraded Result instead of errors. Budget exhaustion degrades
	// regardless of this flag.
	KeepGoing bool
	// AnalysisWorkers bounds intra-unit parallelism: per-function path
	// extraction and the five checkers fan out across this many goroutines
	// within one AnalyzeSource call. <= 1 analyzes serially (the default).
	// The output is deterministic regardless of the setting — reports,
	// warning order, diagnostics, saved path databases, and cache keys are
	// byte-identical between 1 and N workers — so the field is deliberately
	// absent from cache-key fingerprints.
	//
	// AnalysisWorkers composes multiplicatively with outer concurrency:
	// AnalyzeBatch runs up to BatchOptions.Workers units at once and `pallas
	// serve` admits up to its -workers requests, each of which may fan out
	// AnalysisWorkers goroutines, so total CPU demand is bounded by
	// outer × AnalysisWorkers. Keep the product near GOMAXPROCS.
	AnalysisWorkers int
	// Precision selects the path-feasibility tier (internal/feas): "fast"
	// (or empty — the default) analyzes exactly as before the feasibility
	// layer existed, byte-identically; "balanced" prunes path continuations
	// whose accumulated branch conditions are interval- or disequality-
	// contradictory before any checker runs; "strict" adds cross-condition
	// equality unification under a per-function step budget. Unlike
	// AnalysisWorkers, the tier CAN change analysis output (pruned paths
	// disappear from path databases and pruned-path counts appear in
	// reports), so non-fast tiers are part of the cache-key fingerprint —
	// tiers never share cache or memo entries — while "fast" keeps the
	// historical fingerprint so existing caches stay warm.
	Precision string
	// Incremental, when non-nil, enables the function-level memo engine
	// (internal/incr): every analyzed function is fingerprinted — its
	// canonical post-preprocess rendering plus the fingerprints of all
	// transitively called functions, over the unit's dependency DAG — and
	// functions whose fingerprint is unchanged replay their memoized path
	// records instead of being re-extracted; a unit where nothing changed
	// replays its whole verdict. Reports, warning order, diagnostics and
	// path databases stay byte-identical to a cold run at any
	// AnalysisWorkers count. Like AnalysisWorkers, the field is absent from
	// cache-key fingerprints: it changes how fast a result is produced,
	// never what is produced.
	Incremental *IncrementalOptions
}

// CheckerNames lists the five checker names in paper order.
func CheckerNames() []string {
	var out []string
	for _, c := range checkers.All() {
		out = append(out, c.Name())
	}
	return out
}

// Analyzer runs the Pallas pipeline.
type Analyzer struct {
	cfg Config

	// Function-level memo store (Config.Incremental), opened lazily so a
	// misconfigured directory degrades to cold analysis unless the caller
	// checks EnsureIncremental.
	incrOnce sync.Once
	incrMemo *incr.Store
	incrErr  error

	// reg is the analyzer's counter store: the feasibility counters below
	// and the memo store's. FeasStats and IncrStats read it; a server's
	// /metrics renders it.
	reg                      *metrics.Registry
	mFeasPruned, mFeasContra *metrics.Counter
}

// FeasStats is the cumulative feasibility activity of one analyzer.
type FeasStats = paths.FeasStats

// FeasStats reports how much work the feasibility layer avoided across
// every analysis this analyzer ran: pruned counts discarded path
// continuations (including those replayed from memoized verdicts),
// contradictions counts contradiction events seen during fresh extraction.
// Both are always zero at precision "fast".
func (a *Analyzer) FeasStats() FeasStats {
	return FeasStats{Pruned: a.mFeasPruned.Value(), Contradictions: a.mFeasContra.Value()}
}

// Metrics returns the analyzer's registry: the pallas_feas_* counters at
// every precision tier, plus the pallas_incr_* instruments once the memo
// store is open.
func (a *Analyzer) Metrics() *metrics.Registry { return a.reg }

// New returns an analyzer with the given configuration and a registry of
// its own.
func New(cfg Config) *Analyzer {
	if cfg.MaxPaths <= 0 {
		cfg.MaxPaths = 512
	}
	if cfg.MaxBlockVisits <= 0 {
		cfg.MaxBlockVisits = 2
	}
	if cfg.InlineDepth >= 0 {
		cfg.InlineDepth = 2
	} else {
		cfg.InlineDepth = -1
	}
	reg := metrics.NewRegistry()
	return &Analyzer{
		cfg:         cfg,
		reg:         reg,
		mFeasPruned: reg.Counter(metrics.MetricFeasPathsPruned, "Path continuations discarded as infeasible by the feasibility layer."),
		mFeasContra: reg.Counter(metrics.MetricFeasContradictions, "Contradictory branch-condition accumulations detected during path walks."),
	}
}

// Result is a completed analysis.
type Result struct {
	// Report holds the warnings, sorted deterministically.
	Report *Report
	// Spec is the effective semantic specification (file + annotations).
	Spec *Spec
	// Paths contains the extracted execution paths for every analyzed
	// function. They are read-only: with the incremental memo on, they are
	// the memo's live function records, shared with other analyses.
	Paths *PathDB
	// Merged is the preprocessed translation-unit text.
	Merged string
	// Diagnostics records every non-fatal problem hit while producing this
	// result: budget exhaustion, crashed stages, and (with KeepGoing)
	// malformed input. Non-empty Diagnostics imply Report.Degraded.
	Diagnostics []Diagnostic

	tu *cast.TranslationUnit
}

// TU exposes the parsed translation unit for advanced consumers (the diff
// tool and the experiment harness).
func (r *Result) TU() *cast.TranslationUnit { return r.tu }

// Degraded reports whether the analysis completed only partially; absence of
// a warning in a degraded result is not evidence of absence of a bug.
func (r *Result) Degraded() bool { return r.Report != nil && r.Report.Degraded }

func (a *Analyzer) source() cpp.Source {
	if a.cfg.Includes != nil {
		return cpp.MapSource(a.cfg.Includes)
	}
	if len(a.cfg.IncludeDirs) > 0 {
		return cpp.FileSource{Dirs: a.cfg.IncludeDirs}
	}
	return nil
}

// AnalyzeFile analyzes one C file on disk with an optional spec document.
func (a *Analyzer) AnalyzeFile(path, specText string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := a.cfg
	if cfg.Includes == nil && len(cfg.IncludeDirs) == 0 {
		cfg.IncludeDirs = []string{filepath.Dir(path)}
	}
	sub := New(cfg)
	return sub.AnalyzeSource(filepath.Base(path), string(b), specText)
}

// AnalyzeSource analyzes in-memory source text with an optional spec
// document. Inline `// @pallas:` annotations in the source are merged with
// specText (specText directives come first).
//
// Each stage of the pipeline runs under the unit's budget and a panic guard.
// Budget exhaustion — and, with Config.KeepGoing, malformed input — degrades
// the result (Diagnostics recorded, Report.Degraded set, remaining healthy
// work still done) instead of failing it.
func (a *Analyzer) AnalyzeSource(name, src, specText string) (*Result, error) {
	// Crash-test hook: inert unless a failpoint is armed (tests, chaos runs).
	if err := failpoint.Hit(failpoint.PreParse, name); err != nil {
		return nil, err
	}
	budget := a.newBudget()
	var diags []Diagnostic
	// tolerate decides a stage error's fate: budget violations always
	// degrade; input errors degrade under KeepGoing, or when an earlier
	// stage already degraded the unit (then the error is a consequence of
	// that, not genuinely malformed input); everything else is fatal and
	// keeps its historical wrapping.
	tolerate := func(stage guard.Stage, err error) bool {
		if guard.IsBudget(err) || a.cfg.KeepGoing || len(diags) > 0 {
			diags = append(diags, guard.Diag(stage, name, err, true))
			return true
		}
		return false
	}

	var merged string
	err := guard.Protect(guard.StagePreprocess, name, func() error {
		pp := cpp.New(a.source())
		pp.Budget = budget
		if a.cfg.MaxMacroExpansions > 0 {
			pp.MaxExpansions = a.cfg.MaxMacroExpansions
		}
		for _, k := range mapKeys(a.cfg.Defines) {
			pp.Define(k, a.cfg.Defines[k])
		}
		var merr error
		merged, merr = pp.MergeText(name, src)
		return merr
	})
	if err != nil && !tolerate(guard.StagePreprocess, err) {
		return nil, fmt.Errorf("preprocess %s: %w", name, err)
	}

	var tu *cast.TranslationUnit
	err = guard.Protect(guard.StageParse, name, func() error {
		var perr error
		tu, perr = cparse.Parse(name, merged)
		return perr
	})
	if err != nil && !tolerate(guard.StageParse, err) {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	if tu == nil {
		// The parser crashed before producing even a partial unit; keep the
		// diagnostics and check nothing.
		tu = &cast.TranslationUnit{File: name}
	}

	sp, err := spec.Parse(specText)
	if err != nil {
		if !tolerate(guard.StageSpec, err) {
			return nil, fmt.Errorf("spec: %w", err)
		}
		sp, _ = spec.Parse("")
	}
	anno, err := spec.FromAnnotations(tu)
	if err != nil && !tolerate(guard.StageSpec, err) {
		return nil, fmt.Errorf("annotations: %w", err)
	}
	if anno != nil {
		sp.Merge(anno)
	}
	return a.analyze(tu, sp, merged, budget, diags)
}

func (a *Analyzer) analyze(tu *cast.TranslationUnit, sp *spec.Spec, merged string,
	budget *guard.Budget, diags []Diagnostic) (*Result, error) {
	if err := failpoint.Hit(failpoint.PreExtract, tu.File); err != nil {
		return nil, err
	}
	// Validate the checker selection before any (potentially expensive)
	// path extraction happens.
	var selected []checkers.Checker
	for _, n := range a.cfg.Checkers {
		c := checkers.ByName(n)
		if c == nil {
			return nil, fmt.Errorf("unknown checker %q (have %v)", n, CheckerNames())
		}
		selected = append(selected, c)
	}
	tier, terr := feas.ParseTier(a.cfg.Precision)
	if terr != nil {
		return nil, terr
	}
	// Incremental memo: fingerprint the unit over its dependency DAG, replay
	// the whole verdict when nothing changed, otherwise seed extraction with
	// the per-function hits. Pipelines that already degraded run cold —
	// their diagnostics and truncation are timing-dependent, so only clean
	// state is replayed (and, below, stored).
	var memo *memoRun
	if st := a.incrStore(); st != nil {
		memo = a.newMemoRun(st, tu)
		if len(diags) == 0 && budget.Err() == nil {
			if res := memo.replayUnit(tu, sp, merged, a.derivePaths(memo, tu, sp, tier)); res != nil {
				// Replayed verdicts carry the pruned tally of the clean run
				// they memoized; keep the analyzer-level counters moving.
				a.mFeasPruned.Add(int64(res.Report.PathsPruned))
				return res, nil
			}
		}
	}
	pcfg := a.pathsConfig(budget, tier)
	if memo != nil {
		pcfg.Seed = memo.seed(sp)
	}
	// Once any stage has degraded, the unit may be partial (functions the
	// spec names can be missing), so extraction must tolerate gaps too.
	var ctx *checkers.Context
	var err error
	if a.cfg.KeepGoing || len(diags) > 0 {
		ctx, err = checkers.NewContextTolerant(tu, sp, pcfg)
		if err != nil { // only an exhausted budget stops the tolerant path
			diags = append(diags, guard.Diag(guard.StageExtract, tu.File, err, true))
		}
	} else {
		ctx, err = checkers.NewContext(tu, sp, pcfg)
		if err != nil {
			return nil, err
		}
	}
	rep := checkers.Run(ctx, selected...)
	a.mFeasPruned.Add(int64(rep.PathsPruned))
	a.mFeasContra.Add(ctx.Extractor.FeasStats().Contradictions)
	diags = append(diags, ctx.Diagnostics...)
	if err := budget.Err(); err != nil && !hasDiagFor(diags, err) {
		diags = append(diags, guard.Diag(guard.StageExtract, tu.File, err, true))
	}
	if len(diags) > 0 {
		rep.Degraded = true
	}

	if memo != nil && len(diags) == 0 && !rep.Degraded {
		memo.store(ctx.FuncPaths, rep, merged)
	}
	return &Result{Report: rep, Spec: sp, Paths: buildPathDB(ctx, diags), Merged: merged, Diagnostics: diags, tu: tu}, nil
}

// newBudget returns a fresh budget with the configured limits.
func (a *Analyzer) newBudget() *guard.Budget {
	return guard.NewBudget(nil, guard.Limits{
		Deadline:           a.cfg.Deadline,
		MaxSteps:           a.cfg.MaxSteps,
		MaxMacroExpansions: a.cfg.MaxMacroExpansions,
	})
}

// pathsConfig is the extraction configuration of every analysis run by a.
func (a *Analyzer) pathsConfig(budget *guard.Budget, tier feas.Tier) paths.Config {
	return paths.Config{
		MaxPaths:       a.cfg.MaxPaths,
		MaxBlockVisits: a.cfg.MaxBlockVisits,
		InlineDepth:    a.cfg.InlineDepth,
		Budget:         budget,
		Workers:        a.cfg.AnalysisWorkers,
		Precision:      tier,
	}
}

// buildPathDB collects a context's extraction results and the run's
// diagnostics into the result's path database. Insertion order does not
// matter: entries are keyed by function name and encoded in key order.
func buildPathDB(ctx *checkers.Context, diags []Diagnostic) *pathdb.DB {
	db := pathdb.New(ctx.File)
	for _, fp := range ctx.FuncPaths {
		db.Put(fp)
	}
	for _, d := range diags {
		db.AddDiagnostic(d)
	}
	return db
}

// ComparePaths runs the study's code-comparison tool on a fast/slow function
// pair within an analyzed result.
func (r *Result) ComparePaths(fast, slow string) (*Diff, error) {
	ff := r.tu.Func(fast)
	sf := r.tu.Func(slow)
	if ff == nil || sf == nil {
		return nil, fmt.Errorf("compare: function not found (fast=%v slow=%v)", ff != nil, sf != nil)
	}
	return difftool.Compare(r.tu, ff, sf), nil
}

// RenderWorkflow draws the named function's control flow as an ASCII
// workflow in the style of the paper's Figure 1.
func (r *Result) RenderWorkflow(fn string) (string, error) {
	f := r.tu.Func(fn)
	if f == nil {
		return "", fmt.Errorf("no function %q", fn)
	}
	g, err := cfg.Build(f)
	if err != nil {
		return "", err
	}
	return cfg.RenderWorkflow(g), nil
}

// InferSpec proposes spec directives for a fast/slow pair in an analyzed
// result by treating the slow path as the reference implementation — the
// automated semantic-extraction step the paper leaves as future work.
// Suggestions are ranked by confidence and must be reviewed by a developer.
func (r *Result) InferSpec(fast, slow string) ([]Suggestion, error) {
	return infer.Infer(r.tu, fast, slow)
}

// ExtractPaths extracts paths for one function of an analyzed result even if
// the spec did not name it (useful for browsing, Table 5 demos, ...), at
// the analyzer's precision tier.
func (a *Analyzer) ExtractPaths(name, src, fn string) (*FuncPaths, error) {
	tier, err := feas.ParseTier(a.cfg.Precision)
	if err != nil {
		return nil, err
	}
	pp := cpp.New(a.source())
	merged, err := pp.MergeText(name, src)
	if err != nil {
		return nil, err
	}
	tu, err := cparse.Parse(name, merged)
	if err != nil {
		return nil, err
	}
	return paths.NewExtractor(tu, a.pathsConfig(nil, tier)).Extract(fn)
}

// hasDiagFor reports whether some diagnostic already mentions err, so the
// final budget sweep does not re-record a violation a stage already reported.
func hasDiagFor(diags []Diagnostic, err error) bool {
	for _, d := range diags {
		if strings.Contains(d.Err, err.Error()) {
			return true
		}
	}
	return false
}

// mapKeys returns m's keys in sorted order. Every consumer (preprocessor
// defines, cache-key fingerprints, error text) relies on the sorting for
// run-to-run stability; TestMapKeysSorted pins the contract.
func mapKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
