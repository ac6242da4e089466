package pallas

// Incremental analysis: the glue between the pipeline (analyze) and the
// function-level memo engine (internal/incr). With Config.Incremental set,
// each analysis fingerprints its unit over a dependency DAG, replays a
// whole-unit verdict when nothing changed, seeds extraction with memoized
// per-function path records for unchanged functions, and memoizes whatever a
// clean run freshly produced. Output is byte-identical to a cold run at any
// AnalysisWorkers count; degraded runs (diagnostics, budget truncation) are
// never replayed or stored because their content is timing-dependent.

import (
	"encoding/json"
	"fmt"
	"strings"

	"pallas/internal/cast"
	"pallas/internal/checkers"
	"pallas/internal/feas"
	"pallas/internal/guard"
	"pallas/internal/incr"
	"pallas/internal/pathdb"
	"pallas/internal/paths"
	"pallas/internal/rcache"
	"pallas/internal/report"
	"pallas/internal/spec"
)

// IncrementalOptions configures the function-level memo store. The zero
// value turns the memo on. The memo keeps its records in the process's one
// result cache: a server hands it its peer tier (Backing), and AnalyzeBatch
// with a CacheDir hands it the batch's cache. Only an analyzer with neither
// opens a cache of its own, from Dir and MaxBytes. In memory a function
// record is the *FuncPaths extraction produced, shared read-only by every
// analysis that replays it; it is encoded only for disk and peers.
type IncrementalOptions struct {
	// Dir, when non-empty, persists the memo's own cache across processes
	// at this directory (atomic writes; a crash mid-save never leaves a
	// torn entry). Empty keeps it in memory only, scoped to the Analyzer.
	Dir string
	// MaxBytes bounds the memo's own cache — the in-memory LRU tier and the
	// persistent directory alike. <= 0 means rcache.DefaultMaxBytes.
	MaxBytes int64
	// Backing, when non-nil, is the cache the memo keeps its records in
	// (Dir and MaxBytes are then unused).
	Backing incr.Backing
}

// extractFingerprint renders only the configuration fields that determine
// the content of a non-truncated extraction result. Budget fields (Deadline,
// MaxSteps) are absent: they can only truncate, and truncated results are
// never memoized. Preprocessor inputs (Defines, Includes) are absent too:
// function memo keys hash the *parsed* unit, which already reflects every
// macro expansion and include merge. The precision tier IS present (for
// non-fast tiers): pruning changes which paths a function's record holds,
// so tiers must never share memo entries.
func (c Config) extractFingerprint() string {
	return fmt.Sprintf("x1|paths=%d|visits=%d|inline=%d", c.MaxPaths, c.MaxBlockVisits, c.InlineDepth) +
		precisionSuffix(c.Precision)
}

// incrStore returns the memo store, opening it on first use; nil when
// incremental analysis is off or the store failed to open (the analysis then
// runs cold — EnsureIncremental surfaces the error to callers that care).
func (a *Analyzer) incrStore() *incr.Store {
	st, _ := a.incrOpen(nil)
	return st
}

// incrOpen opens the memo store once, over IncrementalOptions.Backing, else
// over fallback (a batch's result cache), else over a cache of its own. A
// store already open keeps its backing.
func (a *Analyzer) incrOpen(fallback incr.Backing) (*incr.Store, error) {
	if a.cfg.Incremental == nil {
		return nil, nil
	}
	a.incrOnce.Do(func() {
		b := a.cfg.Incremental.Backing
		if b == nil {
			b = fallback
		}
		if b == nil {
			c, err := rcache.Open(rcache.Options{Dir: a.cfg.Incremental.Dir, MaxBytes: a.cfg.Incremental.MaxBytes})
			if err != nil {
				a.incrErr = err
				return
			}
			b = incr.Local(c)
		}
		a.incrMemo = incr.Open(incr.Options{Backing: b, Registry: a.reg})
	})
	return a.incrMemo, a.incrErr
}

// EnsureIncremental eagerly opens the memo store so configuration problems
// (an unwritable IncrementalOptions.Dir) surface as errors instead of
// silent cold runs. It returns nil when incremental analysis is not
// configured.
func (a *Analyzer) EnsureIncremental() error {
	_, err := a.incrOpen(nil)
	return err
}

// IncrStats snapshots memo activity. ok is false when incremental analysis
// is off or the store failed to open.
func (a *Analyzer) IncrStats() (incr.Stats, bool) {
	st := a.incrStore()
	if st == nil {
		return incr.Stats{}, false
	}
	return st.Stats(), true
}

// memoRun carries one analysis's incremental state: the unit's dependency
// graph, the memo key and fingerprint computed per analyzed function, and
// the seed of memo hits handed to extraction.
type memoRun struct {
	st     *incr.Store
	g      *incr.Graph
	unit   string
	cfgXFP string // extraction-config fingerprint (function keys)
	cfgUFP string // full analysis-config fingerprint (unit keys)
	keys   map[string]string
	fps    map[string]string
	seeded map[string]*paths.FuncPaths
	// unitKey is set by replayUnit; store reuses it for the verdict write.
	unitKey string
}

func (a *Analyzer) newMemoRun(st *incr.Store, tu *cast.TranslationUnit) *memoRun {
	xfp := a.cfg.extractFingerprint()
	return &memoRun{
		st:     st,
		g:      incr.BuildGraph(tu),
		unit:   tu.File,
		cfgXFP: xfp,
		cfgUFP: xfp + "|checkers=" + strings.Join(a.cfg.Checkers, ","),
		keys:   map[string]string{},
		fps:    map[string]string{},
		seeded: map[string]*paths.FuncPaths{},
	}
}

// replayUnit returns a complete Result when the whole-unit verdict memo
// holds an entry for the unit's current fingerprint — the fast path for
// no-op and formatting-only re-checks. The replayed report is the stored
// bytes of a previous clean run whose inputs were, by construction of the
// key, identical to this one's; its path database is not stored, so
// fillPaths derives it on first read.
func (m *memoRun) replayUnit(tu *cast.TranslationUnit, sp *spec.Spec, merged string,
	fillPaths func() (*pathdb.DB, error)) *Result {
	fp := m.g.UnitFingerprint()
	m.unitKey = incr.UnitKey(m.cfgUFP, m.unit, sp.String(), fp)
	rec := m.st.GetUnit(m.unitKey, m.unit, fp)
	if rec == nil {
		return nil
	}
	rep := &report.Report{}
	if json.Unmarshal(rec.Report, rep) != nil {
		return nil
	}
	return &Result{Report: rep, Spec: sp, Paths: pathdb.Lazy(tu.File, fillPaths), Merged: merged, tu: tu}
}

// derivePaths returns the fill of a replayed verdict's path database: it
// re-runs extraction over the parsed unit and spec with the paths.Config of
// the memoized run, seeded with the function records that run left in the
// backing's local tiers, so a replay whose paths are read costs no more than a
// warm miss. Extraction is deterministic and seeded records replay
// byte-identically, so the database matches a cold run's. The fill
// counts no memo lookup and no feasibility figure, since the verdict it
// belongs to was already counted. It runs under a budget of its own, and
// one that runs out fails the fill instead of truncating paths the
// memoized run did not truncate.
func (a *Analyzer) derivePaths(m *memoRun, tu *cast.TranslationUnit, sp *spec.Spec, tier feas.Tier) func() (*pathdb.DB, error) {
	return func() (*pathdb.DB, error) {
		var db *pathdb.DB
		err := guard.Protect(guard.StageExtract, tu.File, func() error {
			budget := a.newBudget()
			pcfg := a.pathsConfig(budget, tier)
			pcfg.Seed = m.recorded(sp)
			ctx, err := checkers.NewContext(tu, sp, pcfg)
			if err == nil {
				err = budget.Err()
			}
			if err == nil {
				db = buildPathDB(ctx, nil)
			}
			return err
		})
		return db, err
	}
}

// funcKeys calls visit with the memo key and transitive fingerprint of
// every analyzed function the unit defines.
func (m *memoRun) funcKeys(sp *spec.Spec, visit func(fn, key, fp string)) {
	for _, fn := range sp.AnalyzedFuncs() {
		if !m.g.Defined(fn) {
			continue
		}
		fp := m.g.Transitive(fn)
		visit(fn, incr.FuncKey(m.cfgXFP, m.g.Ambient(), fp), fp)
	}
}

// recorded returns the function records the backing's local tiers hold
// for the unit, read without counting (incr.Store.PeekFunc).
func (m *memoRun) recorded(sp *spec.Spec) map[string]*paths.FuncPaths {
	out := map[string]*paths.FuncPaths{}
	m.funcKeys(sp, func(fn, key, fp string) {
		if p := m.st.PeekFunc(key, fn, fp); p != nil {
			out[fn] = p
		}
	})
	return out
}

// seed looks up every analyzed function's memo entry and returns the hits
// for paths.Config.Seed. Misses remember their key so store can memoize the
// fresh extraction afterwards.
func (m *memoRun) seed(sp *spec.Spec) map[string]*paths.FuncPaths {
	m.funcKeys(sp, func(fn, key, fp string) {
		m.keys[fn], m.fps[fn] = key, fp
		if p := m.st.GetFunc(key, m.unit, fn, fp); p != nil {
			m.seeded[fn] = p
		}
	})
	return m.seeded
}

// store memoizes a clean run: every freshly extracted function (the memo
// refuses truncated results itself) and the whole-unit verdict. Callers
// gate on a clean, non-degraded result; memo write failures are absorbed
// inside the store so they can never perturb analysis output. Each stored
// function is first detached from merged, the preprocessed text its names
// slice, so its live record does not keep that text alive; the result
// being built shares the records, whose content Detach leaves unchanged.
func (m *memoRun) store(fps map[string]*paths.FuncPaths, rep *report.Report, merged string) {
	for fn, fp := range fps {
		if m.seeded[fn] != nil || m.keys[fn] == "" {
			continue
		}
		fp.Detach(merged)
		m.st.PutFunc(m.keys[fn], m.unit, fn, m.fps[fn], fp)
	}
	if m.unitKey == "" {
		return
	}
	repB, err := json.Marshal(rep)
	if err != nil {
		return
	}
	m.st.PutUnit(m.unitKey, &incr.UnitRecord{
		Unit:        m.unit,
		Fingerprint: m.g.UnitFingerprint(),
		Report:      repB,
	})
}
