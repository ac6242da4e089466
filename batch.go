package pallas

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"pallas/internal/backoff"
	"pallas/internal/guard"
	"pallas/internal/incr"
	"pallas/internal/journal"
	"pallas/internal/rcache"
	"pallas/internal/report"
)

// Unit is one item of a batch analysis: a named source text plus its spec
// document (both may also carry inline annotations, as in AnalyzeSource).
type Unit struct {
	// Name identifies the unit in reports, diagnostics and the checkpoint
	// journal (usually a file name).
	Name string
	// Source is the C source text.
	Source string
	// Spec is the semantic specification document (may be empty).
	Spec string
}

// Hash returns the unit's content hash — ContentHash over name, source and
// spec. The checkpoint journal keys resume decisions on it: a journal entry
// only lets a unit be skipped while its content is unchanged, so editing a
// source or spec file automatically forces re-analysis. (Result-cache keys
// additionally cover the analyzer configuration; see Analyzer.CacheKey.)
func (u Unit) Hash() string {
	return ContentHash(u.Name, u.Source, u.Spec)
}

// UnitResult is the outcome of one batch item. Exactly one of the following
// holds: Result is non-nil and Err nil (clean or degraded analysis — check
// Result.Degraded and Diagnostics), or Err is non-nil (the unit failed; a
// partial Result may still be attached when late stages failed).
type UnitResult struct {
	// Unit echoes the unit's Name.
	Unit string
	// Result is the analysis outcome, possibly partial. Nil when the unit
	// failed before producing anything. For a unit skipped on resume it is
	// reconstructed from the journal's stored report.
	Result *Result
	// Err is the fatal error for this unit, nil on success. A panic anywhere
	// in the unit's pipeline surfaces here as a *guard.PanicError instead of
	// crashing the batch.
	Err error
	// Diagnostics aggregates the unit's degradation record (Result.Diagnostics
	// when a result exists, plus a terminal diagnostic when the unit failed).
	Diagnostics []Diagnostic
	// Attempts is how many times the unit was analyzed in this run (0 when it
	// was skipped on resume).
	Attempts int
	// Skipped reports that the unit was not re-analyzed because the journal
	// already holds a terminal outcome for its current content hash.
	Skipped bool
	// Quarantined reports that the unit kept failing transiently (panic,
	// budget blowout, injected fault) through every allowed attempt and was
	// set aside so the batch could complete; its journal entry is terminal,
	// so resumed runs do not re-run it either.
	Quarantined bool
	// Cached reports that the unit's report was replayed from the result
	// cache (BatchOptions.CacheDir) instead of being re-analyzed.
	Cached bool
}

// BatchOptions configures AnalyzeBatch. The zero value reproduces plain
// AnalyzeMany: GOMAXPROCS workers, no retries, no journal.
type BatchOptions struct {
	// Workers bounds concurrent units; <= 0 means GOMAXPROCS. This is the
	// inter-unit bound only: each unit may additionally fan out
	// Config.AnalysisWorkers goroutines for its own functions and checkers,
	// so total parallelism is Workers × max(1, AnalysisWorkers). For
	// many-unit corpora prefer wide Workers with serial units; reserve
	// AnalysisWorkers for a few large units.
	Workers int
	// Retries is the maximum number of re-attempts for a unit that fails
	// transiently (a recovered panic, a budget violation surfacing as an
	// error, an injected failpoint fault). Deterministic malformed-input
	// errors are never retried. 0 disables retry.
	Retries int
	// RetryBackoff is the base delay before the first retry; the window
	// doubles per retry (capped at 30s) and the actual delay is drawn with
	// full jitter — uniform over the whole window — so simultaneously
	// failing units don't retry in lockstep. Default 100ms.
	RetryBackoff time.Duration
	// QuarantineAfter quarantines a unit after this many transient failures
	// even if retries remain, bounding the cost of a poisoned unit. <= 0
	// means Retries+1 (quarantine only after every retry is spent).
	QuarantineAfter int
	// JournalPath, when non-empty, appends every unit outcome to the
	// checkpoint journal at this path (created if missing, recovered if it
	// exists — torn tails truncated, corrupt lines quarantined).
	JournalPath string
	// Resume skips units whose latest journal record is terminal and still
	// matches the unit's content hash, replaying the stored report instead
	// of re-analyzing. Requires JournalPath.
	Resume bool
	// JournalGroupCommit opens the journal with batched fsyncs (see
	// journal.Options.GroupCommit): durability per record is unchanged, but
	// concurrent workers share fsyncs instead of paying one each.
	JournalGroupCommit bool
	// CacheDir, when non-empty, consults and populates the content-addressed
	// result cache rooted at this directory: a unit whose cache key (name,
	// source, spec, analyzer configuration — Analyzer.CacheKey) has a stored
	// entry replays the cached report byte-identically instead of being
	// analyzed. The same directory serves `pallas serve`, so a batch run
	// warms the server and vice versa. With Config.Incremental set, the
	// memo keeps its records in this cache too.
	CacheDir string
	// CacheBytes bounds the cache, its memory tier and its directory alike
	// (<= 0: rcache default). Only meaningful with CacheDir.
	CacheBytes int64
	// Sleep replaces time.Sleep between retry attempts; tests inject a
	// recorder here. Nil means time.Sleep.
	Sleep func(time.Duration)
}

// BatchStats summarizes the durability machinery's activity in one batch
// run; eval harnesses surface these in their summaries.
type BatchStats struct {
	// Analyzed counts units actually analyzed this run (≥1 attempt).
	Analyzed int
	// Skipped counts units resumed from the journal without re-analysis.
	Skipped int
	// Retried counts retry attempts across all units.
	Retried int
	// Recovered counts units that failed transiently and then succeeded on a
	// later attempt.
	Recovered int
	// Quarantined counts units set aside after persistent transient failure.
	Quarantined int
	// Failed counts units with a terminal deterministic failure.
	Failed int
	// Cache snapshots the run's result cache (BatchOptions.CacheDir) at the
	// end of the run: Hits counts units replayed from it, Misses units that
	// had to be analyzed because no entry existed. Memo records the run
	// kept in the cache count in Entries and Bytes, not in Hits or Misses.
	// Zero when no cache is configured.
	Cache rcache.Stats
	// IncrFuncHits / IncrFuncMisses / IncrUnitHits / IncrUnitMisses are the
	// function-level memo's activity during this batch (the delta of
	// Analyzer.IncrStats across the run). All zero when Config.Incremental
	// is off.
	IncrFuncHits   int64
	IncrFuncMisses int64
	IncrUnitHits   int64
	IncrUnitMisses int64
	// FeasPruned / FeasContradictions are the feasibility layer's activity
	// during this batch (the delta of Analyzer.FeasStats across the run).
	// Both stay zero on the fast tier, which never prunes.
	FeasPruned         int64
	FeasContradictions int64
	// JournalRecovered, JournalTornTail and JournalQuarantined echo what
	// opening the journal had to repair (see journal.RecoveryReport).
	JournalRecovered   int
	JournalTornTail    bool
	JournalQuarantined int
}

// AnalyzeMany analyzes units concurrently on a bounded worker pool and
// returns one UnitResult per unit, in input order regardless of completion
// order. Each unit is fault-isolated: its own budget (Config.Deadline etc.
// apply per unit, not per batch), its own panic guard, and its own error
// slot — one hostile unit cannot take down or starve its neighbours.
// workers <= 0 uses GOMAXPROCS. It is AnalyzeBatch with zero options; use
// AnalyzeBatch directly for retries, checkpointing and resume.
func (a *Analyzer) AnalyzeMany(units []Unit, workers int) []UnitResult {
	out, _, _ := a.AnalyzeBatch(units, BatchOptions{Workers: workers})
	return out
}

// AnalyzeBatch analyzes units concurrently with the durability policy in
// opts: transient failures retry with exponential backoff and jitter,
// persistent offenders are quarantined instead of wedging the batch, every
// outcome is checkpointed to an append-only journal, and a resumed run skips
// units the journal already settled. The returned error is non-nil only for
// infrastructure failures (an unopenable journal) — per-unit failures live
// in their UnitResult.
func (a *Analyzer) AnalyzeBatch(units []Unit, opts BatchOptions) ([]UnitResult, BatchStats, error) {
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 100 * time.Millisecond
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	maxAttempts := opts.Retries + 1
	quarantineAfter := opts.QuarantineAfter
	if quarantineAfter <= 0 || quarantineAfter > maxAttempts {
		quarantineAfter = maxAttempts
	}

	var stats BatchStats
	var jr *journal.Journal
	if opts.JournalPath != "" {
		var err error
		jr, err = journal.OpenOptions(opts.JournalPath, journal.Options{
			GroupCommit: opts.JournalGroupCommit,
		})
		if err != nil {
			return nil, stats, err
		}
		defer jr.Close()
		rec := jr.Recovery()
		stats.JournalRecovered = rec.Records
		stats.JournalTornTail = rec.TornTail
		stats.JournalQuarantined = rec.Quarantined
	} else if opts.Resume {
		return nil, stats, errors.New("BatchOptions.Resume requires JournalPath")
	}
	var cache *rcache.Cache
	if opts.CacheDir != "" {
		var err error
		cache, err = rcache.Open(rcache.Options{Dir: opts.CacheDir, MaxBytes: opts.CacheBytes})
		if err != nil {
			return nil, stats, err
		}
	}
	// The memo keeps its records in the batch's cache when there is one.
	// An unopenable memo store is an infrastructure failure like an
	// unopenable journal — surface it here instead of silently running the
	// whole batch cold.
	var memoBacking incr.Backing
	if cache != nil {
		memoBacking = incr.Local(cache)
	}
	if _, err := a.incrOpen(memoBacking); err != nil {
		return nil, stats, err
	}
	incrBefore, _ := a.IncrStats()
	feasBefore := a.FeasStats()
	out := make([]UnitResult, len(units))
	var mu sync.Mutex
	count := func(f func(*BatchStats)) {
		mu.Lock()
		f(&stats)
		mu.Unlock()
	}

	guard.Pool(len(units), opts.Workers, func(i int) error {
		u := units[i]
		out[i].Unit = u.Name
		hash := u.Hash()
		if jr != nil && opts.Resume {
			if rec, ok := jr.Lookup(u.Name); ok && rec.Hash == hash && rec.Status.Terminal() {
				replayRecord(&out[i], rec)
				count(func(s *BatchStats) { s.Skipped++ })
				return nil
			}
		}
		if cache != nil {
			key := a.CacheKey(u)
			if e, ok := cache.Get(key); ok {
				replayCacheEntry(&out[i], e)
				// A cache-replayed outcome is still checkpointed so -resume
				// works against the journal alone.
				journalOutcome(jr, &out[i], u.Name, hash, 0, out[i].Result, nil, false)
				return nil
			}
		}
		count(func(s *BatchStats) { s.Analyzed++ })

		transientFails := 0
		for attempt := 1; ; attempt++ {
			var res *Result
			err := guard.Protect(guard.StageBatch, u.Name, func() error {
				r, aerr := a.AnalyzeSource(u.Name, u.Source, u.Spec)
				res = r
				return aerr
			})
			out[i].Attempts = attempt

			if err == nil {
				out[i].Result = res
				out[i].Diagnostics = res.Diagnostics
				if attempt > 1 {
					count(func(s *BatchStats) { s.Recovered++ })
				}
				if cache != nil {
					// Cache store failures degrade the unit's diagnostics,
					// never the unit: the report was produced either way.
					if cerr := storeCacheEntry(cache, a.CacheKey(u), u.Name, res); cerr != nil {
						out[i].Diagnostics = append(out[i].Diagnostics,
							guard.Diag(guard.StageStore, u.Name, cerr, true))
					}
				}
				journalOutcome(jr, &out[i], u.Name, hash, attempt, res, nil, false)
				return nil
			}

			transient := guard.Transient(err)
			if transient {
				transientFails++
			}
			if transient && attempt < maxAttempts && transientFails < quarantineAfter {
				count(func(s *BatchStats) { s.Retried++ })
				if jr != nil {
					// A retry record is non-terminal but durable, so a crash
					// between attempts preserves the attempt count.
					if jerr := jr.Append(journal.Record{
						Unit: u.Name, Hash: hash, Status: journal.StatusRetry,
						Attempt: attempt, Err: err.Error(),
					}); jerr != nil {
						out[i].Diagnostics = append(out[i].Diagnostics,
							guard.Diag(guard.StageStore, u.Name, jerr, true))
					}
				}
				opts.Sleep(backoff.Delay(opts.RetryBackoff, attempt))
				continue
			}

			// Terminal failure: deterministic errors fail outright, spent
			// transient errors quarantine the unit so the batch (and any
			// resumed run) moves on without it.
			out[i].Err = err
			out[i].Result = res
			if res != nil {
				out[i].Diagnostics = res.Diagnostics
			}
			out[i].Diagnostics = append(out[i].Diagnostics,
				guard.Diag(guard.StageBatch, u.Name, err, res != nil))
			if transient {
				out[i].Quarantined = true
				count(func(s *BatchStats) { s.Quarantined++ })
			} else {
				count(func(s *BatchStats) { s.Failed++ })
			}
			journalOutcome(jr, &out[i], u.Name, hash, attempt, res, err, transient)
			return nil
		}
	})
	if cache != nil {
		stats.Cache = cache.Stats() // this run's own cache: its lookups are the run's
	}
	if incrAfter, ok := a.IncrStats(); ok {
		stats.IncrFuncHits = incrAfter.FuncHits - incrBefore.FuncHits
		stats.IncrFuncMisses = incrAfter.FuncMisses - incrBefore.FuncMisses
		stats.IncrUnitHits = incrAfter.UnitHits - incrBefore.UnitHits
		stats.IncrUnitMisses = incrAfter.UnitMisses - incrBefore.UnitMisses
	}
	feasAfter := a.FeasStats()
	stats.FeasPruned = feasAfter.Pruned - feasBefore.Pruned
	stats.FeasContradictions = feasAfter.Contradictions - feasBefore.Contradictions
	return out, stats, nil
}

// journalOutcome appends a terminal record for a completed unit; journal
// failures degrade the unit's diagnostics rather than failing the unit.
func journalOutcome(jr *journal.Journal, out *UnitResult, name, hash string, attempt int,
	res *Result, err error, quarantined bool) {
	if jr == nil {
		return
	}
	rec := journal.Record{Unit: name, Hash: hash, Attempt: attempt}
	switch {
	case err == nil && res.Degraded():
		rec.Status = journal.StatusDegraded
	case err == nil:
		rec.Status = journal.StatusOK
	case quarantined:
		rec.Status = journal.StatusQuarantined
		rec.Err = err.Error()
	default:
		rec.Status = journal.StatusFailed
		rec.Err = err.Error()
	}
	if res != nil && res.Report != nil {
		rec.Degraded = res.Report.Degraded
		rec.Warnings = len(res.Report.Warnings)
		if b, merr := json.Marshal(res.Report); merr == nil {
			rec.Report = b
		}
	}
	rec.Diagnostics = out.Diagnostics
	if jerr := jr.Append(rec); jerr != nil {
		out.Diagnostics = append(out.Diagnostics,
			guard.Diag(guard.StageStore, name, jerr, true))
	}
}

// storeCacheEntry persists a completed analysis under its cache key. The
// stored report bytes are the single source for replay, so hits are
// byte-identical to the original marshaling.
func storeCacheEntry(cache *rcache.Cache, key, unit string, res *Result) error {
	if res == nil || res.Report == nil {
		return nil
	}
	b, err := json.Marshal(res.Report)
	if err != nil {
		return err
	}
	return cache.Put(&rcache.Entry{
		Key:         key,
		Unit:        unit,
		Report:      b,
		Diagnostics: res.Diagnostics,
		Degraded:    res.Report.Degraded,
		Warnings:    len(res.Report.Warnings),
		Sum:         rcache.ContentSum(b, nil),
	})
}

// replayCacheEntry reconstructs a UnitResult from a cache entry, mirroring
// replayRecord for journal resumes.
func replayCacheEntry(out *UnitResult, e *rcache.Entry) {
	out.Cached = true
	out.Attempts = 0
	out.Diagnostics = e.Diagnostics
	var rep report.Report
	if json.Unmarshal(e.Report, &rep) == nil {
		out.Result = &Result{Report: &rep, Diagnostics: e.Diagnostics}
	}
}

// replayRecord reconstructs a UnitResult from a terminal journal record so a
// resumed run reports skipped units exactly as the original run did.
func replayRecord(out *UnitResult, rec journal.Record) {
	out.Skipped = true
	out.Attempts = 0
	out.Quarantined = rec.Status == journal.StatusQuarantined
	out.Diagnostics = rec.Diagnostics
	if len(rec.Report) > 0 {
		var rep report.Report
		if json.Unmarshal(rec.Report, &rep) == nil {
			out.Result = &Result{Report: &rep, Diagnostics: rec.Diagnostics}
		}
	}
	if rec.Err != "" {
		out.Err = fmt.Errorf("%s (journaled on attempt %d)", rec.Err, rec.Attempt)
	}
}
