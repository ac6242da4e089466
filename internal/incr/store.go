package incr

import (
	"encoding/json"
	"sync"

	"pallas/internal/metrics"
	"pallas/internal/paths"
	"pallas/internal/rcache"
)

// Memo record format versions. Records with any other version are treated
// as misses (never as corruption), so each format can evolve without a
// migration. The layouts of FuncRecord and UnitRecord are pinned by
// TestIncrRecordFormatPinned.
const (
	FuncRecordVersion = 1
	UnitRecordVersion = 3
)

// DefaultMaxBytes bounds the memo store when Options.MaxBytes is unset.
const DefaultMaxBytes = 64 << 20

// FuncRecord is the persisted form of one memoized function extraction.
type FuncRecord struct {
	// Version is FuncRecordVersion at write time.
	Version int `json:"version"`
	// Fn is the function name.
	Fn string `json:"fn"`
	// Fingerprint is the transitive fingerprint the record was stored under;
	// lookups re-verify it even though the key already covers it.
	Fingerprint string `json:"fingerprint"`
	// Paths is the extraction result. Never truncated: budget-truncated
	// extractions are timing-dependent and are not memoized.
	Paths *paths.FuncPaths `json:"paths"`
}

// UnitRecord is the persisted form of one memoized whole-unit verdict: the
// exact report bytes a clean (non-degraded) analysis of the unit produced,
// as one JSON document in the cache entry's Report. The path database is
// not stored: extraction is deterministic, so a replay re-derives it from
// the unit on first read (pallas' memoRun.replayUnit).
type UnitRecord struct {
	// Version is UnitRecordVersion at write time.
	Version int `json:"version"`
	// Unit is the unit name the verdict belongs to.
	Unit string `json:"unit"`
	// Fingerprint is the unit fingerprint the record was stored under.
	Fingerprint string `json:"fingerprint"`
	// Report is the marshaled report.Report.
	Report json.RawMessage `json:"report"`
}

// SharedTier is the cluster-wide cache tier the memo can ride on (the peer
// tier, internal/rcache/peer — named abstractly here to avoid an import
// cycle through the analyzer). Register attaches the memo's own rcache as
// the local backing store of the named space; Get and Put then consult the
// local tiers first and the fleet's replicas second, so a function memoized
// on any worker warms every worker. The tier's contract matches the memo's:
// remote failures degrade to local, never error an analysis.
type SharedTier interface {
	Register(space string, local *rcache.Cache)
	Get(space, key string) (*rcache.Entry, bool)
	Put(space string, e *rcache.Entry) error
}

// sharedSpace is the key space the memo occupies on the shared tier
// (peer.SpaceIncr; keys are fingerprint hashes, disjoint from unit-cache
// content hashes by construction).
const sharedSpace = "incr"

// Options configures Open.
type Options struct {
	// Dir, when non-empty, persists the memo across processes at this
	// directory (created if missing). Writes are atomic (temp + fsync +
	// rename, via rcache), so a crash mid-save never leaves a torn entry.
	Dir string
	// MaxBytes bounds the store: it caps the in-memory tier's LRU (rcache)
	// and the persistent tier's total size (oldest entries pruned once the
	// directory outgrows it). <= 0 means DefaultMaxBytes.
	MaxBytes int64
	// Registry holds the pallas_incr_* instruments, which are also what
	// Stats reads; nil means a registry of the store's own.
	Registry *metrics.Registry
	// Shared, when non-nil, routes memo reads and writes through the
	// cluster's shared cache tier: the store's own tiers stay the local
	// layer (registered as the tier's "incr" space), with remote replicas
	// behind them. Function-memo keys exclude the unit name, so one edit
	// re-checked on any worker warms the whole fleet.
	Shared SharedTier
}

// Stats is a point-in-time snapshot of memo activity.
type Stats struct {
	// FuncHits / FuncMisses count per-function lookups by outcome.
	FuncHits   int64
	FuncMisses int64
	// FuncInvalidations counts lookups whose fingerprint differed from the
	// previous lookup of the same (unit, function) slot — memo entries
	// invalidated by an edit reaching the function through the DAG.
	FuncInvalidations int64
	// UnitHits / UnitMisses count whole-unit verdict lookups by outcome.
	UnitHits   int64
	UnitMisses int64
	// Pruned counts persistent-tier files removed to hold MaxBytes (stale
	// temp files of crashed writes included).
	Pruned int64
}

// Store is the function-level memo store. All methods are safe for
// concurrent use; the underlying tiers are an rcache (byte-bounded memory
// LRU + atomic persistent writes, circuit breaker on disk faults) plus a
// size trigger that runs rcache's prune loop to bound the persistent
// directory.
type Store struct {
	cache    *rcache.Cache
	shared   SharedTier // nil: local tiers only
	dir      string
	maxBytes int64

	mu                sync.Mutex
	lastFP            map[string]string // unit\x00fn → last lookup fingerprint
	writtenSincePrune int64
	pruning           bool

	mFuncHits, mFuncMisses, mFuncInval *metrics.Counter
	mUnitHits, mUnitMisses, mPruned    *metrics.Counter
	mRatio                             *metrics.Gauge
}

// Open opens (or creates) a memo store.
func Open(o Options) (*Store, error) {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	c, err := rcache.Open(rcache.Options{Dir: o.Dir, MaxBytes: o.MaxBytes})
	if err != nil {
		return nil, err
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Store{
		cache:    c,
		shared:   o.Shared,
		dir:      o.Dir,
		maxBytes: o.MaxBytes,
		lastFP:   map[string]string{},

		mFuncHits:   reg.Counter(metrics.MetricIncrFuncHits, "function memo lookups replayed from the store"),
		mFuncMisses: reg.Counter(metrics.MetricIncrFuncMisses, "function memo lookups that required extraction"),
		mFuncInval:  reg.Counter(metrics.MetricIncrFuncInvalidations, "function memo entries invalidated by a fingerprint change"),
		mUnitHits:   reg.Counter(metrics.MetricIncrUnitHits, "whole-unit verdict replays"),
		mUnitMisses: reg.Counter(metrics.MetricIncrUnitMisses, "whole-unit verdict lookups that missed"),
		mPruned:     reg.Counter(metrics.MetricIncrPruned, "persistent memo files pruned to hold the byte bound"),
		mRatio:      reg.Gauge(metrics.MetricIncrReuseRatio, "memo reuse ratio x1000 (hits / lookups)"),
	}
	if s.shared != nil {
		s.shared.Register(sharedSpace, c)
	}
	// A pre-existing directory may already exceed the bound (a previous run
	// with a larger budget); trim it before serving.
	s.mPruned.Add(int64(c.PruneOldest(s.diskBound)))
	return s, nil
}

// get reads one memo entry: local tiers first, then — when the store rides
// the shared tier — the key's remote replicas.
func (s *Store) get(key string) (*rcache.Entry, bool) {
	if s.shared != nil {
		return s.shared.Get(sharedSpace, key)
	}
	return s.cache.Get(key)
}

// put writes one memo entry locally and, when the store rides the shared
// tier, replicates it to the key's owners. Failures are absorbed either
// way — a memo store must never fail an analysis.
func (s *Store) put(e *rcache.Entry) {
	if s.shared != nil {
		_ = s.shared.Put(sharedSpace, e)
		return
	}
	_ = s.cache.Put(e)
}

// GetFunc returns the memoized extraction stored under key, or nil on a
// miss. unit and fn identify the lookup slot for invalidation accounting;
// fingerprint is re-verified against the record.
func (s *Store) GetFunc(key, unit, fn, fingerprint string) *paths.FuncPaths {
	var fp *paths.FuncPaths
	if e, ok := s.get(key); ok {
		fp = decodeFunc(e, fn, fingerprint)
	}
	s.trackFunc(unit, fn, fingerprint, fp != nil)
	return fp
}

// PeekFunc is GetFunc without a lookup: it reads only the store's local
// tiers and counts nothing, for re-deriving what an already-counted
// verdict replay stands for.
func (s *Store) PeekFunc(key, fn, fingerprint string) *paths.FuncPaths {
	if e, ok := s.cache.Peek(key); ok {
		return decodeFunc(e, fn, fingerprint)
	}
	return nil
}

// decodeFunc returns a function record entry's extraction, or nil when the
// record is malformed, of another layout or slot, or truncated.
func decodeFunc(e *rcache.Entry, fn, fingerprint string) *paths.FuncPaths {
	var rec FuncRecord
	if json.Unmarshal(e.Report, &rec) != nil {
		return nil
	}
	if rec.Version != FuncRecordVersion || rec.Fn != fn || rec.Fingerprint != fingerprint {
		return nil
	}
	if rec.Paths == nil || rec.Paths.Truncated {
		return nil
	}
	return rec.Paths
}

// PutFunc memoizes one extraction result. Truncated results are refused:
// truncation depends on the run's budget and deadline, so replaying one
// would not be byte-identical to a cold (untruncated) run. Store failures
// are absorbed — a memo store must never fail an analysis — and surface
// only through the rcache disk-fault counters and breaker.
func (s *Store) PutFunc(key, unit, fn, fingerprint string, fp *paths.FuncPaths) {
	if fp == nil || fp.Truncated {
		return
	}
	b, err := json.Marshal(FuncRecord{Version: FuncRecordVersion, Fn: fn, Fingerprint: fingerprint, Paths: fp})
	if err != nil {
		return
	}
	s.put(&rcache.Entry{
		Key:    key,
		Unit:   "incr-func:" + unit + "/" + fn,
		Report: b,
		Sum:    rcache.ContentSum(b, nil),
	})
	s.noteWrite(int64(len(b)))
}

// GetUnit returns the memoized whole-unit verdict stored under key, or nil.
func (s *Store) GetUnit(key, unit, fingerprint string) *UnitRecord {
	rec := s.loadUnit(key, unit, fingerprint)
	if rec != nil {
		s.mUnitHits.Inc()
	} else {
		s.mUnitMisses.Inc()
	}
	s.updateRatio()
	return rec
}

func (s *Store) loadUnit(key, unit, fingerprint string) *UnitRecord {
	e, ok := s.get(key)
	if !ok {
		return nil
	}
	var rec UnitRecord
	if json.Unmarshal(e.Report, &rec) != nil {
		return nil
	}
	if rec.Version != UnitRecordVersion || rec.Unit != unit || rec.Fingerprint != fingerprint {
		return nil
	}
	if len(rec.Report) == 0 {
		return nil
	}
	return &rec
}

// PutUnit memoizes a whole-unit verdict; rec is left unmodified. Like
// PutFunc, failures are absorbed.
func (s *Store) PutUnit(key string, rec *UnitRecord) {
	if rec == nil || len(rec.Report) == 0 {
		return
	}
	hdr := *rec
	hdr.Version = UnitRecordVersion
	b, err := json.Marshal(&hdr)
	if err != nil {
		return
	}
	s.put(&rcache.Entry{
		Key:    key,
		Unit:   "incr-unit:" + rec.Unit,
		Report: b,
		Sum:    rcache.ContentSum(b, nil),
	})
	s.noteWrite(int64(len(b)))
}

// Stats reads the store's registry counters: memo activity since the
// registry was created (since Open, for a registry of the store's own).
func (s *Store) Stats() Stats {
	return Stats{
		FuncHits:          s.mFuncHits.Value(),
		FuncMisses:        s.mFuncMisses.Value(),
		FuncInvalidations: s.mFuncInval.Value(),
		UnitHits:          s.mUnitHits.Value(),
		UnitMisses:        s.mUnitMisses.Value(),
		Pruned:            s.mPruned.Value(),
	}
}

// trackFunc records a function lookup outcome and detects invalidations: a
// lookup whose fingerprint differs from the previous lookup of the same
// (unit, function) slot means an edit reached the function through the DAG.
func (s *Store) trackFunc(unit, fn, fingerprint string, hit bool) {
	slot := unit + "\x00" + fn
	s.mu.Lock()
	prev, seen := s.lastFP[slot]
	s.lastFP[slot] = fingerprint
	s.mu.Unlock()
	if seen && prev != fingerprint {
		s.mFuncInval.Inc()
	}
	if hit {
		s.mFuncHits.Inc()
	} else {
		s.mFuncMisses.Inc()
	}
	s.updateRatio()
}

func (s *Store) updateRatio() {
	hits := s.mFuncHits.Value() + s.mUnitHits.Value()
	total := hits + s.mFuncMisses.Value() + s.mUnitMisses.Value()
	if total > 0 {
		s.mRatio.Set(hits * 1000 / total)
	}
}

// noteWrite schedules a persistent-tier prune once enough new bytes landed
// since the last one. The trigger is approximate by design: the bound is a
// budget, not a hard limit, and scanning the directory on every put would
// dominate small writes.
func (s *Store) noteWrite(n int64) {
	if s.dir == "" {
		return
	}
	s.mu.Lock()
	s.writtenSincePrune += n
	due := s.writtenSincePrune > s.maxBytes/4 && !s.pruning
	if due {
		s.pruning = true
		s.writtenSincePrune = 0
	}
	s.mu.Unlock()
	if due {
		s.mPruned.Add(int64(s.cache.PruneOldest(s.diskBound)))
		s.mu.Lock()
		s.pruning = false
		s.mu.Unlock()
	}
}

// diskBound is the memo's prune target: whatever the persistent tier
// holds, the oldest entries go until it fits MaxBytes.
func (s *Store) diskBound(int64) int64 { return s.maxBytes }
