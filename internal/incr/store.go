package incr

import (
	"encoding/json"
	"strings"
	"sync"
	"unsafe"

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

// FuncRecord is one memoized function extraction. In the process's memory
// tier it is the entry's live value (rcache.Entry.Live), holding the
// extraction's *paths.FuncPaths itself, shared read-only by every analysis
// that replays it; its JSON encoding is the persisted and wire form.
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

	// size is the live record's footprint estimate, fixed when PutFunc
	// builds it.
	size int64
}

// Encode returns the record's pinned JSON form (rcache.Value).
func (r *FuncRecord) Encode() ([]byte, error) { return json.Marshal(r) }

// Size is the live record's footprint estimate (rcache.Value): the 56-byte
// struct, its strings and paths.FuncPaths.Size of its paths, computed once
// when PutFunc built the record.
func (r *FuncRecord) Size() int64 { return r.size }

// valid reports whether the record is a replayable extraction of fn under
// fingerprint: of this layout, of this slot, and not truncated.
func (r *FuncRecord) valid(fn, fingerprint string) bool {
	return r.Version == FuncRecordVersion && r.Fn == fn && r.Fingerprint == fingerprint &&
		r.Paths != nil && !r.Paths.Truncated
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

// Backing is the cache a store keeps its records in: the process's one
// result cache (see Local), or the cluster's peer tier over it
// (internal/rcache/peer, named abstractly here to avoid an import cycle
// through the analyzer), whose Get also consults the key's remote replicas
// and whose Put replicates to them, so a function memoized on any worker
// warms every worker. Memo keys are framed apart from result-cache content
// hashes (FuncKey, UnitKey), so the records share the cache's budget,
// directory and key space without colliding. Neither read counts a
// result-cache lookup: memo lookups count on pallas_incr_* only. Failures
// degrade to a miss, never error an analysis.
type Backing interface {
	// Get reads an entry, local tiers first.
	Get(key string) (*rcache.Entry, bool)
	// Peek reads only the local tiers.
	Peek(key string) (*rcache.Entry, bool)
	// Put stores an entry; a persistence fault costs durability only.
	Put(e *rcache.Entry) error
}

// Local is the Backing of a cache with no peers: reads are Peeks.
func Local(c *rcache.Cache) Backing { return local{c} }

type local struct{ *rcache.Cache }

func (l local) Get(key string) (*rcache.Entry, bool) { return l.Peek(key) }

// Options configures Open.
type Options struct {
	// Backing holds the records (required).
	Backing Backing
	// Registry holds the pallas_incr_* instruments, which are also what
	// Stats reads; nil means a registry of the store's own.
	Registry *metrics.Registry
}

// Stats is a point-in-time snapshot of memo activity.
type Stats struct {
	// FuncHits / FuncMisses count per-function lookups by outcome.
	FuncHits   int64
	FuncMisses int64
	// FuncInvalidations counts lookups whose fingerprint differed from the
	// previous lookup of the same (unit, function) slot — memo entries
	// invalidated by an edit reaching the function through the DAG. The
	// store remembers a bounded number of slots; a slot it has dropped
	// counts no invalidation on its next lookup.
	FuncInvalidations int64
	// UnitHits / UnitMisses count whole-unit verdict lookups by outcome.
	UnitHits   int64
	UnitMisses int64
}

// maxSlots bounds Store.lastFP: a long-running server sees ever new unit
// names, and each (unit, function) slot it looks up would otherwise stay
// forever.
const maxSlots = 1 << 16

// Store is the function-level memo store. All methods are safe for
// concurrent use; the records live in the Backing it was opened on.
type Store struct {
	b Backing

	mu sync.Mutex
	// lastFP maps unit\x00fn to the slot's last lookup fingerprint. At
	// maxSlots slots it is cleared, and a cleared slot counts no
	// invalidation on its next lookup.
	lastFP map[string]string

	mFuncHits, mFuncMisses, mFuncInval *metrics.Counter
	mUnitHits, mUnitMisses             *metrics.Counter
	mRatio                             *metrics.Gauge
}

// Open opens a memo store over its backing.
func Open(o Options) *Store {
	reg := o.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Store{
		b:      o.Backing,
		lastFP: map[string]string{},

		mFuncHits:   reg.Counter(metrics.MetricIncrFuncHits, "function memo lookups replayed from the store"),
		mFuncMisses: reg.Counter(metrics.MetricIncrFuncMisses, "function memo lookups that required extraction"),
		mFuncInval:  reg.Counter(metrics.MetricIncrFuncInvalidations, "function memo entries invalidated by a fingerprint change"),
		mUnitHits:   reg.Counter(metrics.MetricIncrUnitHits, "whole-unit verdict replays"),
		mUnitMisses: reg.Counter(metrics.MetricIncrUnitMisses, "whole-unit verdict lookups that missed"),
		mRatio:      reg.Gauge(metrics.MetricIncrReuseRatio, "memo reuse ratio x1000 (hits / lookups)"),
	}
}

// GetFunc returns the memoized extraction stored under key, or nil on a
// miss. unit and fn identify the lookup slot for invalidation accounting;
// fingerprint is re-verified against the record. The result is shared with
// every other reader of the record and must not be modified.
func (s *Store) GetFunc(key, unit, fn, fingerprint string) *paths.FuncPaths {
	var fp *paths.FuncPaths
	if e, ok := s.b.Get(key); ok {
		fp = recordPaths(e, fn, fingerprint)
	}
	s.trackFunc(unit, fn, fingerprint, fp != nil)
	return fp
}

// PeekFunc is GetFunc without a lookup: it reads only the backing's local
// tiers and counts nothing, for re-deriving what an already-counted
// verdict replay stands for.
func (s *Store) PeekFunc(key, fn, fingerprint string) *paths.FuncPaths {
	if e, ok := s.b.Peek(key); ok {
		return recordPaths(e, fn, fingerprint)
	}
	return nil
}

// recordPaths returns a function record entry's extraction, or nil when the
// record is malformed, of another layout or slot, or truncated. A record
// this process stored is the entry's live value; one loaded from disk or a
// peer is decoded from its bytes.
func recordPaths(e *rcache.Entry, fn, fingerprint string) *paths.FuncPaths {
	rec, live := e.Live.(*FuncRecord)
	if !live {
		rec = &FuncRecord{}
		if json.Unmarshal(e.Report, rec) != nil {
			return nil
		}
	}
	if !rec.valid(fn, fingerprint) {
		return nil
	}
	return rec.Paths
}

// PutFunc memoizes one extraction result as a live record: fp itself is
// kept, not an encoding of it, so fp must not be modified afterwards. Nor
// may fp hold a slice of the unit's source text (paths.FuncPaths.Detach):
// the record would keep that whole text alive, uncharged. Truncated
// results are refused: truncation depends on the run's budget and
// deadline, so replaying one would not be byte-identical to a cold
// (untruncated) run. Store failures are absorbed — a memo store must never
// fail an analysis — and surface only through the backing cache's
// disk-fault counters and breaker.
func (s *Store) PutFunc(key, unit, fn, fingerprint string, fp *paths.FuncPaths) {
	if fp == nil || fp.Truncated {
		return
	}
	rec := &FuncRecord{Version: FuncRecordVersion, Fn: strings.Clone(fn), Fingerprint: strings.Clone(fingerprint), Paths: fp}
	rec.size = int64(len(rec.Fn)+len(rec.Fingerprint)) + int64(unsafe.Sizeof(*rec)) + rec.Paths.Size()
	_ = s.b.Put(&rcache.Entry{Key: key, Unit: "incr-func:" + unit + "/" + fn, Live: rec})
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
	e, ok := s.b.Get(key)
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
	_ = s.b.Put(&rcache.Entry{
		Key:    key,
		Unit:   "incr-unit:" + rec.Unit,
		Report: b,
		Sum:    rcache.ContentSum(b, nil),
	})
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
	}
}

// trackFunc records a function lookup outcome and detects invalidations: a
// lookup whose fingerprint differs from the previous lookup of the same
// (unit, function) slot means an edit reached the function through the DAG.
func (s *Store) trackFunc(unit, fn, fingerprint string, hit bool) {
	slot := unit + "\x00" + fn
	s.mu.Lock()
	prev, seen := s.lastFP[slot]
	if !seen && len(s.lastFP) >= maxSlots {
		clear(s.lastFP)
	}
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
