// Package rcache is the content-addressed analysis result cache behind
// `pallas serve` and `pallas check -cache-dir`. The paper treats path
// extraction as a one-time cost; rcache generalizes that to the whole
// pipeline: a completed report is stored under the content hash of
// everything that produced it (unit name, source, spec, analyzer
// configuration — see pallas.ContentHash / Analyzer.CacheKey), so an
// identical request is answered byte-identically without re-analysis.
//
// A process keeps one cache: the incremental memo (internal/incr) stores
// its function records and unit verdicts in it too, under keys framed apart
// from these content hashes, so one byte budget, one directory and one peer
// key space cover both. A function record sits in the memory tier as a live
// value (Entry.Live), charged its estimated footprint, and is encoded only
// where it leaves the process (Entry.Wire).
//
// A cache has up to two tiers, each bounded by the same MaxBytes:
//
//   - a memory tier: an LRU bounded by total entry bytes, always present;
//   - a persistent tier: one JSON file per entry under a directory,
//     written with the same atomic discipline as pathdb.Save
//     (temp file + fsync + rename), shared between the CLI and the server
//     so a warm `pallas check` re-run and a warm server answer from the
//     same store. Corrupt or mismatched files are ignored and removed, never
//     trusted.
//
// GetOrCompute collapses concurrent identical requests (singleflight): when
// ten clients POST the same unit at once, one analysis runs and ten
// responses are served from it.
package rcache

import (
	"container/list"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/metrics"
	"pallas/internal/overload"
)

// ErrPersist wraps every persistent-tier fault. Callers that see it on Put
// or GetOrCompute still hold a fully valid memory-tier entry: the analysis
// succeeded, only its durability did not. Match with errors.Is to report the
// fault without failing the request.
var ErrPersist = errors.New("rcache: persistent tier fault")

// Entry is one cached analysis outcome. Report carries the exact marshaled
// report bytes, so cache hits replay byte-identical output.
type Entry struct {
	// Key is the content-address (hex SHA-256) the entry is stored under.
	Key string `json:"key"`
	// Unit echoes the unit name the entry was produced from (debugging aid;
	// the key is the identity).
	Unit string `json:"unit"`
	// Report is the marshaled report.Report JSON.
	Report json.RawMessage `json:"report"`
	// Paths is the marshaled path database of the producing analysis,
	// kept out of Report so it is never re-encoded inside another JSON
	// document. Populated by cluster workers (whose completions must replay
	// pathdb bytes as well as report bytes); empty for entries stored by
	// plain serve/batch runs, which only replay reports, and for every
	// incremental memo record (internal/incr).
	Paths json.RawMessage `json:"paths,omitempty"`
	// Diagnostics preserves the degradation record of the producing run.
	Diagnostics []guard.Diagnostic `json:"diagnostics,omitempty"`
	// Degraded mirrors Report.Degraded for consumers that do not unmarshal.
	Degraded bool `json:"degraded,omitempty"`
	// Warnings counts the warnings in Report.
	Warnings int `json:"warnings"`
	// Sum is the end-to-end content checksum over Report and Paths bytes
	// (see ContentSum), fixed at analysis time. It travels with the entry
	// through the cache tiers and the cluster wire so a consumer can verify
	// the bytes it received are the bytes the analysis produced — catching
	// corruption that per-hop CRCs cannot (bad RAM on a worker, a corrupt
	// cache file re-served, a frame mangled after its CRC was computed).
	// Empty on entries written before the field existed; consumers treat
	// empty as "unverifiable", not as a failure. Empty on an entry that
	// holds a Live value: Wire computes it where the bytes are made.
	Sum string `json:"sum,omitempty"`
	// Live, when set, is the value the entry stands for, held in place of
	// Report bytes: the incremental memo keeps each function record as its
	// decoded paths, so the memory tier costs no codec on either side of a
	// hit. Report and Sum stay empty; Wire encodes the value wherever the
	// entry leaves the process (the persistent tier, the peer wire,
	// /v1/report). The value is shared by every reader and must never be
	// modified after Put.
	Live Value `json:"-"`
}

// Value is an in-process value an Entry can hold in place of Report bytes.
type Value interface {
	// Encode returns the Report bytes the value stands for. The same value
	// always encodes to the same bytes.
	Encode() ([]byte, error)
	// Size estimates the value's memory footprint in bytes; the memory
	// tier charges it against MaxBytes. It is called under the tier's lock
	// on every insert and eviction, so it must return a stored figure, not
	// walk the value.
	Size() int64
}

// Wire returns the entry as it leaves the process: e itself when it holds
// bytes, else a copy whose Report is its Live value's encoding and whose Sum
// covers that encoding. Every persistent write and every copy sent to a
// peer or a client goes through it. e is not modified.
func (e *Entry) Wire() (*Entry, error) {
	if e.Live == nil {
		return e, nil
	}
	b, err := e.Live.Encode()
	if err != nil {
		return nil, fmt.Errorf("rcache: encode %s: %w", e.Key, err)
	}
	w := *e
	w.Live, w.Report, w.Sum = nil, b, ContentSum(b, e.Paths)
	return &w, nil
}

// Marshal returns the bytes the entry is persisted and sent to a peer as:
// its Wire form, JSON-encoded.
func (e *Entry) Marshal() ([]byte, error) {
	w, err := e.Wire()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("rcache: encode %s: %w", e.Key, err)
	}
	return b, nil
}

// ContentSum computes the end-to-end checksum carried in Entry.Sum: CRC32C
// over the length-framed concatenation of report and path bytes. Length
// framing keeps (report, paths) pairs unambiguous — bytes cannot migrate
// between the two fields without changing the sum.
func ContentSum(report, paths []byte) string {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(report)))
	h.Write(n[:])
	h.Write(report)
	binary.BigEndian.PutUint64(n[:], uint64(len(paths)))
	h.Write(n[:])
	h.Write(paths)
	return fmt.Sprintf("%08x", h.Sum32())
}

// size approximates the entry's memory footprint for the LRU byte bound:
// its bytes, or its Live value's estimate.
func (e *Entry) size() int64 {
	n := int64(len(e.Key) + len(e.Unit) + len(e.Report) + len(e.Paths) + 64)
	for _, d := range e.Diagnostics {
		n += int64(len(d.Unit) + len(d.Err) + len(d.Stage) + 32)
	}
	if e.Live != nil {
		n += e.Live.Size()
	}
	return n
}

// Options configures Open.
type Options struct {
	// MaxBytes bounds the cache: the memory tier by total entry bytes, the
	// persistent tier by total file bytes (see PruneOldest). <= 0 means
	// DefaultMaxBytes. A single entry larger than the bound is still cached
	// (and immediately becomes the only resident entry).
	MaxBytes int64
	// Dir, when non-empty, enables the persistent tier rooted at this
	// directory (created if missing). Entries live at Dir/<k0k1>/<key>.json.
	// A directory that already outgrows MaxBytes is trimmed on Open.
	Dir string
	// BreakerThreshold trips the persistent tier's circuit breaker after
	// this many consecutive disk faults: the cache falls back to
	// memory-only mode instead of touching the failing disk on every
	// request, then probes half-open after BreakerCooldown. 0 means
	// overload.DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped persistent tier stays
	// memory-only before one probe operation is allowed through. <= 0 means
	// overload.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Registry holds the pallas_cache_* counters, which are also what Stats
	// reads; nil means a registry of the cache's own.
	Registry *metrics.Registry
}

// DefaultMaxBytes is the default bound of each tier (64 MiB).
const DefaultMaxBytes = 64 << 20

// Stats is a point-in-time snapshot of cache activity: the registry
// counters plus the memory tier's size and the breaker's position.
type Stats struct {
	// Hits counts lookups answered from either tier (or a singleflight
	// leader's fresh result shared with followers).
	Hits int64
	// Misses counts lookups that found nothing and (for GetOrCompute) ran
	// the compute function.
	Misses int64
	// MemHits and DiskHits split Hits by serving tier.
	MemHits  int64
	DiskHits int64
	// Shared counts GetOrCompute callers that piggybacked on a concurrent
	// identical computation (singleflight followers); included in Hits.
	Shared int64
	// Computes counts executions of GetOrCompute's compute function — the
	// number of real analyses the cache could not avoid.
	Computes int64
	// Evictions counts memory-tier LRU evictions.
	Evictions int64
	// Entries and Bytes describe the current memory tier. Bytes is what
	// the tier is charged against MaxBytes, Live values at their estimate.
	Entries int
	Bytes   int64
	// DiskFaults counts persistent-tier I/O failures (reads and writes;
	// missing files are not faults).
	DiskFaults int64
	// DiskFullPrunes counts ENOSPC recoveries: a write hit a full disk, the
	// oldest persistent entries were pruned, and the write was retried. A
	// full disk degrades to a smaller cache instead of tripping the breaker.
	DiskFullPrunes int64
	// Pruned counts persistent-tier files removed to hold MaxBytes (stale
	// temp files of crashed writes included).
	Pruned int64
	// BreakerSkips counts persistent-tier operations skipped because the
	// circuit breaker was open (memory-only mode).
	BreakerSkips int64
	// BreakerTrips counts how many times the persistent tier's breaker has
	// opened; BreakerState is its current position ("closed", "open",
	// "half-open", or "" when there is no persistent tier / no breaker).
	BreakerTrips int64
	BreakerState string
}

// call is one in-flight singleflight computation.
type call struct {
	wg    sync.WaitGroup
	entry *Entry
	err   error
}

// Cache is a two-tier content-addressed result cache. All methods are safe
// for concurrent use.
type Cache struct {
	dir      string
	maxBytes int64
	breaker  *overload.Breaker // nil: no persistent tier or breaker disabled

	mu     sync.Mutex
	lru    *list.List // front = most recent; values are *Entry
	byKey  map[string]*list.Element
	bytes  int64
	flight map[string]*call
	// Disk bytes written since the last byte-bound prune, and whether one
	// is running (c.mu guards both).
	written int64
	pruning bool

	mHits, mMisses, mMemHits, mDiskHits, mShared, mComputes *metrics.Counter
	mEvictions, mDiskFaults, mDiskFullPrunes, mBreakerSkips *metrics.Counter
	mPruned                                                 *metrics.Counter
}

// Open returns a cache with the given options, creating the persistent
// directory when one is configured.
func Open(opts Options) (*Cache, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rcache: open %s: %w", opts.Dir, err)
		}
	}
	var breaker *overload.Breaker
	if opts.Dir != "" && opts.BreakerThreshold >= 0 {
		breaker = overload.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Cache{
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		breaker:  breaker,
		lru:      list.New(),
		byKey:    map[string]*list.Element{},
		flight:   map[string]*call{},

		mHits:           reg.Counter(metrics.MetricCacheHits, "result-cache hits"),
		mMisses:         reg.Counter(metrics.MetricCacheMisses, "result-cache misses"),
		mMemHits:        reg.Counter(metrics.MetricCacheMemHits, "result-cache hits served by the memory tier"),
		mDiskHits:       reg.Counter(metrics.MetricCacheDiskHits, "result-cache hits served by the persistent tier"),
		mShared:         reg.Counter(metrics.MetricCacheShared, "result-cache hits shared from a concurrent identical compute"),
		mComputes:       reg.Counter(metrics.MetricCacheComputes, "result-cache compute executions"),
		mEvictions:      reg.Counter(metrics.MetricCacheEvictions, "result-cache memory-tier LRU evictions"),
		mDiskFaults:     reg.Counter(metrics.MetricCacheDiskFaults, "result-cache persistent-tier I/O failures"),
		mDiskFullPrunes: reg.Counter(metrics.MetricCacheDiskFullPrunes, "result-cache full-disk recoveries: oldest entries pruned, write retried"),
		mBreakerSkips:   reg.Counter(metrics.MetricCacheBreakerSkips, "result-cache persistent-tier operations skipped while its breaker was open"),
		mPruned:         reg.Counter(metrics.MetricCachePruned, "result-cache persistent-tier files pruned to hold the byte bound"),
	}
	// A directory may already exceed the bound (a previous run with a
	// larger budget); trim it before serving.
	c.mPruned.Add(int64(c.PruneOldest(c.diskBound)))
	return c, nil
}

// TierHealth reports the persistent tier's condition for health endpoints:
// "memory-only" when no directory is configured, otherwise the breaker's
// state ("closed" = healthy; "open" = tripped to memory-only mode;
// "half-open" = probing recovery).
func (c *Cache) TierHealth() string {
	if c.dir == "" {
		return "memory-only"
	}
	if c.breaker == nil {
		return overload.BreakerClosed.String()
	}
	return c.breaker.State().String()
}

// diskFault records one persistent-tier failure against the breaker.
func (c *Cache) diskFault(err error) {
	c.mDiskFaults.Inc()
	if c.breaker != nil {
		c.breaker.Failure()
	}
}

// diskOK records one successful persistent-tier operation.
func (c *Cache) diskOK() {
	if c.breaker != nil {
		c.breaker.Success()
	}
}

// diskNeutral records an operation that proved nothing (a clean ENOENT
// miss): a half-open probe slot is released for the next operation, but no
// success or failure is recorded.
func (c *Cache) diskNeutral() {
	if c.breaker != nil {
		c.breaker.Inconclusive()
	}
}

// diskAllowed consults the breaker before touching the persistent tier; a
// false return means the tier is tripped and the operation is skipped.
func (c *Cache) diskAllowed() bool {
	if c.breaker == nil || c.breaker.Allow() {
		return true
	}
	c.mBreakerSkips.Inc()
	return false
}

// Get returns the entry for key, consulting the memory tier then the
// persistent tier (a disk hit is promoted into memory).
func (c *Cache) Get(key string) (*Entry, bool) {
	e, tier := c.lookup(key)
	if e == nil {
		c.mMisses.Inc()
		return nil, false
	}
	c.mHits.Inc()
	tier.Inc()
	return e, true
}

// Peek is Get without the lookup counters, for reads that re-derive
// content an already-counted lookup served.
func (c *Cache) Peek(key string) (*Entry, bool) {
	e, _ := c.lookup(key)
	return e, e != nil
}

// lookup is Get without the lookup counters: it returns the entry and the
// tier counter (MemHits or DiskHits) its hit belongs to, or nil.
func (c *Cache) lookup(key string) (*Entry, *metrics.Counter) {
	c.mu.Lock()
	if e := c.memLocked(key); e != nil {
		c.mu.Unlock()
		return e, c.mMemHits
	}
	c.mu.Unlock()

	if e := c.loadDisk(key); e != nil {
		c.mu.Lock()
		c.insertLocked(e)
		c.mu.Unlock()
		return e, c.mDiskHits
	}
	return nil, nil
}

// Put stores an entry in the memory tier and, when configured, the
// persistent tier. A persistence failure does not evict the memory entry;
// it is returned for the caller to surface as a diagnostic.
func (c *Cache) Put(e *Entry) error { return c.PutEncoded(e, e.Marshal) }

// PutEncoded is Put with the persistent tier's bytes made by encode, which
// runs only when the entry is written to disk. A caller that also sends
// the entry elsewhere passes an encode that remembers its result, so a
// Live value is encoded once for both.
func (c *Cache) PutEncoded(e *Entry, encode func() ([]byte, error)) error {
	if e.Key == "" {
		return fmt.Errorf("rcache: entry without key")
	}
	c.mu.Lock()
	c.insertLocked(e)
	c.mu.Unlock()
	return c.storeDisk(e.Key, encode)
}

// GetOrCompute returns the entry for key, computing and caching it with fn
// on a miss. Concurrent calls for the same key run fn once: the first
// caller computes, the rest block and share the outcome (hit=true for
// them). fn errors are not cached — every new caller after a failure
// retries.
//
// Each caller counts once its outcome is known: a hit counts Hits and its
// tier; the leader counts Misses and Computes; a follower counts Shared and
// Hits when its leader succeeds, and nothing when it fails — so Misses
// equals the real analyses run.
func (c *Cache) GetOrCompute(key string, fn func() (*Entry, error)) (*Entry, bool, error) {
	if e, tier := c.lookup(key); e != nil {
		c.mHits.Inc()
		tier.Inc()
		return e, true, nil
	}
	c.mu.Lock()
	if cl, ok := c.flight[key]; ok {
		// Follower: someone is already computing this key.
		c.mu.Unlock()
		cl.wg.Wait()
		if cl.err != nil {
			return nil, false, cl.err
		}
		c.mShared.Inc()
		c.mHits.Inc()
		return cl.entry, true, nil
	}
	// A leader may have finished between the lookup and the lock: its entry
	// is in memory now, and computing it again would double the analysis.
	if e := c.memLocked(key); e != nil {
		c.mu.Unlock()
		c.mHits.Inc()
		c.mMemHits.Inc()
		return e, true, nil
	}
	// Leader: compute, publish, wake the followers.
	cl := &call{}
	cl.wg.Add(1)
	c.flight[key] = cl
	c.mu.Unlock()
	c.mMisses.Inc()
	c.mComputes.Inc()

	var perr error
	cl.entry, cl.err = fn()
	if cl.err == nil && cl.entry != nil {
		if cl.entry.Key == "" {
			cl.entry.Key = key
		}
		// The entry is served from memory regardless; a persistence failure
		// is reported to the leader only (followers still get the entry).
		perr = c.Put(cl.entry)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	cl.wg.Done()
	if cl.err != nil {
		return cl.entry, false, cl.err
	}
	return cl.entry, false, perr
}

// memLocked returns key's memory-tier entry, or nil, and refreshes its LRU
// position. c.mu must be held.
func (c *Cache) memLocked(key string) *Entry {
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Entry)
}

// insertLocked adds or refreshes an entry in the memory tier and evicts
// from the LRU tail until the byte bound holds. c.mu must be held.
func (c *Cache) insertLocked(e *Entry) {
	if el, ok := c.byKey[e.Key]; ok {
		c.bytes += e.size() - el.Value.(*Entry).size()
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.byKey[e.Key] = c.lru.PushFront(e)
		c.bytes += e.size()
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		tail := c.lru.Back()
		old := tail.Value.(*Entry)
		c.lru.Remove(tail)
		delete(c.byKey, old.Key)
		c.bytes -= old.size()
		c.mEvictions.Inc()
	}
}

// Stats reads the cache's registry counters (activity since the registry
// was created — since Open, for a registry of the cache's own) and the
// current tier state.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:           c.mHits.Value(),
		Misses:         c.mMisses.Value(),
		MemHits:        c.mMemHits.Value(),
		DiskHits:       c.mDiskHits.Value(),
		Shared:         c.mShared.Value(),
		Computes:       c.mComputes.Value(),
		Evictions:      c.mEvictions.Value(),
		DiskFaults:     c.mDiskFaults.Value(),
		DiskFullPrunes: c.mDiskFullPrunes.Value(),
		BreakerSkips:   c.mBreakerSkips.Value(),
		Pruned:         c.mPruned.Value(),
	}
	c.mu.Lock()
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	c.mu.Unlock()
	if c.breaker != nil {
		s.BreakerTrips = c.breaker.Trips()
		s.BreakerState = c.breaker.State().String()
	}
	return s
}

// diskPath shards entries by the first two key characters so one directory
// never accumulates the whole corpus.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// loadDisk reads and validates a persistent entry; any damage (unreadable,
// bad JSON, key mismatch — e.g. a file renamed by hand — or Report and
// Paths bytes that no longer match a set Sum) returns nil and removes the
// file so it is not re-parsed on every miss. While the tier's
// breaker is open the read is skipped entirely (memory-only mode). A
// validated entry is the only thing ever returned, so a faulting or
// corrupted disk can cause misses but never a corrupt result.
func (c *Cache) loadDisk(key string) *Entry {
	if c.dir == "" || len(key) < 3 || !c.diskAllowed() {
		return nil
	}
	if err := failpoint.Hit(failpoint.CacheLoad, key); err != nil {
		c.diskFault(err)
		return nil
	}
	b, err := os.ReadFile(c.diskPath(key))
	if err != nil {
		// A clean miss (ENOENT) is neutral: it proves the lookup worked but
		// says nothing about reads or writes of real data, so it neither
		// counts as a fault nor resets a failure streak — otherwise a disk
		// whose writes fail while lookups still answer would never trip.
		if os.IsNotExist(err) {
			c.diskNeutral()
		} else {
			c.diskFault(err)
		}
		return nil
	}
	var e Entry
	if json.Unmarshal(b, &e) != nil || e.Key != key || len(e.Report) == 0 ||
		(e.Sum != "" && e.Sum != ContentSum(e.Report, e.Paths)) {
		// Corrupt or mismatched data: the disk itself worked, the bytes are
		// damaged — delete them so they are not re-parsed on every miss.
		// Entries stored without a Sum can only be checked for shape.
		os.Remove(c.diskPath(key))
		c.diskOK()
		return nil
	}
	c.diskOK()
	return &e
}

// storeDisk atomically persists an entry: temp file in the final directory,
// fsync, rename — the same crash discipline as pathdb.Save, so a kill
// mid-store leaves either the old state or the complete new file, never a
// torn entry. While the tier's breaker is open the write is skipped (the
// entry stays memory-resident); every fault is wrapped in ErrPersist and
// recorded against the breaker.
func (c *Cache) storeDisk(key string, encode func() ([]byte, error)) error {
	if c.dir == "" || len(key) < 3 || !c.diskAllowed() {
		return nil
	}
	b, err := encode()
	if err == nil {
		err = c.storeDiskRaw(key, b)
	}
	if err != nil && diskFull(err) {
		// ENOSPC is capacity, not damage: prune the oldest quarter of the
		// persistent tier's bytes once to make room and retry, so a full
		// disk degrades to a smaller cache instead of tripping the breaker
		// into memory-only mode permanently. Only an ENOSPC on the retry (or
		// a prune that freed nothing) counts as a fault.
		if c.PruneOldest(diskFullTarget) > 0 {
			c.mDiskFullPrunes.Inc()
			err = c.storeDiskRaw(key, b)
		}
	}
	if err != nil {
		c.diskFault(err)
		return fmt.Errorf("%w: %w", ErrPersist, err)
	}
	c.diskOK()
	c.noteWrite(int64(len(b)))
	return nil
}

// noteWrite runs a byte-bound prune once a quarter of MaxBytes landed on
// disk since the last one. The trigger is approximate by design: the bound
// is a budget, not a hard limit, and scanning the directory on every put
// would dominate small writes.
func (c *Cache) noteWrite(n int64) {
	c.mu.Lock()
	c.written += n
	due := c.written > c.maxBytes/4 && !c.pruning
	if due {
		c.pruning = true
		c.written = 0
	}
	c.mu.Unlock()
	if due {
		c.mPruned.Add(int64(c.PruneOldest(c.diskBound)))
		c.mu.Lock()
		c.pruning = false
		c.mu.Unlock()
	}
}

// diskBound is the byte-bound prune's target: whatever the persistent tier
// holds, the oldest entries go until it fits MaxBytes.
func (c *Cache) diskBound(int64) int64 { return c.maxBytes }

// diskFull reports a write failure caused by a full filesystem. A var so
// tests can widen it to injected faults without filling a real disk.
var diskFull = func(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// diskFullTarget is ENOSPC recovery's prune target: a quarter of the
// persistent tier's bytes go, enough that one ENOSPC buys headroom for many
// writes, little enough that most of the warm set survives.
func diskFullTarget(total int64) int64 { return total * 3 / 4 }

// staleTemp is how old a leftover temp file must be before PruneOldest
// removes it. A younger one may belong to a storeDiskRaw in progress, whose
// rename would fail if the file vanished under it.
const staleTemp = 10 * time.Minute

// PruneOldest bounds the persistent tier: it removes entry files, oldest
// mtime first, until the remaining entry bytes fit target(total), where
// total is what the tier held before pruning. Temp files older than
// staleTemp (torn writes of a crashed process) are removed too. It returns
// how many files it deleted; a tier without a directory prunes nothing.
// Removing an entry at any moment is safe — entries are content-addressed
// and written atomically, so a pruned entry is just a future miss.
func (c *Cache) PruneOldest(target func(total int64) int64) int {
	if c.dir == "" {
		return 0
	}
	type file struct {
		path string
		size int64
		mod  time.Time
	}
	var entries []file
	var total int64
	removed := 0
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		isTemp := strings.Contains(d.Name(), ".tmp")
		if !isTemp && !strings.HasSuffix(d.Name(), ".json") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if isTemp {
			if time.Since(info.ModTime()) > staleTemp && os.Remove(path) == nil {
				removed++
			}
			return nil
		}
		entries = append(entries, file{path: path, size: info.Size(), mod: info.ModTime()})
		total += info.Size()
		return nil
	})
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].mod.Before(entries[j].mod) })
	left, limit := total, target(total)
	for _, f := range entries {
		if left <= limit {
			break
		}
		if os.Remove(f.path) == nil {
			left -= f.size
			removed++
		}
	}
	return removed
}

// storeDiskRaw writes one entry file holding b, the entry's Marshal.
func (c *Cache) storeDiskRaw(key string, b []byte) error {
	if err := failpoint.Hit(failpoint.CacheStore, key); err != nil {
		return err
	}
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("rcache: store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("rcache: store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("rcache: store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("rcache: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("rcache: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rcache: store: %w", err)
	}
	return nil
}
