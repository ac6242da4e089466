package rcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func entry(key, unit, report string) *Entry {
	return &Entry{Key: key, Unit: unit, Report: json.RawMessage(report)}
}

// key64 pads a short test key to the 64-char hex shape real keys have.
func key64(seed string) string {
	return (seed + strings.Repeat("0", 64))[:64]
}

func TestMemoryGetPut(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("aa")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(entry(k, "a.c", `{"target":"a.c"}`)); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get(k)
	if !ok || string(e.Report) != `{"target":"a.c"}` {
		t.Fatalf("get = %+v, %v", e, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.MemHits != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c, err := Open(Options{MaxBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 300)
	keys := []string{key64("a1"), key64("b2"), key64("c3"), key64("d4")}
	for _, k := range keys {
		if err := c.Put(entry(k, "u", fmt.Sprintf(`{"p":%q}`, big))); err != nil {
			t.Fatal(err)
		}
	}
	if b := c.Stats().Bytes; b > 1000 {
		t.Fatalf("bytes = %d, want <= 1000", b)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions despite exceeding the byte bound")
	}
	// The oldest entries are gone, the newest survives.
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("LRU tail survived eviction")
	}
	if _, ok := c.Get(keys[len(keys)-1]); !ok {
		t.Fatal("most recent entry was evicted")
	}
	// Touching an entry protects it: with room for ~3 entries, fill with
	// a,b,c, touch a, then add d — the eviction victim must be b, not a.
	c2, _ := Open(Options{MaxBytes: 1500})
	for _, k := range keys[:3] {
		c2.Put(entry(k, "u", fmt.Sprintf(`{"p":%q}`, big)))
	}
	if c2.Stats().Evictions != 0 {
		t.Fatalf("three entries should fit in 1500 bytes: %+v", c2.Stats())
	}
	c2.Get(keys[0]) // promote a to most-recent
	c2.Put(entry(key64("e5"), "u", fmt.Sprintf(`{"p":%q}`, big)))
	if _, ok := c2.Get(keys[0]); !ok {
		t.Fatal("recently used entry was evicted before older ones")
	}
	if _, ok := c2.Get(keys[1]); ok {
		t.Fatal("LRU entry b survived; wrong eviction victim")
	}
}

func TestOversizeEntryStillCached(t *testing.T) {
	c, err := Open(Options{MaxBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("ff")
	if err := c.Put(entry(k, "u", fmt.Sprintf(`{"p":%q}`, strings.Repeat("y", 500)))); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("oversize entry not resident")
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func TestDiskTierPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	k := key64("ab")
	c1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(entry(k, "a.c", `{"target":"a.c","warnings":[]}`)); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same dir serves the entry from disk.
	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c2.Get(k)
	if !ok || string(e.Report) != `{"target":"a.c","warnings":[]}` {
		t.Fatalf("disk tier get = %+v, %v", e, ok)
	}
	s := c2.Stats()
	if s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", s)
	}
	// The disk hit was promoted: a second get is a memory hit.
	if _, ok := c2.Get(k); !ok || c2.Stats().MemHits != 1 {
		t.Fatalf("disk hit not promoted to memory: %+v", c2.Stats())
	}
}

func TestDiskCorruptionIgnoredAndRemoved(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("cd")
	if err := c.Put(entry(k, "a.c", `{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k[:2], k+".json")

	for name, corrupt := range map[string][]byte{
		"truncated":    []byte(`{"key":"`),
		"wrong key":    []byte(`{"key":"` + key64("ee") + `","report":{"x":1}}`),
		"empty report": []byte(`{"key":"` + k + `"}`),
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, _ := Open(Options{Dir: dir})
		if _, ok := fresh.Get(k); ok {
			t.Fatalf("%s: corrupt disk entry served as a hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt file not removed", name)
		}
		// Restore for the next round.
		e := entry(k, "a.c", `{"x":1}`)
		if err := c.storeDisk(e.Key, e.Marshal); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiskChecksumMismatchIsMiss: a persisted entry whose bytes rotted
// inside a JSON string still parses, so only its Sum can catch it. On
// reopen it must read as a miss and its file must be deleted.
func TestDiskChecksumMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("cf")
	e := entry(k, "a.c", `{"target":"a.c","warnings":[]}`)
	e.Sum = ContentSum(e.Report, e.Paths)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k[:2], k+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(b), `"a.c","warnings"`)
	if i < 0 {
		t.Fatalf("persisted report not found in %s", b)
	}
	b[i+1] = 'b' // "a.c" → "b.c": still valid JSON, wrong bytes
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := fresh.Get(k); ok {
		t.Fatalf("entry whose report no longer matches its sum served as a hit: %s", got.Report)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("entry with a checksum mismatch not removed")
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("0f")
	var computes atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]*Entry, callers)
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := c.GetOrCompute(k, func() (*Entry, error) {
				computes.Add(1)
				<-gate // hold every caller in the singleflight window
				return entry(k, "u", `{"n":1}`), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = e, hit
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", got)
	}
	nhit := 0
	for i := range results {
		if string(results[i].Report) != `{"n":1}` {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if hits[i] {
			nhit++
		}
	}
	if nhit != callers-1 {
		t.Fatalf("hits = %d, want %d (all but the leader)", nhit, callers-1)
	}
	s := c.Stats()
	if s.Computes != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 compute / 1 miss", s)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("e0")
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(k, func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure is not cached: the next caller computes again and succeeds.
	e, hit, err := c.GetOrCompute(k, func() (*Entry, error) { return entry(k, "u", `{}`), nil })
	if err != nil || hit || e == nil {
		t.Fatalf("retry after failure = %+v, hit=%v, err=%v", e, hit, err)
	}
}

// TestGetOrComputeFailedLeaderCountsOnce: followers of a failed compute
// count nothing, so however the callers split into leaders and followers,
// misses equal the computes actually run and no hit or share is left over.
func TestGetOrComputeFailedLeaderCountsOnce(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("fa")
	boom := errors.New("boom")
	var computes atomic.Int64
	gate := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.GetOrCompute(k, func() (*Entry, error) {
				computes.Add(1)
				<-gate
				return nil, boom
			})
			if !errors.Is(err, boom) || hit {
				t.Errorf("caller got hit=%v err=%v, want the leader's failure", hit, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	s := c.Stats()
	if n := computes.Load(); s.Misses != n || s.Computes != n || s.Hits != 0 || s.Shared != 0 {
		t.Fatalf("stats = %+v after %d failed computes, want misses = computes = %d and no hits", s, n, n)
	}
}

func TestGetOrComputeRace(t *testing.T) {
	// Distinct keys under heavy concurrency: every key computes exactly once.
	c, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	var wg sync.WaitGroup
	const keys, callersPerKey = 8, 8
	for ki := 0; ki < keys; ki++ {
		k := key64(fmt.Sprintf("%02x", ki))
		for j := 0; j < callersPerKey; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := c.GetOrCompute(k, func() (*Entry, error) {
					computes.Add(1)
					return entry(k, "u", `{"k":true}`), nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if got := computes.Load(); got != keys {
		t.Fatalf("computes = %d, want %d (one per distinct key)", got, keys)
	}
}

// diskBytes sums the entry files under dir.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// TestDiskTierHoldsItsBudget: MaxBytes bounds the persistent tier as well
// as the memory tier. Writing ten budgets' worth of entries leaves at most
// the budget plus one prune trigger's slack (a quarter of it) on disk, and
// the prunes are counted.
func TestDiskTierHoldsItsBudget(t *testing.T) {
	const maxBytes = 64 << 10
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 3<<10)
	var written int64
	for i := 0; written < 10*maxBytes; i++ {
		e := entry(key64(fmt.Sprintf("%04x", i)), "u.c", `{"pad":"`+pad+`"}`)
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
		written += int64(len(e.Report))
	}
	if got := diskBytes(t, dir); got > maxBytes+maxBytes/4 {
		t.Fatalf("disk tier holds %d bytes after %d written, budget %d", got, written, maxBytes)
	}
	if c.Stats().Pruned == 0 {
		t.Fatal("pallas_cache_pruned_total stayed 0")
	}
}
