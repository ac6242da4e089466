package rcache

// ENOSPC resilience: a full disk prunes the oldest quarter of the
// persistent tier once and retries the write, so capacity exhaustion
// degrades to a smaller cache instead of counting disk faults toward the
// breaker. The diskFull classifier is widened to the injected fault so the
// tests never have to fill a real filesystem.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pallas/internal/failpoint"
)

func touch(path string, mod time.Time) error { return os.Chtimes(path, mod, mod) }
func writeFile(path string, b []byte) error  { return os.WriteFile(path, b, 0o644) }
func exists(path string) bool                { _, err := os.Stat(path); return err == nil }

// widenDiskFull makes injected cache-store faults classify as ENOSPC for
// the duration of the test.
func widenDiskFull(t *testing.T) {
	t.Helper()
	old := diskFull
	diskFull = func(err error) bool { return errors.Is(err, failpoint.ErrInjected) || old(err) }
	t.Cleanup(func() { diskFull = old })
}

func countEntryFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".json") {
			n++
		}
		return nil
	})
	return n
}

func TestDiskFullPrunesOldestAndRetries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the persistent tier, spreading mtimes so "oldest" is well defined.
	for i := 0; i < 8; i++ {
		k := key64(fmt.Sprintf("e%d", i))
		if err := c.Put(entry(k, "u.c", `{"x":1}`)); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
		mod := time.Now().Add(-time.Duration(8-i) * time.Hour)
		if err := touch(c.diskPath(k), mod); err != nil {
			t.Fatal(err)
		}
	}

	widenDiskFull(t)
	// Only the first store of the ff… key hits the full disk; the post-prune
	// retry goes through.
	if err := failpoint.Arm("cache-store=error@1/ff"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	k := key64("ff")
	if err := c.Put(entry(k, "u.c", `{"y":2}`)); err != nil {
		t.Fatalf("put after prune+retry should succeed, got %v", err)
	}
	st := c.Stats()
	if st.DiskFullPrunes != 1 {
		t.Fatalf("DiskFullPrunes = %d, want 1", st.DiskFullPrunes)
	}
	if st.DiskFaults != 0 {
		t.Fatalf("a recovered ENOSPC must not count a disk fault, got %d", st.DiskFaults)
	}
	// 8 seeded − 2 pruned (one quarter) + 1 new = 7.
	if n := countEntryFiles(t, dir); n != 7 {
		t.Fatalf("persistent tier holds %d entries, want 7", n)
	}
	// The retried write is durable: a fresh cache over the same dir serves it.
	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k); !ok {
		t.Fatal("entry written via ENOSPC retry not served from disk")
	}
}

func TestDiskFullWithNothingToPruneIsAFault(t *testing.T) {
	c, err := Open(Options{Dir: t.TempDir(), BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	widenDiskFull(t)
	if err := failpoint.Arm("cache-store=error"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	err = c.Put(entry(key64("aa"), "u.c", `{"x":1}`))
	if !errors.Is(err, ErrPersist) {
		t.Fatalf("put on empty full disk = %v, want ErrPersist", err)
	}
	st := c.Stats()
	if st.DiskFullPrunes != 0 {
		t.Fatalf("DiskFullPrunes = %d, want 0 (nothing to prune)", st.DiskFullPrunes)
	}
	if st.DiskFaults == 0 {
		t.Fatal("unrecoverable ENOSPC must count as a disk fault")
	}
}

func TestPruneOldestRemovesTempGarbage(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key64("aa")
	if err := c.Put(entry(k, "u.c", `{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	tmp := c.diskPath(k) + ".tmp123"
	if err := writeFile(tmp, []byte("torn")); err != nil {
		t.Fatal(err)
	}
	// Only a stale temp file is garbage; a fresh one may be a write in
	// progress (TestPruneKeepsFreshTempFiles).
	if err := touch(tmp, time.Now().Add(-2*staleTemp)); err != nil {
		t.Fatal(err)
	}
	if n := c.PruneOldest(diskFullTarget); n != 2 { // the tmp file plus the single (oldest) entry
		t.Fatalf("PruneOldest removed %d files, want 2", n)
	}
	if _, err := filepath.Glob(tmp); err != nil {
		t.Fatal(err)
	}
	if exists(tmp) {
		t.Fatal("temp garbage survived pruning")
	}
}

// TestPruneKeepsFreshTempFiles: an ENOSPC prune must not delete a temp file
// another writer created a moment ago — that writer's rename would then
// fail and count a disk fault — but it still clears stale temp garbage.
func TestPruneKeepsFreshTempFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put(entry(key64(fmt.Sprintf("e%d", i)), "u.c", `{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	shard := filepath.Dir(c.diskPath(key64("e0")))
	fresh := filepath.Join(shard, key64("e7")+".json.tmp1")
	stale := filepath.Join(shard, key64("e8")+".json.tmp2")
	for _, p := range []string{fresh, stale} {
		if err := writeFile(p, []byte("partial")); err != nil {
			t.Fatal(err)
		}
	}
	if err := touch(stale, time.Now().Add(-24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	widenDiskFull(t)
	if err := failpoint.Arm("cache-store=error@1/ff"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	if err := c.Put(entry(key64("ff"), "u.c", `{"y":2}`)); err != nil {
		t.Fatalf("put after prune+retry should succeed, got %v", err)
	}
	if c.Stats().DiskFullPrunes != 1 {
		t.Fatalf("DiskFullPrunes = %d, want 1", c.Stats().DiskFullPrunes)
	}
	if !exists(fresh) {
		t.Fatal("prune deleted a temp file a concurrent write had just created")
	}
	if exists(stale) {
		t.Fatal("prune left stale temp garbage behind")
	}
}
