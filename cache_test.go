package pallas

import (
	"bytes"
	"fmt"
	"testing"
)

// cacheCorpus builds n units each carrying a seeded immutable-overwrite
// warning, so cached replays have non-trivial reports to preserve.
func cacheCorpus(n int) []Unit {
	units := make([]Unit, 0, n)
	for i := 1; i <= n; i++ {
		units = append(units, Unit{
			Name: fmt.Sprintf("c%d.c", i),
			Source: fmt.Sprintf(`
int fast_%[1]d(int mode_%[1]d)
{
	if (mode_%[1]d == 0) {
		mode_%[1]d = %[1]d;
		return 1;
	}
	return 0;
}
`, i),
			Spec: fmt.Sprintf("fastpath fast_%d\nimmutable mode_%d\n", i, i),
		})
	}
	return units
}

func renderReports(t *testing.T, results []UnitResult) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("unit %s failed: %v", r.Unit, r.Err)
		}
		if err := r.Result.Report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestAnalyzeBatchResultCache drives the cold→warm contract end to end: a
// second identical batch over the same cache directory analyzes nothing and
// reproduces every report byte-identically.
func TestAnalyzeBatchResultCache(t *testing.T) {
	dir := t.TempDir()
	units := cacheCorpus(4)
	a := New(Config{})

	cold, coldStats, err := a.AnalyzeBatch(units, BatchOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Cache.Misses != 4 || coldStats.Cache.Hits != 0 || coldStats.Analyzed != 4 {
		t.Fatalf("cold stats = %+v", coldStats)
	}
	for _, r := range cold {
		if r.Cached {
			t.Fatalf("cold unit %s marked cached", r.Unit)
		}
		if len(r.Result.Report.Warnings) == 0 {
			t.Fatalf("unit %s lost its seeded warning", r.Unit)
		}
	}

	// Warm run: a fresh analyzer (same config) over the same directory.
	warm, warmStats, err := New(Config{}).AnalyzeBatch(units, BatchOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Cache.Hits != 4 || warmStats.Cache.Misses != 0 || warmStats.Analyzed != 0 {
		t.Fatalf("warm stats = %+v", warmStats)
	}
	for _, r := range warm {
		if !r.Cached || r.Attempts != 0 {
			t.Fatalf("warm unit %s not replayed from cache: %+v", r.Unit, r)
		}
	}
	if got, want := renderReports(t, warm), renderReports(t, cold); got != want {
		t.Fatalf("cached reports drifted from originals\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// A different analyzer configuration must not see the old entries.
	other, otherStats, err := New(Config{Checkers: []string{"trigger-condition"}}).
		AnalyzeBatch(units, BatchOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if otherStats.Cache.Hits != 0 || otherStats.Analyzed != 4 {
		t.Fatalf("config change did not miss the cache: %+v", otherStats)
	}
	for _, r := range other {
		if len(r.Result.Report.Warnings) != 0 {
			t.Fatalf("trigger-condition-only run still reports %d warnings", len(r.Result.Report.Warnings))
		}
	}

	// Edited source must miss too.
	edited := cacheCorpus(4)
	edited[0].Source += "\n/* edited */\n"
	_, editStats, err := New(Config{}).AnalyzeBatch(edited, BatchOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if editStats.Cache.Hits != 3 || editStats.Cache.Misses != 1 || editStats.Analyzed != 1 {
		t.Fatalf("edit stats = %+v, want 3 hits / 1 miss", editStats)
	}
}

// TestAnalyzeBatchCacheWithJournal verifies the two durability layers
// compose: cache replays are journaled, so a journal-only resume still
// skips them.
func TestAnalyzeBatchCacheWithJournal(t *testing.T) {
	dir := t.TempDir()
	units := cacheCorpus(2)
	a := New(Config{})
	if _, _, err := a.AnalyzeBatch(units, BatchOptions{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}

	jpath := dir + "/j.jsonl"
	_, warmStats, err := a.AnalyzeBatch(units, BatchOptions{CacheDir: dir, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Cache.Hits != 2 {
		t.Fatalf("warm stats = %+v", warmStats)
	}

	// Resume from the journal alone (no cache): everything skips.
	res, resumeStats, err := a.AnalyzeBatch(units, BatchOptions{JournalPath: jpath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumeStats.Skipped != 2 || resumeStats.Analyzed != 0 {
		t.Fatalf("resume stats = %+v", resumeStats)
	}
	for _, r := range res {
		if !r.Skipped || len(r.Result.Report.Warnings) == 0 {
			t.Fatalf("resumed unit %s: %+v", r.Unit, r)
		}
	}
}

// TestAnalyzeBatchGroupCommitJournal runs a batch against a group-committed
// journal and verifies the checkpoint contents match the per-record-fsync
// policy exactly.
func TestAnalyzeBatchGroupCommitJournal(t *testing.T) {
	dir := t.TempDir()
	units := cacheCorpus(6)
	a := New(Config{})
	_, stats, err := a.AnalyzeBatch(units, BatchOptions{
		JournalPath:        dir + "/gc.jsonl",
		JournalGroupCommit: true,
		Workers:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyzed != 6 {
		t.Fatalf("stats = %+v", stats)
	}
	// The journal is complete and resumable.
	res, resumeStats, err := a.AnalyzeBatch(units, BatchOptions{
		JournalPath: dir + "/gc.jsonl", JournalGroupCommit: true, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumeStats.Skipped != 6 {
		t.Fatalf("resume stats = %+v", resumeStats)
	}
	for _, r := range res {
		if !r.Skipped {
			t.Fatalf("unit %s re-analyzed despite group-committed journal", r.Unit)
		}
	}
}
