package pallas

import (
	"strings"
	"testing"
)

// TestContentHashFormatPinned pins the on-disk hash format. Persisted
// journals and result caches key on these values: if this test breaks, every
// existing journal stops resuming and every cache goes cold. Do not update
// the golden values without a migration story.
func TestContentHashFormatPinned(t *testing.T) {
	got := ContentHash("a.c", "int x;", "fastpath f\n")
	const want = "a11154a5031d583495531b3d78d98ae2a183b17e526790a02bead8b863518bc5"
	if got != want {
		// Recompute by hand to give the next engineer the real value to audit.
		t.Fatalf("ContentHash(a.c, int x;, fastpath f\\n) = %s, want %s", got, want)
	}
}

// TestUnitHashMatchesContentHash pins the journal resume key to the
// canonical hash: Unit.Hash must remain ContentHash(name, source, spec) so
// journals written before the cache subsystem existed keep resuming.
func TestUnitHashMatchesContentHash(t *testing.T) {
	u := Unit{Name: "a.c", Source: "int x;", Spec: "fastpath f\n"}
	if u.Hash() != ContentHash(u.Name, u.Source, u.Spec) {
		t.Fatalf("Unit.Hash diverged from ContentHash: %s != %s",
			u.Hash(), ContentHash(u.Name, u.Source, u.Spec))
	}
}

// TestContentHashFraming verifies the length-framing: moving a byte across a
// part boundary must change the hash (no concatenation ambiguity).
func TestContentHashFraming(t *testing.T) {
	if ContentHash("ab", "c") == ContentHash("a", "bc") {
		t.Fatal("part boundaries are not framed")
	}
	if ContentHash("a", "") == ContentHash("", "a") {
		t.Fatal("empty parts are not framed")
	}
	if ContentHash("a") == ContentHash("a", "") {
		t.Fatal("part count is not significant")
	}
}

// TestCacheKeyCoversConfig verifies that every report-affecting Config field
// changes the cache key, and that report-neutral reorderings do not.
func TestCacheKeyCoversConfig(t *testing.T) {
	u := Unit{Name: "a.c", Source: "int f(void) { return 0; }", Spec: "fastpath f\n"}
	base := New(Config{}).CacheKey(u)

	variants := map[string]Config{
		"checkers":  {Checkers: []string{"path-state"}},
		"defines":   {Defines: map[string]string{"CONFIG_X": "1"}},
		"includes":  {Includes: map[string]string{"x.h": "int y;"}},
		"deadline":  {Deadline: 1},
		"paths":     {MaxPaths: 7},
		"visits":    {MaxBlockVisits: 9},
		"inline":    {InlineDepth: -1},
		"macros":    {MaxMacroExpansions: 11},
		"steps":     {MaxSteps: 13},
		"keep":      {KeepGoing: true},
		"precision": {Precision: "balanced"},
	}
	for name, cfg := range variants {
		if got := New(cfg).CacheKey(u); got == base {
			t.Errorf("config field %q does not change the cache key", name)
		}
	}

	// InlineDepth is an on/off switch: every positive depth keys like the
	// default, every negative one like -1.
	for _, d := range []int{1, 2, 5} {
		if New(Config{InlineDepth: d}).CacheKey(u) != base {
			t.Errorf("InlineDepth %d does not share the default key", d)
		}
	}
	if New(Config{InlineDepth: -7}).CacheKey(u) != New(Config{InlineDepth: -1}).CacheKey(u) {
		t.Error("negative InlineDepths do not share one key")
	}

	// Include-file content (not just the name) is covered.
	k1 := New(Config{Includes: map[string]string{"x.h": "int y;"}}).CacheKey(u)
	k2 := New(Config{Includes: map[string]string{"x.h": "int z;"}}).CacheKey(u)
	if k1 == k2 {
		t.Error("include content does not change the cache key")
	}

	// Map iteration order must not leak into the key.
	a := New(Config{Defines: map[string]string{"A": "1", "B": "2", "C": "3"}})
	for i := 0; i < 16; i++ {
		b := New(Config{Defines: map[string]string{"C": "3", "B": "2", "A": "1"}})
		if a.CacheKey(u) != b.CacheKey(u) {
			t.Fatal("cache key depends on map iteration order")
		}
	}

	// Unit content is covered too.
	if New(Config{}).CacheKey(Unit{Name: "a.c", Source: "int g;", Spec: u.Spec}) == base {
		t.Error("source does not change the cache key")
	}
	if New(Config{}).CacheKey(Unit{Name: "a.c", Source: u.Source, Spec: "fastpath g\n"}) == base {
		t.Error("spec does not change the cache key")
	}
}

// TestPrecisionFingerprintTiering pins the tier/cache-key contract: the
// fast tier (spelled "" or "fast") keeps the pre-feasibility fingerprint so
// existing caches and memo stores stay warm, while balanced and strict key
// distinctly — tiers never share entries.
func TestPrecisionFingerprintTiering(t *testing.T) {
	u := Unit{Name: "a.c", Source: "int f(void) { return 0; }", Spec: "fastpath f\n"}
	base := New(Config{}).CacheKey(u)
	if got := New(Config{Precision: "fast"}).CacheKey(u); got != base {
		t.Error("explicit fast must share the historical cache key")
	}
	bal := New(Config{Precision: "balanced"}).CacheKey(u)
	strict := New(Config{Precision: "strict"}).CacheKey(u)
	if bal == base || strict == base || bal == strict {
		t.Errorf("tiers must key distinctly: base=%s balanced=%s strict=%s", base, bal, strict)
	}
	// Same contract for the extraction fingerprint behind incr memo keys.
	xBase := Config{}.extractFingerprint()
	if got := (Config{Precision: "fast"}).extractFingerprint(); got != xBase {
		t.Error("fast must keep the historical extract fingerprint")
	}
	xBal := (Config{Precision: "balanced"}).extractFingerprint()
	xStrict := (Config{Precision: "strict"}).extractFingerprint()
	if xBal == xBase || xStrict == xBase || xBal == xStrict {
		t.Errorf("extract fingerprints must tier: %q %q %q", xBase, xBal, xStrict)
	}
	if xBase != "x1|paths=0|visits=0|inline=0" {
		t.Errorf("fast extract fingerprint changed: %q", xBase)
	}
}

// TestCacheKeyIsHex sanity-checks the key shape callers embed in URLs and
// file names.
func TestCacheKeyIsHex(t *testing.T) {
	key := New(Config{}).CacheKey(Unit{Name: "a.c"})
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		t.Fatalf("cache key %q is not 64 lowercase hex chars", key)
	}
}
