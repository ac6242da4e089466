package incr

// Store contract: records held in the backing cache under its byte bound in
// both tiers, atomic persistent writes (a torn or garbage entry is a miss,
// never an error), truncated extractions refused, invalidations detected by
// fingerprint change. The end-to-end SIGKILL-mid-save crash test lives in
// cmd/pallas.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pallas/internal/metrics"
	"pallas/internal/paths"
	"pallas/internal/rcache"
)

// openStore opens a store over a fresh cache at dir (memory-only when
// empty) bounded by maxBytes (0: the default), and returns both.
func openStore(t *testing.T, dir string, maxBytes int64) (*Store, *rcache.Cache) {
	t.Helper()
	c, err := rcache.Open(rcache.Options{Dir: dir, MaxBytes: maxBytes})
	if err != nil {
		t.Fatalf("rcache.Open: %v", err)
	}
	return Open(Options{Backing: Local(c), Registry: metrics.NewRegistry()}), c
}

func funcPaths(fn string, n int) *paths.FuncPaths {
	fp := &paths.FuncPaths{Fn: fn, Signature: fn + "(a)"}
	for i := 0; i < n; i++ {
		fp.Paths = append(fp.Paths, &paths.ExecPath{
			Fn: fn, Signature: fn + "(a)", Index: i, Blocks: []int{0, i + 1},
			Out: &paths.Output{Expr: "a", Sym: "a", Line: 3 + i},
		})
	}
	return fp
}

func TestStoreFuncRoundTrip(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), 0)
	want := funcPaths("fast", 2)
	s.PutFunc("key-aaa1", "u.c", "fast", "fp1", want)

	got := s.GetFunc("key-aaa1", "u.c", "fast", "fp1")
	if got == nil {
		t.Fatal("stored entry missed")
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("round trip drifted:\n got %s\nwant %s", gb, wb)
	}
	if s.GetFunc("key-other", "u.c", "fast", "fp1") != nil {
		t.Fatal("unknown key hit")
	}
	st := s.Stats()
	if st.FuncHits != 1 || st.FuncMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestStoreLookupsCountOnlyOnIncr: memo lookups count on pallas_incr_*
// only, so the backing cache's hit and miss counters keep counting result
// lookups alone.
func TestStoreLookupsCountOnlyOnIncr(t *testing.T) {
	s, c := openStore(t, t.TempDir(), 0)
	s.PutFunc("key-aaa1", "u.c", "fast", "fp1", funcPaths("fast", 1))
	s.GetFunc("key-aaa1", "u.c", "fast", "fp1")
	s.GetUnit("key-unit", "u.c", "ufp")
	s.PeekFunc("key-aaa1", "fast", "fp1")
	if cs := c.Stats(); cs.Hits != 0 || cs.Misses != 0 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v, want no lookups counted and one entry", cs)
	}
	if st := s.Stats(); st.FuncHits != 1 || st.UnitMisses != 1 {
		t.Fatalf("memo stats = %+v, want 1 function hit / 1 unit miss", st)
	}
}

// TestStoreRefusesTruncated: budget-truncated extractions are
// timing-dependent, so the store must refuse them on write and on read.
func TestStoreRefusesTruncated(t *testing.T) {
	s, _ := openStore(t, "", 0)
	fp := funcPaths("fast", 1)
	fp.Truncated = true
	s.PutFunc("key-aaa1", "u.c", "fast", "fp1", fp)
	if s.GetFunc("key-aaa1", "u.c", "fast", "fp1") != nil {
		t.Fatal("truncated extraction was memoized")
	}
	s.PutFunc("key-aaa2", "u.c", "fast", "fp1", nil)
	if s.GetFunc("key-aaa2", "u.c", "fast", "fp1") != nil {
		t.Fatal("nil extraction was memoized")
	}
}

// TestStoreInvalidationAccounting: a lookup under a new fingerprint for a
// slot seen before counts as an invalidation — the DAG carried an edit to
// this function.
func TestStoreInvalidationAccounting(t *testing.T) {
	s, _ := openStore(t, "", 0)
	s.PutFunc("key-aaa1", "u.c", "fast", "fp1", funcPaths("fast", 1))
	s.GetFunc("key-aaa1", "u.c", "fast", "fp1") // hit, first sight of the slot
	s.GetFunc("key-aaa2", "u.c", "fast", "fp2") // miss, fingerprint changed
	s.GetFunc("key-aaa2", "u.c", "fast", "fp2") // miss, fingerprint stable
	s.GetFunc("key-aaa9", "u.c", "slow", "fp1") // other slot, first sight

	st := s.Stats()
	if st.FuncInvalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (stats %+v)", st.FuncInvalidations, st)
	}
	if st.FuncHits != 1 || st.FuncMisses != 3 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses", st)
	}
}

func TestStoreUnitRoundTrip(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), 0)
	rec := &UnitRecord{
		Unit:        "u.c",
		Fingerprint: "ufp1",
		Report:      json.RawMessage(`{"unit":"u.c"}`),
	}
	key := UnitKey("cfg", "u.c", "spec", "ufp1")
	s.PutUnit(key, rec)
	if rec.Version != 0 {
		t.Fatalf("PutUnit wrote into the caller's record: version %d", rec.Version)
	}

	got := s.GetUnit(key, "u.c", "ufp1")
	if got == nil {
		t.Fatal("stored verdict missed")
	}
	if string(got.Report) != `{"unit":"u.c"}` {
		t.Fatalf("verdict bytes drifted: %+v", got)
	}
	if s.GetUnit(key, "u.c", "ufp2") != nil {
		t.Fatal("stale fingerprint hit")
	}
	st := s.Stats()
	if st.UnitHits != 1 || st.UnitMisses != 1 {
		t.Fatalf("stats = %+v, want 1 unit hit / 1 unit miss", st)
	}
}

// wantFunc is the pinned encoding of the function record PutFunc("key-func",
// "u.c", "fast", "fp1", funcPaths("fast", 1)) stores; its sum is b452d7a8.
const wantFunc = `{"version":1,"fn":"fast","fingerprint":"fp1","paths":{"Fn":"fast","Signature":"fast(a)","Paths":[{"Fn":"fast","Signature":"fast(a)","Index":0,"Blocks":[0,1],"Conds":null,"States":null,"Calls":null,"Out":{"Expr":"a","Sym":"a","Line":3,"Void":false}}],"Truncated":false}}`

// TestIncrRecordFormatPinned pins both memo record layouts byte for byte.
// A function record is held live in the memory tier and encoded as one
// JSON document in the entry's Report wherever it leaves the process
// (rcache.Entry.Wire); the pin reads that encoded form. A unit record
// (version 3) is one JSON document in Report too: the verdict
// header and report, with no path database anywhere in the entry. Older
// unit records — version 1 nested the path database in the document,
// version 2 carried it in the entry's Paths — must read as misses.
func TestIncrRecordFormatPinned(t *testing.T) {
	s, c := openStore(t, "", 0)
	raw := func(key string) *rcache.Entry {
		t.Helper()
		e, ok := c.Peek(key)
		if !ok {
			t.Fatalf("%s: no entry stored", key)
		}
		w, err := e.Wire()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return w
	}

	s.PutFunc("key-func", "u.c", "fast", "fp1", funcPaths("fast", 1))
	e := raw("key-func")
	if string(e.Report) != wantFunc || len(e.Paths) != 0 || e.Sum != "b452d7a8" || e.Unit != "incr-func:u.c/fast" {
		t.Fatalf("function record drifted:\n report %s\n paths %q sum %s unit %s", e.Report, e.Paths, e.Sum, e.Unit)
	}

	const (
		report = `{"unit":"u.c","warnings":[]}`
		pathdb = `{"target":"u.c","entries":{}}`
	)
	s.PutUnit("key-unit", &UnitRecord{Unit: "u.c", Fingerprint: "ufp1", Report: json.RawMessage(report)})
	e = raw("key-unit")
	const wantUnit = `{"version":3,"unit":"u.c","fingerprint":"ufp1","report":` + report + `}`
	if string(e.Report) != wantUnit || len(e.Paths) != 0 || e.Sum != "8a472303" || e.Unit != "incr-unit:u.c" {
		t.Fatalf("unit record drifted:\n report %s\n paths %q\n sum %s unit %s", e.Report, e.Paths, e.Sum, e.Unit)
	}
	if e.Sum != rcache.ContentSum([]byte(wantUnit), nil) {
		t.Fatal("unit record sum does not cover the record")
	}

	v1 := []byte(`{"version":1,"unit":"u.c","fingerprint":"ufp1","report":` + report + `,"pathdb":` + pathdb + `}`)
	c.Put(&rcache.Entry{Key: "key-v1", Unit: "incr-unit:u.c", Report: v1, Sum: rcache.ContentSum(v1, nil)})
	if s.GetUnit("key-v1", "u.c", "ufp1") != nil {
		t.Fatal("version-1 unit record (nested path database) replayed")
	}
	// The version alone decides: a v2 record — header in Report, path
	// database out of band in Paths — is a miss although its header
	// decodes into the v3 layout.
	v2 := []byte(`{"version":2,"unit":"u.c","fingerprint":"ufp1","report":` + report + `}`)
	c.Put(&rcache.Entry{Key: "key-v2", Unit: "incr-unit:u.c", Report: v2, Paths: []byte(pathdb), Sum: rcache.ContentSum(v2, []byte(pathdb))})
	if s.GetUnit("key-v2", "u.c", "ufp1") != nil {
		t.Fatal("version-2 unit record replayed")
	}
	if got := s.GetUnit("key-unit", "u.c", "ufp1"); got == nil || string(got.Report) != report {
		t.Fatalf("v3 unit record did not replay its bytes: %+v", got)
	}
}

// unitRecord builds a unit verdict whose report is a valid JSON document
// of about n bytes.
func unitRecord(unit string, n int) *UnitRecord {
	return &UnitRecord{
		Unit:        unit,
		Fingerprint: "ufp",
		Report:      json.RawMessage(`{"unit":"` + unit + `","pad":"` + strings.Repeat("p", n) + `"}`),
	}
}

// TestStoreUnitReopenReplays: a unit verdict written to the persistent
// tier replays the same report bytes through a second Open of the
// directory.
func TestStoreUnitReopenReplays(t *testing.T) {
	dir := t.TempDir()
	rec := unitRecord("u.c", 4<<10)
	s1, _ := openStore(t, dir, 0)
	s1.PutUnit("key-unit", rec)

	s2, _ := openStore(t, dir, 0)
	got := s2.GetUnit("key-unit", "u.c", "ufp")
	if got == nil {
		t.Fatal("persisted unit verdict missed after reopen")
	}
	if !bytes.Equal(got.Report, rec.Report) {
		t.Fatalf("unit verdict bytes drifted across reopen: %d report bytes", len(got.Report))
	}
}

// TestStoreUnitLargeEntryPrunesDisk: the backing cache's prune trigger
// counts the whole unit record. Two verdicts each past MaxBytes/4 must each
// trigger a prune, and the second one finds the directory over budget.
func TestStoreUnitLargeEntryPrunesDisk(t *testing.T) {
	const maxBytes = 64 << 10
	s, c := openStore(t, t.TempDir(), maxBytes)
	s.PutUnit("key-u1", unitRecord("a.c", 40<<10))
	s.PutUnit("key-u2", unitRecord("b.c", 40<<10))
	if c.Stats().Pruned == 0 {
		t.Fatal("writing 80KiB of unit verdicts into a 64KiB store pruned nothing")
	}
}

// TestStoreUnitMemoryBounded: the memory tier's byte bound counts the whole
// unit record, so large unit verdicts evict each other instead of piling up.
func TestStoreUnitMemoryBounded(t *testing.T) {
	const maxBytes = 64 << 10
	s, c := openStore(t, "", maxBytes)
	for i := 0; i < 10; i++ {
		s.PutUnit(fmt.Sprintf("key-u%d", i), unitRecord(fmt.Sprintf("u%d.c", i), 20<<10))
	}
	cs := c.Stats()
	if cs.Bytes > maxBytes || cs.Evictions == 0 {
		t.Fatalf("memory tier holds %d bytes with %d evictions, budget %d", cs.Bytes, cs.Evictions, maxBytes)
	}
	if s.GetUnit("key-u9", "u9.c", "ufp") == nil {
		t.Fatal("newest unit verdict evicted")
	}
}

// TestStorePersistsAcrossOpens: a second Open over the same directory serves
// the first one's entries — the cross-process warm-start path. The memory
// tier holds the record live (the stored *paths.FuncPaths, no bytes); the
// file holds its pinned encoding and sum, and decodes to an equal record.
func TestStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, c1 := openStore(t, dir, 0)
	want := funcPaths("fast", 1)
	s1.PutFunc("key-func", "u.c", "fast", "fp1", want)
	if e, _ := c1.Peek("key-func"); e == nil || e.Live == nil || len(e.Report) != 0 || e.Sum != "" {
		t.Fatalf("memory tier entry = %+v, want a live record without bytes", e)
	}
	if got := s1.GetFunc("key-func", "u.c", "fast", "fp1"); got != want {
		t.Fatal("a live hit did not return the stored record itself")
	}

	b, err := os.ReadFile(filepath.Join(dir, "ke", "key-func.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk rcache.Entry
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if string(onDisk.Report) != wantFunc || onDisk.Sum != "b452d7a8" {
		t.Fatalf("persisted record drifted from the pinned bytes:\n report %s\n sum %s", onDisk.Report, onDisk.Sum)
	}

	s2, _ := openStore(t, dir, 0)
	got := s2.GetFunc("key-func", "u.c", "fast", "fp1")
	if got == nil {
		t.Fatal("persisted entry missed after reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened record = %+v, want %+v", got, want)
	}
}

// TestStoreSlotHistoryBounded: the invalidation history keeps at most
// maxSlots slots. Filling it clears it, and a cleared slot's next lookup
// under a new fingerprint counts no invalidation; a slot seen since does.
func TestStoreSlotHistoryBounded(t *testing.T) {
	s, _ := openStore(t, "", 0)
	for i := 0; i <= maxSlots; i++ {
		s.trackFunc(fmt.Sprintf("u%d.c", i), "f", "fp1", false)
		if n := len(s.lastFP); n > maxSlots {
			t.Fatalf("after %d slots the history holds %d, cap %d", i+1, n, maxSlots)
		}
	}
	if n := len(s.lastFP); n != 1 {
		t.Fatalf("the slot after a full history left %d slots, want 1", n)
	}
	// u0.c was cleared with the full history; the last slot is still held.
	s.GetFunc("key", "u0.c", "f", "fp2")
	if n := s.Stats().FuncInvalidations; n != 0 {
		t.Fatalf("a dropped slot counted %d invalidations", n)
	}
	s.GetFunc("key", fmt.Sprintf("u%d.c", maxSlots), "f", "fp2")
	if n := s.Stats().FuncInvalidations; n != 1 {
		t.Fatalf("a held slot counted %d invalidations, want 1", n)
	}
}

// TestStoreTornEntriesAreMisses: garbage, truncated JSON, and wrong-version
// records in the persistent tier must read as misses. The store stays fully
// usable — fresh writes land and read back.
func TestStoreTornEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openStore(t, dir, 0)
	s1.PutFunc("key-aaa1", "u.c", "fast", "fp1", funcPaths("fast", 1))

	// Corrupt every persisted entry three ways: binary garbage, a torn JSON
	// prefix, and a wrong record version.
	var ents []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			ents = append(ents, path)
		}
		return nil
	})
	if len(ents) == 0 {
		t.Fatal("no persisted entries to corrupt")
	}
	for i, p := range ents {
		switch i % 3 {
		case 0:
			os.WriteFile(p, []byte("\x00\xffnot json"), 0o644)
		case 1:
			b, _ := os.ReadFile(p)
			os.WriteFile(p, b[:len(b)/2], 0o644)
		case 2:
			os.WriteFile(p, []byte(`{"key":"key-aaa1","unit":"u","report":"eyJ2ZXJzaW9uIjo5OX0="}`), 0o644)
		}
	}

	s2, _ := openStore(t, dir, 0)
	if s2.GetFunc("key-aaa1", "u.c", "fast", "fp1") != nil {
		t.Fatal("corrupted entry replayed")
	}
	s2.PutFunc("key-aaa2", "u.c", "slow", "fp2", funcPaths("slow", 1))
	if s2.GetFunc("key-aaa2", "u.c", "slow", "fp2") == nil {
		t.Fatal("store unusable after encountering torn entries")
	}
}

// TestStorePruneBoundsDisk: memo records in the backing cache's persistent
// tier converge to its MaxBytes by removing the oldest entries; pruned
// entries become misses, newest entries survive.
func TestStorePruneBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 8 << 10
	s, c := openStore(t, dir, maxBytes)
	for i := 0; i < 64; i++ {
		s.PutFunc(fmt.Sprintf("key-%03d", i), "u.c", fmt.Sprintf("f%d", i), "fp", funcPaths(fmt.Sprintf("f%d", i), 4))
	}
	// Prune to the bound, whatever the writes left pending for the trigger.
	c.PruneOldest(func(int64) int64 { return maxBytes })

	var total int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	if total > maxBytes {
		t.Fatalf("persistent tier holds %d bytes, budget %d", total, maxBytes)
	}
	if c.Stats().Pruned == 0 {
		t.Fatal("nothing pruned despite exceeding the budget")
	}

	// A fresh store over the pruned directory still serves what survived.
	s2, _ := openStore(t, dir, maxBytes)
	hits := 0
	for i := 0; i < 64; i++ {
		if s2.GetFunc(fmt.Sprintf("key-%03d", i), "u.c", fmt.Sprintf("f%d", i), "fp") != nil {
			hits++
		}
	}
	if hits == 0 || hits == 64 {
		t.Fatalf("survivors = %d, want some but not all under an 8KiB budget", hits)
	}
}

// TestStoreOpenPrunesOversizedDir: opening the backing cache trims a memo
// directory left over from a run with a larger budget.
func TestStoreOpenPrunesOversizedDir(t *testing.T) {
	dir := t.TempDir()
	big, _ := openStore(t, dir, 1<<20)
	for i := 0; i < 64; i++ {
		big.PutFunc(fmt.Sprintf("key-%03d", i), "u.c", fmt.Sprintf("f%d", i), "fp", funcPaths(fmt.Sprintf("f%d", i), 4))
	}

	_, small := openStore(t, dir, 4<<10)
	if small.Stats().Pruned == 0 {
		t.Fatal("Open left an oversized directory untrimmed")
	}
}

// TestStoreMetricsRegistered: the pallas_incr_* instruments land in the
// registry and move with activity.
func TestStoreMetricsRegistered(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := rcache.Open(rcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := Open(Options{Backing: Local(c), Registry: reg})
	s.PutFunc("key-aaa1", "u.c", "fast", "fp1", funcPaths("fast", 1))
	s.GetFunc("key-aaa1", "u.c", "fast", "fp1")
	s.GetFunc("key-aaa2", "u.c", "fast", "fp2")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		metrics.MetricIncrFuncHits + " 1",
		metrics.MetricIncrFuncMisses + " 1",
		metrics.MetricIncrFuncInvalidations + " 1",
		metrics.MetricIncrReuseRatio + " 500",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
