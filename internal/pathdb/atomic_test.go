package pathdb

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pallas/internal/failpoint"
	"pallas/internal/guard"
)

// TestSaveAtomicOnMidSaveCrash asserts the satellite fix for the old bare
// os.Create save: a crash (here: an injected mid-save abort) between
// serializing the new database and publishing it must leave the previous
// database intact on disk, byte for byte.
func TestSaveAtomicOnMidSaveCrash(t *testing.T) {
	t.Cleanup(failpoint.Disarm)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")

	old := buildDB(t)
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := failpoint.Arm("mid-save=error"); err != nil {
		t.Fatal(err)
	}
	bigger := buildDB(t)
	bigger.AddDiagnostic(guard.Diag(guard.StageExtract, "f", errors.New("x"), true))
	if err := bigger.Save(path); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("mid-save failpoint not hit: %v", err)
	}
	failpoint.Disarm()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("aborted save modified the existing database")
	}
	if db, err := Load(path); err != nil || len(db.Entries()) != len(old.Entries()) {
		t.Fatalf("existing database unreadable after aborted save: %v", err)
	}
}

// TestSavePreSaveAbortLeavesNoFile asserts an abort before any write leaves
// no target file behind for a fresh path.
func TestSavePreSaveAbortLeavesNoFile(t *testing.T) {
	t.Cleanup(failpoint.Disarm)
	path := filepath.Join(t.TempDir(), "db.json")
	if err := failpoint.Arm("pre-save=error"); err != nil {
		t.Fatal(err)
	}
	if err := buildDB(t).Save(path); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("pre-save failpoint not hit: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted first save created the target: %v", err)
	}
}

// TestSaveLeavesNoTempDroppings asserts a successful save cleans up its temp
// file.
func TestSaveLeavesNoTempDroppings(t *testing.T) {
	dir := t.TempDir()
	if err := buildDB(t).Save(filepath.Join(dir, "db.json")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "db.json" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory after save: %v", names)
	}
}

// TestSalvageKeepsValidEntries corrupts one entry of a persisted database
// and asserts Salvage returns the others plus a StageStore diagnostic.
func TestSalvageKeepsValidEntries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	db := buildDB(t)
	if len(db.Entries()) == 0 {
		t.Fatal("buildDB produced no entries")
	}
	var victim string
	for name := range db.Entries() {
		victim = name
		break
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Type-confuse the victim entry's value: "<victim>": 42
	broken := strings.Replace(string(b), `"`+victim+`": {`, `"`+victim+`": 42, "zzz_ignore": {`, 1)
	if broken == string(b) {
		t.Fatalf("failed to corrupt entry %q in %s", victim, b)
	}
	if err := os.WriteFile(path, []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("strict Load accepted the corrupted database")
	}
	got, err := Salvage(path)
	if err != nil {
		t.Fatalf("salvage failed: %v", err)
	}
	if got.Get(victim) != nil {
		t.Fatal("corrupt entry survived salvage")
	}
	// The victim's old body survives under the "zzz_ignore" key, so the
	// count stays at len(db.Entries()): victim dropped, zzz_ignore kept.
	if len(got.Entries()) != len(db.Entries()) {
		t.Fatalf("salvage kept %d entries, want %d", len(got.Entries()), len(db.Entries()))
	}
	found := false
	for _, d := range got.Diagnostics {
		if d.Stage == guard.StageStore && strings.Contains(d.Err, "corrupt entry") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no StageStore diagnostic for the dropped entry: %+v", got.Diagnostics)
	}
}

// TestSalvageQuarantinesUnrecoverable asserts a database that is not JSON at
// all is moved aside so reruns do not trip over it forever.
func TestSalvageQuarantinesUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	if err := os.WriteFile(path, []byte("\x00\x01 not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Salvage(path); err == nil {
		t.Fatal("garbage database salvaged successfully?")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("garbage database still in place")
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine copy missing: %v", err)
	}
}
