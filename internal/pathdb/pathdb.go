// Package pathdb stores extracted execution paths. The paper's toolchain
// generates all execution paths once ("this is a one-time cost"), stores them
// in a database, and lets the checkers symbolically explore them; DB is that
// store, with JSON persistence so a corpus-wide extraction can be reused
// across checker runs.
package pathdb

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/paths"
)

// Entry is the stored extraction result for one function.
type Entry struct {
	Func      string            `json:"func"`
	Signature string            `json:"signature"`
	Truncated bool              `json:"truncated,omitempty"`
	Paths     []*paths.ExecPath `json:"paths"`
}

// DB is a path database. Its entries are read through Get, FuncPaths,
// Funcs, NumPaths, Select and Entries; a database made by Lazy produces
// them on the first of those reads (or the first Put, marshal or Err).
type DB struct {
	// Target names the analyzed translation unit.
	Target string
	// BuiltAt records when the extraction ran (RFC3339).
	BuiltAt string
	// Diagnostics preserves the degradation record of the run that built the
	// database, so consumers of a persisted DB know which entries may be
	// partial. A lazy database's fill never adds to it: a failed fill is
	// reported by Err, MarshalJSON and Write.
	Diagnostics []guard.Diagnostic

	once    sync.Once
	fill    func() (*DB, error)
	fillErr error
	entries map[string]*Entry // function name → extraction result
}

// dbJSON is DB's wire form; its field order is the persisted key order.
type dbJSON struct {
	Target      string             `json:"target"`
	BuiltAt     string             `json:"built_at,omitempty"`
	Entries     map[string]*Entry  `json:"entries"`
	Diagnostics []guard.Diagnostic `json:"diagnostics,omitempty"`
}

// New returns an empty database for the named target.
func New(target string) *DB {
	return &DB{Target: target, entries: map[string]*Entry{}}
}

// Lazy returns a database for the named target whose entries fill
// produces on first read, for results whose paths can be re-derived and
// are often never read. Only the entries of fill's database are kept.
// Concurrent first reads run fill once. When fill fails, the database
// reads as empty, and Err, MarshalJSON and Write return the failure, so
// it cannot pass for a database with no paths.
func Lazy(target string, fill func() (*DB, error)) *DB {
	return &DB{Target: target, fill: fill}
}

// load returns the entry map and a lazy database's fill failure, running
// the fill first. Every read of the entries goes through it.
func (db *DB) load() (map[string]*Entry, error) {
	db.once.Do(func() {
		if db.fill != nil {
			if src, err := db.fill(); err != nil {
				db.fillErr = fmt.Errorf("pathdb: deriving paths of %s: %w", db.Target, err)
			} else {
				db.entries = src.Entries()
			}
			db.fill = nil
		}
		if db.entries == nil {
			db.entries = map[string]*Entry{}
		}
	})
	return db.entries, db.fillErr
}

// entryMap is load for reads that see a failed fill as an empty database.
func (db *DB) entryMap() map[string]*Entry {
	entries, _ := db.load()
	return entries
}

// Err fills a lazy database and returns its fill failure, or nil.
func (db *DB) Err() error {
	_, err := db.load()
	return err
}

// wire returns the database's wire form, filling a lazy one first.
func (db *DB) wire() (dbJSON, error) {
	entries, err := db.load()
	return dbJSON{Target: db.Target, BuiltAt: db.BuiltAt, Entries: entries, Diagnostics: db.Diagnostics}, err
}

// MarshalJSON encodes the database, filling a lazy one first. Calling it
// directly yields the bytes json.Marshal does, without the pass in which
// encoding/json re-validates a Marshaler's output.
func (db *DB) MarshalJSON() ([]byte, error) {
	j, err := db.wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a database; a missing or null entries object
// reads as empty.
func (db *DB) UnmarshalJSON(b []byte) error {
	var j dbJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if j.Entries == nil {
		j.Entries = map[string]*Entry{}
	}
	db.Target, db.BuiltAt, db.entries, db.Diagnostics = j.Target, j.BuiltAt, j.Entries, j.Diagnostics
	return nil
}

// Build extracts paths for the named functions (or, when names is empty, for
// every function in the extractor's translation unit) and stores them.
func Build(ex *paths.Extractor, target string, names ...string) (*DB, error) {
	db := New(target)
	db.BuiltAt = time.Now().UTC().Format(time.RFC3339)
	if len(names) == 0 {
		all, err := ex.ExtractAll()
		if err != nil {
			return nil, err
		}
		for _, fp := range all {
			db.Put(fp)
		}
		return db, nil
	}
	for _, n := range names {
		fp, err := ex.Extract(n)
		if err != nil {
			return nil, err
		}
		db.Put(fp)
	}
	return db, nil
}

// Put stores an extraction result, replacing any previous entry.
func (db *DB) Put(fp *paths.FuncPaths) {
	db.entryMap()[fp.Fn] = &Entry{
		Func: fp.Fn, Signature: fp.Signature, Truncated: fp.Truncated, Paths: fp.Paths,
	}
}

// AddDiagnostic appends a degradation record to the database.
func (db *DB) AddDiagnostic(d guard.Diagnostic) { db.Diagnostics = append(db.Diagnostics, d) }

// Entries returns the function name → extraction result map. Callers must
// not modify it, nor the paths its entries reach: with the incremental memo
// on, those are shared with the memo's live records and every other
// analysis that replays them.
func (db *DB) Entries() map[string]*Entry { return db.entryMap() }

// Get returns the entry for a function, or nil. The entry and its paths
// are read-only (see Entries).
func (db *DB) Get(fn string) *Entry { return db.entryMap()[fn] }

// FuncPaths reconstructs a paths.FuncPaths view of an entry, or nil. The
// view is new, but its paths are the entry's and are read-only (see
// Entries).
func (db *DB) FuncPaths(fn string) *paths.FuncPaths {
	e := db.Get(fn)
	if e == nil {
		return nil
	}
	return &paths.FuncPaths{Fn: e.Func, Signature: e.Signature, Truncated: e.Truncated, Paths: e.Paths}
}

// Funcs lists the stored function names, sorted.
func (db *DB) Funcs() []string {
	entries := db.entryMap()
	out := make([]string, 0, len(entries))
	for k := range entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NumPaths counts all stored paths.
func (db *DB) NumPaths() int {
	n := 0
	for _, e := range db.entryMap() {
		n += len(e.Paths)
	}
	return n
}

// Write serializes the database as JSON.
func (db *DB) Write(w io.Writer) error {
	j, err := db.wire()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(j)
}

// Read deserializes a database.
func Read(r io.Reader) (*DB, error) {
	db := &DB{}
	if err := json.NewDecoder(r).Decode(db); err != nil {
		return nil, fmt.Errorf("pathdb: %w", err)
	}
	return db, nil
}

// Save writes the database to a file atomically: the JSON is written to a
// temp file in the same directory, fsynced, then renamed over the target. A
// crash at any point leaves either the old database or the new one — never a
// truncated hybrid. The PreSave/MidSave failpoints bracket the vulnerable
// window for crash testing.
func (db *DB) Save(path string) error {
	if err := failpoint.Hit(failpoint.PreSave, path); err != nil {
		return err
	}
	dir, base := filepath.Dir(path), filepath.Base(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := db.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The temp file is durable but the target still points at the old data:
	// this is where a mid-save crash used to truncate the DB.
	if err := failpoint.Hit(failpoint.MidSave, path); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a database from a file.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Salvage reads a database from a file, tolerating per-entry corruption:
// entries (and diagnostics) that fail to decode are dropped, and each drop
// is recorded as a StageStore diagnostic on the returned database, so a
// damaged store yields its intact paths instead of nothing. The error is
// non-nil only when the file is unreadable or not a JSON object at all —
// then the corrupt file is renamed to <path>.quarantine so the next run
// starts clean instead of tripping over it again.
func Salvage(path string) (*DB, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw struct {
		Target      string                     `json:"target"`
		BuiltAt     string                     `json:"built_at"`
		Entries     map[string]json.RawMessage `json:"entries"`
		Diagnostics json.RawMessage            `json:"diagnostics"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		if qerr := os.Rename(path, path+".quarantine"); qerr != nil {
			return nil, fmt.Errorf("pathdb: salvage %s: %v (quarantine failed: %v)", path, err, qerr)
		}
		return nil, fmt.Errorf("pathdb: salvage %s: unrecoverable (%v); moved to %s.quarantine", path, err, path)
	}
	db := New(raw.Target)
	db.BuiltAt = raw.BuiltAt
	for _, name := range sortedKeys(raw.Entries) {
		var e Entry
		if err := json.Unmarshal(raw.Entries[name], &e); err != nil {
			db.AddDiagnostic(guard.Diag(guard.StageStore, name,
				fmt.Errorf("dropped corrupt entry: %v", err), true))
			continue
		}
		db.entries[name] = &e
	}
	if len(raw.Diagnostics) > 0 {
		var diags []guard.Diagnostic
		if err := json.Unmarshal(raw.Diagnostics, &diags); err != nil {
			db.AddDiagnostic(guard.Diag(guard.StageStore, raw.Target,
				fmt.Errorf("dropped corrupt diagnostics: %v", err), true))
		} else {
			db.Diagnostics = append(diags, db.Diagnostics...)
		}
	}
	return db, nil
}

func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
