package pathdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"pallas/internal/cparse"
	"pallas/internal/guard"
	"pallas/internal/paths"
)

const src = `
int fast(int a) {
	if (a > 0)
		return 1;
	return 0;
}
int slow(int a) {
	int r = 0;
	while (r < a)
		r++;
	return r;
}
`

func buildDB(t *testing.T, names ...string) *DB {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	ex := paths.NewExtractor(tu, paths.DefaultConfig())
	db, err := Build(ex, "t.c", names...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildAll(t *testing.T) {
	db := buildDB(t)
	if got := db.Funcs(); len(got) != 2 || got[0] != "fast" || got[1] != "slow" {
		t.Fatalf("funcs = %v", got)
	}
	if db.NumPaths() < 3 {
		t.Errorf("paths = %d", db.NumPaths())
	}
	if db.Get("fast") == nil || db.Get("zzz") != nil {
		t.Error("Get wrong")
	}
	if db.BuiltAt == "" {
		t.Error("BuiltAt not stamped")
	}
}

func TestBuildNamed(t *testing.T) {
	db := buildDB(t, "fast")
	if len(db.Funcs()) != 1 {
		t.Fatalf("funcs = %v", db.Funcs())
	}
	fp := db.FuncPaths("fast")
	if fp == nil || len(fp.Paths) != 2 {
		t.Fatalf("fast paths = %+v", fp)
	}
	if db.FuncPaths("slow") != nil {
		t.Error("slow should be absent")
	}
}

func TestBuildUnknownFunc(t *testing.T) {
	tu, _ := cparse.Parse("t.c", src)
	ex := paths.NewExtractor(tu, paths.DefaultConfig())
	if _, err := Build(ex, "t.c", "missing"); err == nil {
		t.Fatal("expected error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := buildDB(t)
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Target != "t.c" || back.NumPaths() != db.NumPaths() {
		t.Fatalf("round trip: %+v", back)
	}
	// Deep-check one path survives with its records.
	a := db.Get("fast").Paths[0]
	b := back.Get("fast").Paths[0]
	if a.Signature != b.Signature || len(a.Conds) != len(b.Conds) || a.Out.Expr != b.Out.Expr {
		t.Errorf("path drift:\n%v\nvs\n%v", a, b)
	}
}

func TestSaveLoad(t *testing.T) {
	db := buildDB(t)
	path := filepath.Join(t.TempDir(), "paths.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Funcs()) != 2 {
		t.Fatalf("loaded funcs = %v", back.Funcs())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected load error")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
	db, err := Read(bytes.NewBufferString("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Entries() == nil {
		t.Fatal("entries map not initialized")
	}
}

func TestPutReplaces(t *testing.T) {
	db := New("x")
	db.Put(&paths.FuncPaths{Fn: "f", Signature: "f()"})
	db.Put(&paths.FuncPaths{Fn: "f", Signature: "f(a)"})
	if db.Get("f").Signature != "f(a)" {
		t.Error("Put did not replace")
	}
}

// TestWireFormatPinned pins the persisted bytes: key order target,
// built_at, entries, diagnostics, through json.Marshal, MarshalJSON and
// Write alike, for an eager and a lazy database.
func TestWireFormatPinned(t *testing.T) {
	diag := guard.Diag(guard.StageExtract, "f", errors.New("x"), true)
	build := func() *DB {
		db := New("t.c")
		db.BuiltAt = "2017-04-08T00:00:00Z"
		db.Put(&paths.FuncPaths{Fn: "f", Signature: "f(a)", Truncated: true,
			Paths: []*paths.ExecPath{{Fn: "f", Signature: "f(a)", Out: &paths.Output{Expr: "a < b", Line: 2}}}})
		db.AddDiagnostic(diag)
		return db
	}
	const want = `{"target":"t.c","built_at":"2017-04-08T00:00:00Z","entries":{"f":{"func":"f","signature":"f(a)","truncated":true,"paths":[{"Fn":"f","Signature":"f(a)","Index":0,"Blocks":null,"Conds":null,"States":null,"Calls":null,"Out":{"Expr":"a \u003c b","Sym":"","Line":2,"Void":false}}]}},"diagnostics":[{"stage":"extract","unit":"f","error":"x","partial":true}]}`
	lazy := func() *DB {
		db := Lazy("t.c", func() (*DB, error) { return build(), nil })
		db.BuiltAt = "2017-04-08T00:00:00Z"
		db.AddDiagnostic(diag)
		return db
	}
	for name, db := range map[string]func() *DB{"eager": build, "lazy": lazy} {
		js, err := json.Marshal(db())
		if err != nil || string(js) != want {
			t.Fatalf("%s: json.Marshal = %s, %v\nwant %s", name, js, err, want)
		}
		direct, err := db().MarshalJSON()
		if err != nil || string(direct) != want {
			t.Fatalf("%s: MarshalJSON = %s, %v", name, direct, err)
		}
		var file, indented bytes.Buffer
		if err := db().Write(&file); err != nil {
			t.Fatal(err)
		}
		json.Indent(&indented, []byte(want), "", " ")
		if file.String() != indented.String()+"\n" {
			t.Fatalf("%s: Write =\n%s\nwant\n%s", name, file.String(), indented.String())
		}
	}
}

// TestLazyFillFailureIsAnError: a lazy database whose fill fails reads as
// empty, and every encoding of it fails with the fill's error instead of
// passing for a database with no paths. Its Diagnostics stay untouched.
func TestLazyFillFailureIsAnError(t *testing.T) {
	walk := errors.New("walk crashed")
	db := Lazy("t.c", func() (*DB, error) { return nil, walk })
	if len(db.Funcs()) != 0 || db.Get("f") != nil {
		t.Fatalf("failed fill produced entries: %v", db.Funcs())
	}
	if err := db.Err(); !errors.Is(err, walk) {
		t.Fatalf("Err = %v, want the fill's error", err)
	}
	if _, err := json.Marshal(db); !errors.Is(err, walk) {
		t.Fatalf("json.Marshal error = %v, want the fill's error", err)
	}
	if err := db.Write(io.Discard); !errors.Is(err, walk) {
		t.Fatalf("Write error = %v, want the fill's error", err)
	}
	if len(db.Diagnostics) != 0 {
		t.Fatalf("fill failure leaked into Diagnostics: %+v", db.Diagnostics)
	}
}

// TestLazyDiagnosticsReadDuringFill: the fill never writes Diagnostics, so
// reading the field while another goroutine fills the database is not a
// data race (run under -race), and the fill's own diagnostics are not
// merged in.
func TestLazyDiagnosticsReadDuringFill(t *testing.T) {
	filling, release := make(chan struct{}), make(chan struct{})
	db := Lazy("t.c", func() (*DB, error) {
		close(filling)
		<-release
		src := New("t.c")
		src.Put(&paths.FuncPaths{Fn: "f", Signature: "f(a)"})
		src.AddDiagnostic(guard.Diag(guard.StageExtract, "f", errors.New("x"), true))
		return src, nil
	})
	db.AddDiagnostic(guard.Diag(guard.StageParse, "t.c", errors.New("builder"), true))
	done := make(chan struct{})
	go func() {
		defer close(done)
		db.NumPaths()
	}()
	<-filling
	if len(db.Diagnostics) != 1 {
		t.Errorf("Diagnostics during fill = %+v, want the builder's one", db.Diagnostics)
	}
	close(release)
	<-done
	if db.Get("f") == nil || len(db.Diagnostics) != 1 || db.Diagnostics[0].Err != "builder" {
		t.Fatalf("after fill: funcs %v, diagnostics %+v", db.Funcs(), db.Diagnostics)
	}
}
