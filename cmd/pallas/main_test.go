package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pallas/internal/pathdb"
)

const sampleC = `
// @pallas: fastpath get_fast
// @pallas: immutable mode_flags
struct obj { int state; };
int helper(struct obj *o);
int get_fast(struct obj *o, int mode_flags)
{
	if (o->state == 0) {
		mode_flags = 0;
		return 1;
	}
	return 0;
}
int get_slow(struct obj *o, int mode_flags)
{
	if (mode_flags)
		return -1;
	return 0;
}
`

func writeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "sample.c")
	if err := os.WriteFile(path, []byte(sampleC), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture redirects stdout around fn and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

func TestCmdPaths(t *testing.T) {
	for name, path := range samples(t) {
		out, err := capture(t, func() error {
			return cmdPaths([]string{"-func", "get_fast", path})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range []string{"2 path(s) of get_fast", "cond", "state"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: paths output missing %q:\n%s", name, want, out)
			}
		}
	}
}

func TestCmdPathsDBOutput(t *testing.T) {
	for name, path := range samples(t) {
		dbPath := filepath.Join(t.TempDir(), "db.json")
		_, err := capture(t, func() error {
			return cmdPaths([]string{"-func", "get_fast", "-db", dbPath, path})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		db, err := pathdb.Load(dbPath)
		if err != nil {
			t.Fatalf("%s: db not written: %v", name, err)
		}
		if fp := db.FuncPaths("get_fast"); fp == nil || len(fp.Paths) != 2 {
			t.Errorf("%s: db entry for get_fast: %+v", name, fp)
		}
	}
}

// includeHeader and includeC split sampleC's pair across a header and a
// macro, so the inspection commands must preprocess the file the way check
// does before they can find its functions.
const includeHeader = `
struct obj { int state; };
#define MODE_NONE 0
`

const includeC = `#include "obj.h"
int get_fast(struct obj *o, int mode_flags)
{
	if (o->state == 0) {
		mode_flags = MODE_NONE;
		return 1;
	}
	return 0;
}
int get_slow(struct obj *o, int mode_flags)
{
	if (mode_flags != MODE_NONE)
		return -1;
	return 0;
}
`

// writeIncludeSample writes includeC next to its header and returns its path.
func writeIncludeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "obj.h"), []byte(includeHeader), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "m.c")
	if err := os.WriteFile(path, []byte(includeC), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// samples returns the inspection commands' inputs: the annotated sample and
// the same pair behind an #include and a macro.
func samples(t *testing.T) map[string]string {
	return map[string]string{"plain": writeSample(t), "include": writeIncludeSample(t)}
}

func TestCmdWorkflow(t *testing.T) {
	for name, path := range samples(t) {
		out, err := capture(t, func() error {
			return cmdWorkflow([]string{"-func", "get_fast", path})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "workflow get_fast") || !strings.Contains(out, "Sin") {
			t.Errorf("%s: workflow output:\n%s", name, out)
		}
		dot, err := capture(t, func() error {
			return cmdWorkflow([]string{"-func", "get_fast", "-dot", path})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(dot, "digraph") {
			t.Errorf("%s: dot output:\n%s", name, dot)
		}
	}
}

func TestCmdDiff(t *testing.T) {
	for name, path := range samples(t) {
		out, err := capture(t, func() error {
			return cmdDiff([]string{"-fast", "get_fast", "-slow", "get_slow", path})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "diff get_fast (fast) vs get_slow (slow)") {
			t.Errorf("%s: diff output:\n%s", name, out)
		}
	}
}

func TestCmdInfer(t *testing.T) {
	for name, path := range samples(t) {
		out, err := capture(t, func() error {
			return cmdInfer([]string{"-fast", "get_fast", "-slow", "get_slow", path})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "immutable mode_flags") {
			t.Errorf("%s: infer output:\n%s", name, out)
		}
	}
}

func TestCmdCorpus(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdCorpus([]string{"-system", "MM"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mm/") {
		t.Errorf("corpus listing:\n%s", out)
	}
	show, err := capture(t, func() error {
		return cmdCorpus([]string{"-show", "mm/state-overwrite/b0"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(show, "--- source ---") || !strings.Contains(show, "--- spec ---") {
		t.Errorf("corpus show:\n%s", show)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdPaths([]string{"nofunc.c"}); err == nil {
		t.Error("paths without -func should fail")
	}
	if err := cmdDiff([]string{"x.c"}); err == nil {
		t.Error("diff without functions should fail")
	}
	if err := cmdWorkflow([]string{"-func", "f", "/nonexistent/file.c"}); err == nil {
		t.Error("missing file should fail")
	}
	if err := cmdCorpus([]string{"-show", "no/such/case"}); err == nil {
		t.Error("unknown corpus id should fail")
	}
}

func TestCmdCorpusExport(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return cmdCorpus([]string{"-export", dir, "-system", "SDN"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "exported") {
		t.Errorf("output: %s", out)
	}
	// Exported pairs must analyze cleanly via check on one known bug case.
	src := filepath.Join(dir, "sdn", "cond-order", "b0.c")
	spec := filepath.Join(dir, "sdn", "cond-order", "b0.pls")
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("exported file missing: %v", err)
	}
	if _, err := os.Stat(spec); err != nil {
		t.Fatalf("exported spec missing: %v", err)
	}
}

func TestCmdCheckCleanFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clean.c")
	src := `
// @pallas: fastpath ok_fast
// @pallas: immutable mode
int ok_fast(int mode) {
	if (mode == 0)
		return 1;
	return 0;
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return cmdCheck([]string{path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 warning(s)") {
		t.Errorf("check output:\n%s", out)
	}
}

func TestCmdCheckHTMLOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clean.c")
	if err := os.WriteFile(path, []byte("int f(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	htmlPath := filepath.Join(dir, "report.html")
	if _, err := capture(t, func() error {
		return cmdCheck([]string{"-html", htmlPath, path})
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatalf("html not written: %v", err)
	}
	if !strings.Contains(string(b), "<title>Pallas report") {
		t.Errorf("html content:\n%s", b)
	}
}

func TestCmdCheckMultipleFiles(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"a.c", "b.c"} {
		if err := os.WriteFile(filepath.Join(dir, n),
			[]byte("int f_"+strings.TrimSuffix(n, ".c")+"(void) { return 0; }\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := capture(t, func() error {
		return cmdCheck([]string{filepath.Join(dir, "a.c"), filepath.Join(dir, "b.c")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "0 warning(s)") != 2 {
		t.Errorf("multi-file output:\n%s", out)
	}
}
