package main

// End-to-end crash safety of the function-level memo: a real
// `pallas check -incr-dir` process is SIGKILLed at a memo save, and the next
// run over the same directory must load it cleanly — prior entries replay,
// the interrupted unit re-analyzes, and stdout stays byte-identical to an
// uninterrupted run. -incr-dir is an alias of -cache-dir, so result entries
// and memo records share the directory. Also covers the -cache-stats flag
// end to end.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pallas/internal/failpoint"
)

// cacheKinds counts the entry files under dir by kind: "result" entries,
// and "incr-func" / "incr-unit" memo records.
func cacheKinds(t *testing.T, dir string) map[string]int {
	t.Helper()
	kinds := map[string]int{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e struct{ Unit string }
		if err := json.Unmarshal(b, &e); err != nil {
			return err
		}
		kind, _, memo := strings.Cut(e.Unit, ":")
		if !memo {
			kind = "result"
		}
		kinds[kind]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return kinds
}

func TestIncrCrashMidSaveEndToEnd(t *testing.T) {
	bin := buildPallas(t)
	dir := t.TempDir()
	files := writeCrashCorpus(t, dir, 3)
	incrDir := filepath.Join(dir, "memo")

	// Reference: an uninterrupted run without the memo.
	wantOut, _, code := runCheck(t, bin, nil, append([]string{"-workers", "1"}, files...)...)
	if code != 1 { // every unit carries a seeded warning
		t.Fatalf("reference run exit = %d, want 1\n%s", code, wantOut)
	}

	// Populate the directory with c1.c's entries only: its result entry and
	// its memo records, all under -incr-dir and nowhere else.
	out, _, code := runCheck(t, bin, nil, "-workers", "1", "-incr-dir", incrDir, files[0])
	if code != 1 {
		t.Fatalf("populate run exit = %d, want 1\n%s", code, out)
	}
	if k := cacheKinds(t, incrDir); k["result"] != 1 || k["incr-func"] != 1 || k["incr-unit"] != 1 || len(k) != 3 {
		t.Fatalf("-incr-dir holds %v, want one result entry, one function record and one unit verdict", k)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != len(files)+1 {
		t.Fatalf("check wrote outside -incr-dir: %d entries in the input directory", len(ents))
	}

	// Crash run over all three units: the result cache answers c1.c, then
	// the first persistent memo write for c2.c SIGKILLs the process
	// mid-save.
	_, crashErr, code := runCheck(t, bin,
		[]string{failpoint.EnvVar + "=cache-store=kill"},
		append([]string{"-workers", "1", "-incr-dir", incrDir}, files...)...)
	if code != -1 {
		t.Fatalf("crash run exit = %d, want -1 (SIGKILL)\nstderr:\n%s", code, crashErr)
	}

	// A trailing comment changes c1.c's bytes, so the result cache misses,
	// but not its fingerprint, so the memo record written before the kill
	// must replay its verdict.
	f, err := os.OpenFile(files[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("/* edited */\n")
	f.Close()

	// Recovery: the directory must load with c1.c's entries intact and
	// nothing torn — c1.c replays, c2.c and c3.c analyze, stdout matches
	// reference.
	gotOut, stderr, code := runCheck(t, bin, nil,
		append([]string{"-workers", "1", "-incr-dir", incrDir, "-cache-stats"}, files...)...)
	if code != 1 {
		t.Fatalf("recovery run exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if gotOut != wantOut {
		t.Fatalf("recovery report differs from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", wantOut, gotOut)
	}
	if !strings.Contains(stderr, "unit verdicts: 1 hit(s), 2 miss(es)") {
		t.Errorf("recovery -cache-stats should show c1.c's surviving verdict:\n%s", stderr)
	}

	// Fully warm re-run: the result cache answers every unit from disk.
	gotOut2, stderr2, code := runCheck(t, bin, nil,
		append([]string{"-workers", "1", "-incr-dir", incrDir, "-cache-stats"}, files...)...)
	if code != 1 || gotOut2 != wantOut {
		t.Fatalf("warm run drifted (exit %d)\nstderr:\n%s", code, stderr2)
	}
	if want := "unit cache: 3 hit(s) (0 mem, 3 disk), 0 miss(es), 0 compute(s)"; !strings.Contains(stderr2, want) {
		t.Errorf("warm -cache-stats missing %q:\n%s", want, stderr2)
	}
}

// TestIncrCacheStatsWithoutStore: -cache-stats alone still prints the unit
// cache line and points at -incr-dir for the memo.
func TestIncrCacheStatsWithoutStore(t *testing.T) {
	bin := buildPallas(t)
	dir := t.TempDir()
	files := writeCrashCorpus(t, dir, 1)

	_, stderr, code := runCheck(t, bin, nil, "-cache-stats", files[0])
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"unit cache:", "func memo: off"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}
