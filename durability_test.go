package pallas

// Durability acceptance tests at the API level: transient failures retry
// with backoff and succeed on a later attempt, persistent panics land in
// quarantine without wedging the batch, and journaled runs resume by content
// hash. The end-to-end SIGKILL crash test lives in cmd/pallas.

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/journal"
)

const durableSrc = `
// @pallas: fastpath get_fast
// @pallas: immutable mode_flags
int get_fast(int mode_flags)
{
	if (mode_flags == 0) {
		mode_flags = 1;
		return 1;
	}
	return 0;
}
`

func durableUnits() []Unit {
	return []Unit{
		{Name: "u1.c", Source: durableSrc, Spec: ""},
		{Name: "u2.c", Source: strings.ReplaceAll(durableSrc, "get_fast", "other_fast"), Spec: ""},
	}
}

// TestRetryTransientSucceeds injects two transient pre-parse failures into
// one unit and asserts the retry policy recovers it: success on attempt 3
// (≥ 2), two backoff sleeps within the exponential-with-jitter envelope.
func TestRetryTransientSucceeds(t *testing.T) {
	t.Cleanup(failpoint.Disarm)
	if err := failpoint.Arm("pre-parse=error@2/u1.c"); err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	a := New(Config{})
	out, stats, err := a.AnalyzeBatch(durableUnits(), BatchOptions{
		Workers: 1, Retries: 3, RetryBackoff: 10 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out[0]
	if r.Err != nil {
		t.Fatalf("unit not recovered: %v", r.Err)
	}
	if r.Attempts < 2 {
		t.Fatalf("recovered on attempt %d, want ≥ 2", r.Attempts)
	}
	if r.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two injected failures)", r.Attempts)
	}
	if len(r.Result.Report.Warnings) == 0 {
		t.Fatal("recovered unit lost its warnings")
	}
	if len(slept) != 2 {
		t.Fatalf("backoff sleeps = %v, want 2", slept)
	}
	// Full-jitter envelope: attempt n sleeps uniformly in (0, base·2ⁿ⁻¹]
	// (backoff.Delay — the whole window is drawn, not just ±50% around the
	// midpoint, so simultaneously retrying units decorrelate).
	base := 10 * time.Millisecond
	if slept[0] <= 0 || slept[0] > base {
		t.Errorf("first backoff %v outside (0, %v]", slept[0], base)
	}
	if slept[1] <= 0 || slept[1] > 2*base {
		t.Errorf("second backoff %v outside (0, %v]", slept[1], 2*base)
	}
	if stats.Retried != 2 || stats.Recovered != 1 || stats.Analyzed != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if out[1].Attempts != 1 {
		t.Errorf("healthy neighbour was retried: %d attempts", out[1].Attempts)
	}
}

// TestQuarantinePersistentPanic keeps one unit panicking on every attempt
// and asserts it is quarantined while the rest of the batch completes.
func TestQuarantinePersistentPanic(t *testing.T) {
	t.Cleanup(failpoint.Disarm)
	if err := failpoint.Arm("pre-parse=panic/poison"); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	units := append(durableUnits(), Unit{Name: "poison.c", Source: durableSrc})
	a := New(Config{})
	out, stats, err := a.AnalyzeBatch(units, BatchOptions{
		Workers: 2, Retries: 2, JournalPath: jpath,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out[:2] {
		if r.Err != nil || len(r.Result.Report.Warnings) == 0 {
			t.Fatalf("healthy unit %s damaged by poisoned neighbour: %v", r.Unit, r.Err)
		}
	}
	p := out[2]
	if !p.Quarantined {
		t.Fatalf("poisoned unit not quarantined: %+v", p)
	}
	var pe *guard.PanicError
	if !errors.As(p.Err, &pe) {
		t.Fatalf("quarantine error is not the recovered panic: %v", p.Err)
	}
	if p.Attempts != 3 {
		t.Fatalf("poisoned unit attempts = %d, want 3 (1 + 2 retries)", p.Attempts)
	}
	if stats.Quarantined != 1 || stats.Retried != 2 {
		t.Errorf("stats = %+v", stats)
	}

	jr, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	rec, ok := jr.Lookup("poison.c")
	if !ok || rec.Status != journal.StatusQuarantined {
		t.Fatalf("journal record for poisoned unit: %+v (ok=%v)", rec, ok)
	}
	// Quarantine is terminal: a resumed run must skip the poisoned unit even
	// while the panic persists.
	jr.Close()
	out2, stats2, err := a.AnalyzeBatch(units, BatchOptions{
		Workers: 1, Retries: 2, JournalPath: jpath, Resume: true,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out2[2].Skipped || !out2[2].Quarantined {
		t.Fatalf("resumed run re-ran the quarantined unit: %+v", out2[2])
	}
	if stats2.Skipped != 3 || stats2.Analyzed != 0 {
		t.Errorf("resume stats = %+v", stats2)
	}
}

// TestResumeSkipsTerminalAndReplaysReport journals a run, resumes it, and
// asserts the replayed reports match the originals without re-analysis.
func TestResumeSkipsTerminalAndReplaysReport(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	a := New(Config{})
	units := durableUnits()
	first, _, err := a.AnalyzeBatch(units, BatchOptions{JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	second, stats, err := a.AnalyzeBatch(units, BatchOptions{JournalPath: jpath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyzed != 0 || stats.Skipped != len(units) {
		t.Fatalf("resume stats = %+v", stats)
	}
	for i := range units {
		f, s := first[i], second[i]
		if !s.Skipped || s.Attempts != 0 {
			t.Fatalf("%s: not skipped (%+v)", s.Unit, s)
		}
		if s.Result == nil || len(s.Result.Report.Warnings) != len(f.Result.Report.Warnings) {
			t.Fatalf("%s: replayed report drifted", s.Unit)
		}
		for j, w := range f.Result.Report.Warnings {
			if s.Result.Report.Warnings[j] != w {
				t.Fatalf("%s: warning %d drifted: %+v vs %+v", s.Unit, j, s.Result.Report.Warnings[j], w)
			}
		}
	}
	// No new records were appended for skipped units.
	jr, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if jr.Len() != len(units) {
		t.Fatalf("journal grew on resume: %d records", jr.Len())
	}
	for _, rec := range jr.Records() {
		if rec.Attempt != 1 {
			t.Fatalf("attempt count drifted: %+v", rec)
		}
	}
}

// TestResumeHashMismatchForcesReanalysis edits a unit's source between runs
// and asserts the stale journal entry is ignored for it.
func TestResumeHashMismatchForcesReanalysis(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	a := New(Config{})
	units := durableUnits()
	if _, _, err := a.AnalyzeBatch(units, BatchOptions{JournalPath: jpath}); err != nil {
		t.Fatal(err)
	}
	edited := append([]Unit{}, units...)
	edited[0].Source += "\nint unrelated(void) { return 7; }\n"
	out, stats, err := a.AnalyzeBatch(edited, BatchOptions{JournalPath: jpath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Skipped || out[0].Attempts != 1 {
		t.Fatalf("edited unit was skipped: %+v", out[0])
	}
	if !out[1].Skipped {
		t.Fatalf("untouched unit was re-analyzed: %+v", out[1])
	}
	if stats.Analyzed != 1 || stats.Skipped != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// The fresh record wins on the next resume.
	jr, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	rec, ok := jr.Lookup("u1.c")
	if !ok || rec.Hash != edited[0].Hash() {
		t.Fatalf("journal kept the stale hash: %+v", rec)
	}
}

// TestDeterministicFailureNotRetried asserts malformed input is failed
// immediately (no retries) and replayed as a failure on resume.
func TestDeterministicFailureNotRetried(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	a := New(Config{})
	units := []Unit{{Name: "broken.c", Source: "int broken( {"}}
	out, stats, err := a.AnalyzeBatch(units, BatchOptions{
		Retries: 3, JournalPath: jpath,
		Sleep: func(time.Duration) { t.Error("deterministic failure slept for a retry") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err == nil || out[0].Attempts != 1 || out[0].Quarantined {
		t.Fatalf("deterministic failure mishandled: %+v", out[0])
	}
	if stats.Failed != 1 || stats.Retried != 0 {
		t.Errorf("stats = %+v", stats)
	}
	out2, stats2, err := a.AnalyzeBatch(units, BatchOptions{JournalPath: jpath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out2[0].Skipped || out2[0].Err == nil {
		t.Fatalf("failed unit not replayed on resume: %+v", out2[0])
	}
	if stats2.Analyzed != 0 {
		t.Errorf("resume stats = %+v", stats2)
	}
}

// TestResumeRequiresJournal asserts the option dependency is enforced.
func TestResumeRequiresJournal(t *testing.T) {
	a := New(Config{})
	if _, _, err := a.AnalyzeBatch(durableUnits(), BatchOptions{Resume: true}); err == nil {
		t.Fatal("Resume without JournalPath accepted")
	}
}

// TestDiagnosticError asserts guard.Diagnostic renders one readable line via
// both the error and Stringer interfaces.
func TestDiagnosticError(t *testing.T) {
	d := guard.Diag(guard.StageParse, "x.c", errors.New("boom"), true)
	var err error = d
	want := "x.c: degraded[parse]: boom"
	if err.Error() != want || d.String() != want {
		t.Fatalf("Error()=%q String()=%q want %q", err.Error(), d.String(), want)
	}
}
