// Package guard is the resilience layer of the Pallas pipeline. The paper's
// toolchain analyzes large, messy corpora in bulk (Linux 4.6, Chromium 54,
// Android 6.0, OVS 2.5); at that scale one malformed translation unit,
// pathological macro expansion, or path-explosion blowup must not abort or
// stall a whole run. guard provides the three primitives the rest of the
// system builds on:
//
//   - Diagnostic: the structured record every degraded or failed unit
//     produces instead of an untyped error or a process death;
//   - Budget: per-unit resource limits (wall-clock deadline, path-walk
//     steps, macro expansions) checked cheaply from the hot loops;
//   - Protect / Pool: panic isolation for one pipeline stage and a bounded
//     worker pool with per-item fault isolation for batch runs.
//
// The invariant the package enforces: every input yields either a result or
// a Diagnostic, within a bounded time and memory budget.
package guard

import (
	"errors"
	"fmt"
	"runtime/debug"

	"pallas/internal/failpoint"
)

// Stage names the pipeline stage a diagnostic originated in.
type Stage string

// The pipeline stages, in execution order.
const (
	StagePreprocess Stage = "preprocess"
	StageParse      Stage = "parse"
	StageSpec       Stage = "spec"
	StageExtract    Stage = "extract"
	StageCheck      Stage = "check"
	StageBatch      Stage = "batch"
	// StageStore covers persistence: path-database saves/loads and the
	// checkpoint journal.
	StageStore Stage = "store"
	// StageServe covers request handling in the analysis server.
	StageServe Stage = "serve"
)

// Diagnostic is a structured record of a failure or degradation in one
// analysis unit. It is the "result" a unit produces when it cannot produce a
// report: batch runs collect diagnostics instead of dying, and degraded
// single-unit runs attach them next to their partial report.
type Diagnostic struct {
	// Stage is the pipeline stage that failed or degraded.
	Stage Stage `json:"stage"`
	// Unit names the analysis unit (file or corpus case).
	Unit string `json:"unit"`
	// Err is the failure rendered as text.
	Err string `json:"error"`
	// Partial reports whether partial results were still produced (degraded
	// analysis) as opposed to the unit being dropped entirely.
	Partial bool `json:"partial,omitempty"`
}

// String renders the diagnostic in compiler style.
func (d Diagnostic) String() string {
	kind := "error"
	if d.Partial {
		kind = "degraded"
	}
	return fmt.Sprintf("%s: %s[%s]: %s", d.Unit, kind, d.Stage, d.Err)
}

// Error implements the error interface with the same one-line rendering as
// String, so a Diagnostic can travel as an error value and callers printing
// either form get the readable "unit: kind[stage]: message" line instead of
// a struct dump.
func (d Diagnostic) Error() string { return d.String() }

// Diag builds a diagnostic from an error.
func Diag(stage Stage, unit string, err error, partial bool) Diagnostic {
	return Diagnostic{Stage: stage, Unit: unit, Err: err.Error(), Partial: partial}
}

// PanicError is a recovered panic converted into an ordinary error, carrying
// the stage and unit it happened in plus the goroutine stack at panic time.
type PanicError struct {
	Stage Stage
	Unit  string
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s of %s: %v", e.Stage, e.Unit, e.Value)
}

// Transient classifies an analysis failure for retry: recovered panics,
// budget violations and injected failpoint faults are worth another
// attempt; malformed input is deterministic and is not.
func Transient(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) || IsBudget(err) || errors.Is(err, failpoint.ErrInjected)
}

// Protect runs fn and converts a panic into a *PanicError, so a crash in any
// pipeline stage (lexer, preprocessor, parser, CFG, paths, checkers) becomes
// a structured per-unit failure instead of killing the process.
func Protect(stage Stage, unit string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Stage: stage, Unit: unit, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
