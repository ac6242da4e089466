package main

// Known answers. Every expected verdict comes from the corpus package's
// own declarations, never from running the analyzer: each template's Buggy
// and Clean variant, the seeded-defect lists of the BigFiles, and each
// feasibility trap's MinTier. A padded or edited unit keeps its template's
// answer.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pallas/internal/corpus"
	"pallas/internal/feas"
	"pallas/internal/report"
)

// deepPrecision is the feasibility tier deep-units runs at.
const deepPrecision = "strict"

// templateWant: a template's Buggy variant warns once, its Clean variant
// never.
func templateWant(finding string, buggy bool) []string {
	if !buggy {
		return nil
	}
	return []string{finding}
}

// feasWant: a feasibility trap warns below its MinTier and is silenced from
// MinTier upward.
func feasWant(fc corpus.FeasCase, precision string) []string {
	tier, err := feas.ParseTier(precision)
	if err != nil {
		panic(err)
	}
	min, err := feas.ParseTier(fc.MinTier)
	if err != nil {
		panic(err)
	}
	if tier >= min {
		return nil
	}
	return []string{fc.Finding}
}

// bigFileWant lists each BigFile's seeded defects (the "BUG (seeded, rule
// X)" markers in internal/corpus/bigfile*.go).
var bigFileWant = map[string][]string{
	"mm":  sortedWant(report.FindStateOverwrite, report.FindDSStale),
	"net": sortedWant(report.FindCondIncomplete, report.FindOutMismatch),
	"fs":  sortedWant(report.FindOutUnchecked, report.FindFaultMissing, report.FindOutMismatch),
	"dev": sortedWant(report.FindFaultMissing, report.FindFaultMissing, report.FindDSLayout, report.FindDSLayout),
	"wb":  sortedWant(report.FindOutMismatch, report.FindDSLayout, report.FindDSLayout),
	"sdn": sortedWant(report.FindCondOrder, report.FindCondIncomplete),
	"mob": sortedWant(report.FindStateOverwrite, report.FindStateCorrelated),
}

// gotFindings returns a report's warning findings as a sorted multiset.
func gotFindings(r *report.Report) []string {
	out := make([]string, 0, len(r.Warnings))
	for _, w := range r.Warnings {
		out = append(out, w.Finding)
	}
	sort.Strings(out)
	return out
}

// verdictOK reports whether a report matches its unit's known answer: not
// degraded, and exactly the expected findings.
func verdictOK(u *unit, r *report.Report) bool {
	if r == nil || r.Degraded {
		return false
	}
	got := gotFindings(r)
	if len(got) != len(u.Want) {
		return false
	}
	for i := range got {
		if got[i] != u.Want[i] {
			return false
		}
	}
	return true
}

// disagreements collects units whose verdict differed from the known
// answer, by ID, for the listing printed before the result line.
// Safe for concurrent use.
type disagreements struct {
	mu   sync.Mutex
	seen map[string]string
}

func (d *disagreements) add(u *unit, r *report.Report, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = map[string]string{}
	}
	if _, dup := d.seen[u.ID]; dup {
		return
	}
	switch {
	case err != nil:
		d.seen[u.ID] = "error: " + err.Error()
	case r == nil:
		d.seen[u.ID] = "no report"
	default:
		d.seen[u.ID] = fmt.Sprintf("want [%s] got [%s] degraded=%v",
			strings.Join(u.Want, " "), strings.Join(gotFindings(r), " "), r.Degraded)
	}
}

// lines renders the disagreements sorted by unit ID.
func (d *disagreements) lines() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.seen))
	for id := range d.seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("disagree %s: %s", id, d.seen[id])
	}
	return out
}
