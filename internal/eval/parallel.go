package eval

import (
	"fmt"

	"pallas/internal/checkers"
	"pallas/internal/corpus"
	"pallas/internal/guard"
	"pallas/internal/report"
)

// RunTable1Parallel analyzes the full corpus with all five checkers, fanned
// out over a pool of workers. Results are folded in case order, so the
// aggregate is identical at any worker count; a crash in one case surfaces
// as that case's error instead of taking the whole run down.
func RunTable1Parallel(workers int) (*Table1Result, error) {
	reg := corpus.Generate()
	reps := make([]*report.Report, len(reg.Cases))
	errs := guard.Pool(len(reg.Cases), workers, func(i int) error {
		c := reg.Cases[i]
		var err error
		reps[i], err = analyzeCase(c.File, c.Source, c.Spec)
		return err
	})

	res := &Table1Result{
		Cells:       map[string]map[corpus.System]*Table1Cell{},
		RowBugs:     map[string]int{},
		RowWarnings: map[string]int{},
	}
	for _, f := range report.AllFindings() {
		res.Cells[f] = map[corpus.System]*Table1Cell{}
		for _, s := range corpus.Systems() {
			res.Cells[f][s] = &Table1Cell{}
		}
	}
	for i, c := range reg.Cases {
		if errs[i] != nil {
			return nil, fmt.Errorf("case %s: %w", c.ID, errs[i])
		}
		res.CasesRun++
		fired := false
		for _, w := range reps[i].Warnings {
			cell := res.Cells[w.Finding][c.System]
			cell.Warnings++
			res.RowWarnings[w.Finding]++
			res.TotalWarnings++
			if w.Finding == c.Finding {
				fired = true
				if c.Kind == corpus.Bug {
					cell.Bugs++
					res.RowBugs[w.Finding]++
					res.TotalBugs++
				}
			}
		}
		if !fired {
			res.Missed = append(res.Missed, c.ID)
		}
	}
	return res, nil
}

// AblationResult measures each checker's contribution to Table 1.
type AblationResult struct {
	// Rows maps checker name → bugs found by that checker alone over the
	// full corpus.
	Rows []AblationRow
}

// AblationRow is one checker's solo contribution.
type AblationRow struct {
	Checker  string
	Bugs     int
	Warnings int
}

// RunAblation reruns the corpus once per checker, each time with only that
// checker enabled — the per-tool decomposition of the 155-bug total.
func RunAblation() (*AblationResult, error) {
	reg := corpus.Generate()
	res := &AblationResult{}
	for _, c := range checkers.All() {
		row := AblationRow{Checker: c.Name()}
		for _, cs := range reg.Cases {
			rep, err := analyzeOneChecker(cs.File, cs.Source, cs.Spec, c)
			if err != nil {
				return nil, fmt.Errorf("case %s: %w", cs.ID, err)
			}
			row.Warnings += len(rep.Warnings)
			for _, w := range rep.Warnings {
				if w.Finding == cs.Finding && cs.Kind == corpus.Bug {
					row.Bugs++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the ablation table.
func (a *AblationResult) Render() string {
	out := "checker ablation — solo contribution over the full corpus\n"
	totalB, totalW := 0, 0
	for _, r := range a.Rows {
		out += fmt.Sprintf("  %-20s %3d bugs  %3d warnings\n", r.Checker, r.Bugs, r.Warnings)
		totalB += r.Bugs
		totalW += r.Warnings
	}
	out += fmt.Sprintf("  %-20s %3d bugs  %3d warnings (checkers are disjoint by construction)\n",
		"sum", totalB, totalW)
	return out
}
