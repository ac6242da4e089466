// Package eval drives the paper's experiments: it reruns the five checkers
// over the corpus and regenerates every table and figure of the evaluation
// (Tables 1-8, Figures 1-9). cmd/pallas-eval prints the results; the root
// bench_test.go measures them.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"pallas/internal/checkers"
	"pallas/internal/corpus"
	"pallas/internal/cparse"
	"pallas/internal/inject"
	"pallas/internal/paths"
	"pallas/internal/report"
	"pallas/internal/spec"
	"pallas/internal/study"
)

// analyzeCase runs the full pipeline over one corpus case source.
func analyzeCase(file, source, specText string) (*report.Report, error) {
	tu, err := cparse.Parse(file, source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", file, err)
	}
	sp, err := spec.Parse(specText)
	if err != nil {
		return nil, fmt.Errorf("%s: spec: %w", file, err)
	}
	ctx, err := checkers.NewContext(tu, sp, paths.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return checkers.Run(ctx), nil
}

// analyzeOneChecker runs the pipeline with a single checker enabled.
func analyzeOneChecker(file, source, specText string, c checkers.Checker) (*report.Report, error) {
	tu, err := cparse.Parse(file, source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", file, err)
	}
	sp, err := spec.Parse(specText)
	if err != nil {
		return nil, fmt.Errorf("%s: spec: %w", file, err)
	}
	ctx, err := checkers.NewContext(tu, sp, paths.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return checkers.Run(ctx, c), nil
}

// ---------------------------------------------------------------------------
// Table 1 — detection across systems and finding types
// ---------------------------------------------------------------------------

// Table1Cell tallies one (finding, system) cell.
type Table1Cell struct {
	Bugs     int // validated bugs detected
	Warnings int // total warnings (bugs + false positives)
}

// Table1Result is the measured Table 1.
type Table1Result struct {
	// Cells maps finding → system → tally.
	Cells map[string]map[corpus.System]*Table1Cell
	// RowBugs / RowWarnings aggregate per finding.
	RowBugs, RowWarnings map[string]int
	// TotalBugs / TotalWarnings aggregate everything.
	TotalBugs, TotalWarnings int
	// Missed lists cases whose expected warning did not fire (must be empty).
	Missed []string
	// CasesRun counts analyzed fast-path cases.
	CasesRun int
}

// Accuracy is validated bugs over warnings (the paper reports 69%).
func (t *Table1Result) Accuracy() float64 {
	if t.TotalWarnings == 0 {
		return 0
	}
	return float64(t.TotalBugs) / float64(t.TotalWarnings)
}

// RunTable1 analyzes the full corpus with all five checkers, one case at a
// time.
func RunTable1() (*Table1Result, error) { return RunTable1Parallel(1) }

// Render prints the measured Table 1 next to the published values.
func (t *Table1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1 — fast-path bugs detected by PALLAS (measured)\n")
	fmt.Fprintf(&sb, "%-52s %4s %4s %4s %4s %4s %4s %4s  %s\n",
		"Bug Finding", "MM", "FS", "NET", "DEV", "WB", "SDN", "MOB", "B/W")
	published := map[string]corpus.Table1Row{}
	for _, row := range corpus.Table1() {
		published[row.Finding] = row
	}
	for _, f := range report.AllFindings() {
		fmt.Fprintf(&sb, "%-52s", report.FindingTitle(f))
		for _, s := range corpus.Systems() {
			fmt.Fprintf(&sb, " %4d", t.Cells[f][s].Bugs)
		}
		pub := published[f]
		fmt.Fprintf(&sb, "  %d/%d (paper %d/%d)\n",
			t.RowBugs[f], t.RowWarnings[f], pub.TotalBugs(), pub.Warnings)
	}
	fmt.Fprintf(&sb, "%-52s", "Total")
	for _, s := range corpus.Systems() {
		n := 0
		for _, f := range report.AllFindings() {
			n += t.Cells[f][s].Bugs
		}
		fmt.Fprintf(&sb, " %4d", n)
	}
	fmt.Fprintf(&sb, "  %d/%d\n", t.TotalBugs, t.TotalWarnings)
	fmt.Fprintf(&sb, "accuracy: %.0f%% (%d validated bugs / %d warnings; paper: 69%%, 155/224)\n",
		t.Accuracy()*100, t.TotalBugs, t.TotalWarnings)
	if len(t.Missed) > 0 {
		fmt.Fprintf(&sb, "MISSED CASES (%d): %s\n", len(t.Missed), strings.Join(t.Missed, ", "))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Tables 2-4 — the characterization study
// ---------------------------------------------------------------------------

// RenderTable2 computes and renders Table 2 from the study dataset.
func RenderTable2() string {
	rows := study.Table2(study.Dataset())
	var sb strings.Builder
	sb.WriteString("Table 2 — fast path is buggy (measured from the study dataset)\n")
	fmt.Fprintf(&sb, "%-30s", "")
	for _, r := range rows {
		fmt.Fprintf(&sb, " %5s", r.Subsystem)
	}
	sb.WriteString("\n")
	line := func(name string, get func(study.Table2Row) int) {
		fmt.Fprintf(&sb, "%-30s", name)
		for _, r := range rows {
			fmt.Fprintf(&sb, " %5d", get(r))
		}
		sb.WriteString("\n")
	}
	line("Num. of fast paths", func(r study.Table2Row) int { return r.NumPaths })
	line("Num. of bug-fix patches", func(r study.Table2Row) int { return r.NumPatches })
	line("Num. of bugs per path (avg.)", func(r study.Table2Row) int { return r.BugsPerAvg })
	line("Num. of bugs per path (max)", func(r study.Table2Row) int { return r.BugsPerMax })
	line("Fix time (days on average)", func(r study.Table2Row) int { return r.FixDaysAvg })
	return sb.String()
}

// RenderTable3 computes and renders Table 3.
func RenderTable3() string {
	t3 := study.Table3(study.Dataset())
	var sb strings.Builder
	sb.WriteString("Table 3 — distribution of fast-path bugs (measured)\n")
	fmt.Fprintf(&sb, "%-16s", "")
	for _, sub := range study.Subsystems() {
		fmt.Fprintf(&sb, " %10s", sub)
	}
	sb.WriteString("\n")
	names := map[report.Aspect]string{
		report.PathState: "Path state", report.TriggerCondition: "Conditions",
		report.PathOutput: "Path output", report.FaultHandling: "Fault handling",
		report.DataStructure: "Data structures",
	}
	for _, a := range report.Aspects() {
		fmt.Fprintf(&sb, "%-16s", names[a])
		for _, sub := range study.Subsystems() {
			cell := t3[sub][a]
			fmt.Fprintf(&sb, " %3d (%2.0f%%)", cell.Count, cell.Ratio*100)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-16s", "Total bugs")
	for _, sub := range study.Subsystems() {
		n := 0
		for _, a := range report.Aspects() {
			n += t3[sub][a].Count
		}
		fmt.Fprintf(&sb, " %9d", n)
	}
	sb.WriteString("\n")
	return sb.String()
}

// RenderTable4 computes and renders Table 4.
func RenderTable4() string {
	t4 := study.Table4(study.Dataset())
	var sb strings.Builder
	sb.WriteString("Table 4 — consequences of fast-path bugs (measured)\n")
	fmt.Fprintf(&sb, "%-26s", "Consequence")
	for _, a := range report.Aspects() {
		fmt.Fprintf(&sb, " %-12s", shortAspect(a))
	}
	sb.WriteString("\n")
	for _, cons := range study.Consequences() {
		fmt.Fprintf(&sb, "%-26s", cons)
		for _, a := range report.Aspects() {
			cell := t4[a][cons]
			fmt.Fprintf(&sb, " %3d (%2.0f%%)  ", cell.Count, cell.Ratio*100)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func shortAspect(a report.Aspect) string {
	switch a {
	case report.PathState:
		return "PathState"
	case report.TriggerCondition:
		return "TrigCond"
	case report.PathOutput:
		return "PathOut"
	case report.FaultHandling:
		return "FaultHdl"
	case report.DataStructure:
		return "DataStruct"
	}
	return a.String()
}

// ---------------------------------------------------------------------------
// Table 5 — symbolic extraction example
// ---------------------------------------------------------------------------

// RunTable5 extracts the paths of the Table-5 showcase function and renders
// one path in the paper's Input/Signature/Condition/State/Output layout.
func RunTable5() (string, error) {
	sc := corpus.ShowcaseByID("table5")
	tu, err := cparse.Parse("table5.c", sc.Source)
	if err != nil {
		return "", err
	}
	ex := paths.NewExtractor(tu, paths.DefaultConfig())
	fp, err := ex.Extract(sc.FastFunc)
	if err != nil {
		return "", err
	}
	sp, err := spec.Parse(sc.Spec)
	if err != nil {
		return "", err
	}
	// Pick the longest path (the one that enters the slow-path branch).
	var longest *paths.ExecPath
	for _, p := range fp.Paths {
		if longest == nil || len(p.States)+len(p.Conds) > len(longest.States)+len(longest.Conds) {
			longest = p
		}
	}
	var sb strings.Builder
	sb.WriteString("Table 5 — symbolic extraction of " + sc.FastFunc + " (measured)\n")
	sb.WriteString("Input\n")
	if len(sp.Immutables) > 0 {
		names := make([]string, len(sp.Immutables))
		for i, v := range sp.Immutables {
			names[i] = v.Name
		}
		fmt.Fprintf(&sb, "  @immutable = %s\n", strings.Join(names, ", "))
	}
	for i, cv := range sp.CondVars {
		fmt.Fprintf(&sb, "  @cond%d = %s\n", i, cv.Name)
	}
	fmt.Fprintf(&sb, "Signature\n  %s\n", fp.Signature)
	sb.WriteString("Condition\n")
	for _, c := range longest.Conds {
		fmt.Fprintf(&sb, "  L%-3d %s  [%s]\n", c.Line, c.Sym, c.Outcome)
	}
	sb.WriteString("State\n")
	for _, s := range longest.States {
		fmt.Fprintf(&sb, "  L%-3d %s = %s\n", s.Line, s.Target, s.Value)
	}
	sb.WriteString("Output\n")
	if longest.Out != nil && !longest.Out.Void {
		fmt.Fprintf(&sb, "  L%-3d %s\n", longest.Out.Line, longest.Out.Expr)
	}
	// And the verdict the path-state checker reaches on it.
	rep, err := analyzeCase("table5.c", sc.Source, sc.Spec)
	if err != nil {
		return "", err
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(&sb, "checker verdict: %s\n", w.String())
	}
	return sb.String(), nil
}

// ---------------------------------------------------------------------------
// Table 6 — software inventory
// ---------------------------------------------------------------------------

// RenderTable6 prints the evaluated-software inventory.
func RenderTable6() string {
	var sb strings.Builder
	sb.WriteString("Table 6 — software systems evaluated\n")
	fmt.Fprintf(&sb, "%-26s %-8s %s\n", "Software", "Version", "Description")
	for _, info := range corpus.Inventory() {
		fmt.Fprintf(&sb, "%-26s %-8s %s\n", info.Software, info.Version, info.Description)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 7 — the 34 new bugs
// ---------------------------------------------------------------------------

// Table7Result lists the Table-7 cases and whether each was re-detected.
type Table7Result struct {
	Rows     []*corpus.Case
	Detected map[string]bool
	// MeanLatentYears is the average latent period over bugs with data.
	MeanLatentYears float64
}

// RunTable7 analyzes the 34 Table-7 cases.
func RunTable7() (*Table7Result, error) {
	reg := corpus.Generate()
	res := &Table7Result{Detected: map[string]bool{}}
	sum, n := 0.0, 0
	for _, c := range reg.Table7Cases() {
		res.Rows = append(res.Rows, c)
		r, err := analyzeCase(c.File, c.Source, c.Spec)
		if err != nil {
			return nil, err
		}
		for _, w := range r.Warnings {
			if w.Finding == c.Finding {
				res.Detected[c.ID] = true
			}
		}
		if c.LatentYears > 0 {
			sum += c.LatentYears
			n++
		}
	}
	if n > 0 {
		res.MeanLatentYears = sum / float64(n)
	}
	return res, nil
}

// Render prints the Table-7 listing.
func (t *Table7Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 7 — new bugs discovered by PALLAS (measured)\n")
	fmt.Fprintf(&sb, "%-4s %-42s %-46s %-14s %-7s %s\n",
		"Sys", "File", "Fast path operation", "Consequence", "Years", "Detected")
	for _, c := range t.Rows {
		years := "N/A"
		if c.LatentYears > 0 {
			years = fmt.Sprintf("%.1f", c.LatentYears)
		}
		det := "no"
		if t.Detected[c.ID] {
			det = "yes"
		}
		fmt.Fprintf(&sb, "%-4s %-42s %-46s %-14s %-7s %s\n",
			c.System, c.File, truncate(c.Operation, 46), c.Consequence, years, det)
	}
	fmt.Fprintf(&sb, "detected %d/%d; mean latent period %.1f years (paper: 3.1)\n",
		len(t.Detected), len(t.Rows), t.MeanLatentYears)
	return sb.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// ---------------------------------------------------------------------------
// Table 8 — completeness
// ---------------------------------------------------------------------------

// Table8Result aggregates the completeness experiment per cause.
type Table8Result struct {
	Rows []Table8MeasuredRow
	// Detected / Total overall.
	Detected, Total int
}

// Table8MeasuredRow is one measured Table-8 row.
type Table8MeasuredRow struct {
	Source   string
	Cause    string
	Detected int
	Total    int
	Expected int
}

// RunTable8 injects the 62 known bugs and measures re-detection.
func RunTable8() (*Table8Result, error) {
	injs := inject.Generate()
	byCause := map[string][]*inject.Injection{}
	for _, inj := range injs {
		byCause[inj.Cause] = append(byCause[inj.Cause], inj)
	}
	res := &Table8Result{}
	for _, plan := range inject.Plan() {
		row := Table8MeasuredRow{Source: plan.Source, Cause: plan.Cause,
			Total: plan.Total, Expected: plan.Expected}
		for _, inj := range byCause[plan.Cause] {
			r, err := analyzeCase(inj.ID+".c", inj.Source, inj.Spec)
			if err != nil {
				return nil, err
			}
			for _, w := range r.Warnings {
				if w.Finding == inj.Finding {
					row.Detected++
					break
				}
			}
		}
		res.Rows = append(res.Rows, row)
		res.Detected += row.Detected
		res.Total += row.Total
	}
	return res, nil
}

// Render prints the measured Table 8.
func (t *Table8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 8 — completeness of PALLAS (measured)\n")
	fmt.Fprintf(&sb, "%-26s %-38s %s\n", "Bug Source", "Bug Causes", "D/T")
	for _, r := range t.Rows {
		mark := ""
		if r.Detected < r.Total {
			mark = " *"
		}
		fmt.Fprintf(&sb, "%-26s %-38s %d/%d%s\n", r.Source, r.Cause, r.Detected, r.Total, mark)
	}
	fmt.Fprintf(&sb, "overall: %d/%d re-detected (paper: 61/62; * = semantic exception needing runtime data)\n",
		t.Detected, t.Total)
	return sb.String()
}

// ---------------------------------------------------------------------------
// §5.3 — false positives
// ---------------------------------------------------------------------------

// FPBreakdown tallies false positives per §5.3 source.
type FPBreakdown struct {
	BySource map[string]int
	Total    int
	Warnings int
}

// RunFP analyzes the trap cases and attributes each to its FP source.
func RunFP() (*FPBreakdown, error) {
	reg := corpus.Generate()
	res := &FPBreakdown{BySource: map[string]int{}}
	for _, c := range reg.Cases {
		r, err := analyzeCase(c.File, c.Source, c.Spec)
		if err != nil {
			return nil, err
		}
		res.Warnings += len(r.Warnings)
		if c.Kind == corpus.Trap && len(r.Warnings) > 0 {
			res.BySource[c.FPSource]++
			res.Total++
		}
	}
	return res, nil
}

// Render prints the FP breakdown.
func (f *FPBreakdown) Render() string {
	var sb strings.Builder
	sb.WriteString("§5.3 — false-positive sources (measured)\n")
	keys := make([]string, 0, len(f.BySource))
	for k := range f.BySource {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %3d  %s\n", f.BySource[k], k)
	}
	fmt.Fprintf(&sb, "total false positives: %d of %d warnings (%.0f%%; paper: 31%%)\n",
		f.Total, f.Warnings, float64(f.Total)/float64(f.Warnings)*100)
	return sb.String()
}
