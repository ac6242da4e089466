package main

// The traced run: spans recorded around every layer call the benchmark
// makes, kept in memory and written out when the run ends. Layer self time
// is a span's duration minus the part of it its child spans cover.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pallas"
	"pallas/internal/cfg"
	"pallas/internal/checkers"
	"pallas/internal/cparse"
	"pallas/internal/cpp"
	"pallas/internal/feas"
	"pallas/internal/guard"
	"pallas/internal/pathdb"
	"pallas/internal/paths"
	"pallas/internal/report"
	"pallas/internal/spec"
)

// span is one timed layer call. Spans of one verdict share Verdict.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // 0: a verdict's root
	Verdict int64  `json:"verdict"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's epoch
	End     int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans written out; self times are aggregated
// over every span regardless.
const maxKeptSpans = 200000

// tracer aggregates per-layer self time across verdicts.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextV  int64
	self   map[string]time.Duration // span name → summed self time
	kept   []span
	nspans int64
	counts map[string]float64 // layer counters, summed over traced units
	units  int                // units traced
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: map[string]time.Duration{}, counts: map[string]float64{}}
}

// verdictRec records the spans of one verdict; safe for concurrent use by
// the goroutines working on that verdict.
type verdictRec struct {
	t     *tracer
	id    int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin() *verdictRec {
	t.mu.Lock()
	t.nextV++
	id := t.nextV
	t.mu.Unlock()
	return &verdictRec{t: t, id: id}
}

// start opens a span under parent (0 for the verdict root) and returns its
// ID.
func (v *verdictRec) start(name string, parent int32) int32 {
	now := time.Since(v.t.epoch).Nanoseconds()
	v.mu.Lock()
	id := int32(len(v.spans) + 1)
	v.spans = append(v.spans, span{ID: id, Parent: parent, Verdict: v.id, Name: name, Start: now})
	v.mu.Unlock()
	return id
}

func (v *verdictRec) end(id int32) {
	now := time.Since(v.t.epoch).Nanoseconds()
	v.mu.Lock()
	v.spans[id-1].End = now
	v.mu.Unlock()
}

// finish folds the verdict's spans into the tracer's self-time totals.
func (v *verdictRec) finish() {
	self := selfTimes(v.spans)
	t := v.t
	t.mu.Lock()
	for name, d := range self {
		t.self[name] += d
	}
	t.nspans += int64(len(v.spans))
	if room := maxKeptSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, v.spans[:min(room, len(v.spans))]...)
	}
	t.mu.Unlock()
}

// count adds layer counters for one traced unit.
func (t *tracer) count(c map[string]float64) {
	t.mu.Lock()
	for k, x := range c {
		t.counts[k] += x
	}
	t.units++
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed span durations minus the
// union of each span's children's intervals (children may overlap when a
// verdict fans out).
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		cur0, cur1 := int64(-1), int64(-1)
		for _, k := range ks {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = a, b
			} else if b > cur1 {
				cur1 = b
			}
		}
		covered += cur1 - cur0
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfMSPerUnit returns a span name's mean self time per traced unit.
func (t *tracer) selfMSPerUnit(name string) float64 {
	if t.units == 0 {
		return 0
	}
	return ms(t.self[name]) / float64(t.units)
}

// perUnit returns a counter's mean per traced unit.
func (t *tracer) perUnit(name string) float64 {
	if t.units == 0 {
		return 0
	}
	return t.counts[name] / float64(t.units)
}

// write stores the kept spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    int64  `json:"spans_recorded"`
		Kept     []span `json:"spans"`
	}{workload, seed, t.nspans, t.kept})
	if err != nil {
		return "", err
	}
	return p, os.WriteFile(p, b, 0o644)
}

// unitOutput is what one analyzed unit produced: its report, the report
// JSON, its path database and, once serialized, the path database JSON.
type unitOutput struct {
	rep    *report.Report
	repJS  []byte
	db     *pathdb.DB
	pathJS []byte
}

// encodeResult serializes an AnalyzeSource result the way a verdict does:
// always the report, the path database only with withPaths.
func encodeResult(res *pallas.Result, withPaths bool) (unitOutput, error) {
	out := unitOutput{rep: res.Report, db: res.Paths}
	var rb bytes.Buffer
	if err := res.Report.WriteJSON(&rb); err != nil {
		return out, err
	}
	out.repJS = rb.Bytes()
	if withPaths {
		var err error
		out.pathJS, err = pathJSON(res.Paths)
		return out, err
	}
	return out, nil
}

// pathJSON serializes a path database as pathdb.DB.Write does.
func pathJSON(db *pathdb.DB) ([]byte, error) {
	var b bytes.Buffer
	err := db.Write(&b)
	return b.Bytes(), err
}

// decomposed is AnalyzeSource for the benchmark's configurations (no
// includes, defines, budgets, checker subset or memo) taken apart into the
// layer calls it makes, each under its own span:
//
//	cpp.New().MergeText, cparse.Parse, spec.Parse/FromAnnotations/Merge,
//	checkers.NewContext (cfg + paths + feas), one checkers.Run per checker,
//	pathdb.New/Put + JSON, Report.WriteJSON.
//
// front runs the first five under parent, encode the path database build
// and the report JSON; the caller serializes the path database.
type decomposed struct {
	name, src, specText string
	precision           feas.Tier
	workers             int

	merged string
	rep    *report.Report
	ctx    *checkers.Context
	diags  []guard.Diagnostic
}

func (d *decomposed) front(v *verdictRec, parent int32) error {
	budget := guard.NewBudget(nil, guard.Limits{})
	s := v.start("cpp", parent)
	pp := cpp.New(nil)
	pp.Budget = budget
	merged, err := pp.MergeText(d.name, d.src)
	v.end(s)
	if err != nil {
		return fmt.Errorf("preprocess %s: %w", d.name, err)
	}
	d.merged = merged

	s = v.start("cparse", parent)
	tu, err := cparse.Parse(d.name, merged)
	v.end(s)
	if err != nil {
		return fmt.Errorf("parse %s: %w", d.name, err)
	}

	s = v.start("spec", parent)
	sp, err := spec.Parse(d.specText)
	if err == nil {
		var anno *spec.Spec
		if anno, err = spec.FromAnnotations(tu); err == nil && anno != nil {
			sp.Merge(anno)
		}
	}
	v.end(s)
	if err != nil {
		return fmt.Errorf("spec %s: %w", d.name, err)
	}

	s = v.start("paths", parent)
	ctx, err := checkers.NewContext(tu, sp, paths.Config{
		MaxPaths: 512, MaxBlockVisits: 2, InlineDepth: 2,
		Budget: budget, Workers: d.workers, Precision: d.precision,
	})
	v.end(s)
	if err != nil {
		return fmt.Errorf("extract %s: %w", d.name, err)
	}
	d.ctx = ctx

	// checkers.Run over all five sorts the concatenation of each checker's
	// findings (in checker order) stably; concatenating per-checker runs in
	// the same order and sorting stably again yields the same report.
	rep := &report.Report{Target: ctx.File}
	for _, c := range checkers.All() {
		s = v.start("checkers."+c.Name(), parent)
		r := checkers.Run(ctx, c)
		v.end(s)
		rep.Add(r.Warnings...)
		rep.Degraded = rep.Degraded || r.Degraded
		rep.PathsPruned = r.PathsPruned
	}
	rep.Sort()
	d.diags = append(d.diags, ctx.Diagnostics...)
	if err := budget.Err(); err != nil {
		d.diags = append(d.diags, guard.Diag(guard.StageExtract, tu.File, err, true))
	}
	if len(d.diags) > 0 {
		rep.Degraded = true
	}
	d.rep = rep
	return nil
}

// encode builds the path database and serializes the report.
func (d *decomposed) encode(v *verdictRec, parent int32) (unitOutput, error) {
	s := v.start("pathdb", parent)
	db := pathdb.New(d.ctx.File)
	names := make([]string, 0, len(d.ctx.FuncPaths))
	for fn := range d.ctx.FuncPaths {
		names = append(names, fn)
	}
	sort.Strings(names)
	for _, fn := range names {
		db.Put(d.ctx.FuncPaths[fn])
	}
	for _, dg := range d.diags {
		db.AddDiagnostic(dg)
	}
	out := unitOutput{rep: d.rep, db: db}
	v.end(s)
	s = v.start("report", parent)
	var rb bytes.Buffer
	err := d.rep.WriteJSON(&rb)
	out.repJS = rb.Bytes()
	v.end(s)
	return out, err
}

// counters returns the layer counts of one decomposed unit. The cfg counts
// come from building each analyzed function's graph again, outside any
// span.
func (d *decomposed) counters(out unitOutput) map[string]float64 {
	c := map[string]float64{
		"cpp.bytes_out":       float64(len(d.merged)),
		"cparse.funcs":        float64(len(d.ctx.TU.Funcs())),
		"feas.pruned":         float64(d.rep.PathsPruned),
		"checkers.warnings":   float64(len(d.rep.Warnings)),
		"pathdb.bytes":        float64(len(out.pathJS)),
		"report.bytes":        float64(len(out.repJS)),
		"feas.contradictions": float64(d.ctx.Extractor.FeasStats().Contradictions),
	}
	for fn, fp := range d.ctx.FuncPaths {
		c["paths.paths"] += float64(len(fp.Paths))
		if fp.Truncated {
			c["paths.truncated_funcs"]++
		}
		if g, err := cfg.Build(d.ctx.TU.Func(fn)); err == nil {
			c["cfg.blocks"] += float64(len(g.Blocks))
			c["cfg.edges"] += float64(g.NumEdges())
		}
	}
	return c
}

// decompChecker compares, once per unit ID, the decomposed pipeline's bytes
// with AnalyzeSource's.
type decompChecker struct {
	mu       sync.Mutex
	a        *pallas.Analyzer
	checked  map[string]bool
	mismatch []string
}

func newDecompChecker(a *pallas.Analyzer) *decompChecker {
	return &decompChecker{a: a, checked: map[string]bool{}}
}

func (dc *decompChecker) check(u *unit, got unitOutput) {
	dc.mu.Lock()
	done := dc.checked[u.ID]
	dc.checked[u.ID] = true
	dc.mu.Unlock()
	if done {
		return
	}
	res, err := dc.a.AnalyzeSource(u.Name, u.Source, u.Spec)
	var want unitOutput
	if err == nil {
		want, err = encodeResult(res, true)
	}
	var why string
	switch {
	case err != nil:
		why = "AnalyzeSource: " + err.Error()
	case !bytes.Equal(want.repJS, got.repJS):
		why = "report JSON differs"
	case !bytes.Equal(want.pathJS, got.pathJS):
		why = "pathdb JSON differs"
	default:
		return
	}
	dc.mu.Lock()
	dc.mismatch = append(dc.mismatch, u.ID+": "+why)
	dc.mu.Unlock()
}

func (dc *decompChecker) units() int {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return len(dc.checked)
}

func (dc *decompChecker) mismatches() []string {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return append([]string(nil), dc.mismatch...)
}
