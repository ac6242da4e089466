package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// layerMetric names one per-layer metric and its unit. Span-derived times
// are mean self time per unit (a serve-edits unit is one request); counts
// on deep-units are means per unit, on serve-edits exact
// counts per script pass. A layer a workload bypasses reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"cpp.ms", "ms/unit"},
	{"cpp.bytes_out", "B/unit"},
	{"cparse.ms", "ms/unit"},
	{"cparse.funcs", "count/unit"},
	{"spec.ms", "ms/unit"},
	{"paths.extract_ms", "ms/unit"},
	{"paths.paths", "count/unit"},
	{"paths.truncated_funcs", "count/unit"},
	{"cfg.blocks", "count/unit"},
	{"cfg.edges", "count/unit"},
	{"feas.pruned", "count/unit"},
	{"feas.contradictions", "count/unit"},
	{"feas.pruned_ratio", "ratio"},
	{"checkers.path-state_ms", "ms/unit"},
	{"checkers.trigger-condition_ms", "ms/unit"},
	{"checkers.path-output_ms", "ms/unit"},
	{"checkers.fault-handling_ms", "ms/unit"},
	{"checkers.data-struct_ms", "ms/unit"},
	{"checkers.warnings", "count/unit"},
	{"pathdb.encode_ms", "ms/unit"},
	{"pathdb.bytes", "B/unit"},
	{"report.encode_ms", "ms/unit"},
	{"report.bytes", "B/unit"},
	{"rcache.hits", "count/pass"},
	{"rcache.misses", "count/pass"},
	{"rcache.hit_ratio", "ratio"},
	{"rcache.evictions", "count/pass"},
	{"rcache.bytes", "B"},
	{"incr.graph_ms", "ms/unit"},
	{"incr.func_hits", "count/pass"},
	{"incr.func_misses", "count/pass"},
	{"incr.unit_hits", "count/pass"},
	{"incr.unit_misses", "count/pass"},
	{"incr.func_reuse_ratio", "ratio"},
	{"server.handler_ms", "ms/unit"},
	{"server.transport_ms", "ms/unit"},
	{"server.shed", "count/pass"},
	{"go.gc_cycles", "per_1k_units"},
	{"go.gc_pause_ms", "ms/1k_units"},
	{"go.alloc_bytes_per_unit", "B/unit"},
	{"trace.overhead_pct", "%"},
	{"trace.decomposed_units", "count"},
}

// spanMetrics maps span names to the per-unit self-time metrics.
var spanMetrics = map[string]string{
	"cpp":                        "cpp.ms",
	"cparse":                     "cparse.ms",
	"spec":                       "spec.ms",
	"paths":                      "paths.extract_ms",
	"checkers.path-state":        "checkers.path-state_ms",
	"checkers.trigger-condition": "checkers.trigger-condition_ms",
	"checkers.path-output":       "checkers.path-output_ms",
	"checkers.fault-handling":    "checkers.fault-handling_ms",
	"checkers.data-struct":       "checkers.data-struct_ms",
	"pathdb":                     "pathdb.encode_ms",
	"report":                     "report.encode_ms",
}

// counterMetrics are the per-unit counters the decomposed pipeline records.
var counterMetrics = []string{
	"cpp.bytes_out", "cparse.funcs", "paths.paths", "paths.truncated_funcs",
	"cfg.blocks", "cfg.edges", "feas.pruned", "feas.contradictions",
	"checkers.warnings", "pathdb.bytes", "report.bytes",
}

// tracedRun sets the workload up once, measures half of d untraced (the
// baseline for the tracing overhead and the Go runtime counters), then half
// of d traced.
func tracedRun(workload string, seed int64, d time.Duration, traceDir string) (result, error) {
	b, err := newBench(workload)
	if err != nil {
		return result{}, err
	}
	if err := setup(b, seed); err != nil {
		return result{}, err
	}
	defer b.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := &window{}
	b.measure(d/2, plain, nil)
	runtime.ReadMemStats(&m1)

	tr := newTracer()
	traced := &window{}
	b.measure(d/2, traced, tr)

	m := map[string]float64{}
	for span, name := range spanMetrics {
		m[name] = tr.selfMSPerUnit(span)
	}
	for _, c := range counterMetrics {
		m[c] = tr.perUnit(c)
	}
	if p := m["paths.paths"] + m["feas.pruned"]; p > 0 {
		m["feas.pruned_ratio"] = m["feas.pruned"] / p
	}
	b.layers(m, tr)
	kunits := float64(plain.attempted) / 1000
	m["go.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / kunits
	m["go.gc_pause_ms"] = ms(time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)) / kunits
	m["go.alloc_bytes_per_unit"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(plain.attempted)
	// Overhead compares mean verdict latency: the traced stretch also runs
	// untimed probes and the decomposition check between verdicts.
	meanMS := func(w *window) float64 {
		var sum time.Duration
		for _, d := range w.lat {
			sum += d
		}
		return ms(sum) / float64(len(w.lat))
	}
	m["trace.overhead_pct"] = 100 * (meanMS(traced)/meanMS(plain) - 1)

	var fails []string
	if dc := decompCheckerOf(b); dc != nil {
		m["trace.decomposed_units"] = float64(dc.units())
		fmt.Printf("decomposition check: %d units traced, %d byte-identical to AnalyzeSource\n", dc.units(), dc.units()-len(dc.mismatches()))
	}
	fails = append(fails, b.failures()...)

	printHeader(workload, seed, b)
	fmt.Printf("untraced: %d verdicts, mean %.3f ms; traced: %d verdicts, mean %.3f ms\n",
		plain.attempted, meanMS(plain), traced.attempted, meanMS(traced))
	if p, err := tr.write(traceDir, workload, seed); err != nil {
		fmt.Println("spans not written:", err)
	} else {
		fmt.Printf("spans: %d recorded, %d written to %s\n", tr.nspans, len(tr.kept), p)
	}
	for _, name := range sortedSpanNames(tr) {
		fmt.Printf("self %-28s %10.4f ms/unit\n", name, tr.selfMSPerUnit(name))
	}

	both := &window{attempted: plain.attempted + traced.attempted, ok: plain.ok + traced.ok}
	res := finish(b, both, fails)
	res.Metrics = map[string]metric{}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return res, nil
}

func decompCheckerOf(b bench) *decompChecker {
	if x, ok := b.(*deepBench); ok {
		return x.dc
	}
	return nil
}

func sortedSpanNames(tr *tracer) []string {
	names := make([]string, 0, len(tr.self))
	for n := range tr.self {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
