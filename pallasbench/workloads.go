package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pallas"
	"pallas/internal/cparse"
	"pallas/internal/cpp"
	"pallas/internal/feas"
	"pallas/internal/incr"
	"pallas/internal/metrics"
	"pallas/internal/report"
	"pallas/internal/server"
)

// workers is the concurrency every workload uses: analysis workers, server
// workers and HTTP clients. The reference machine has two
// CPUs.
const workers = 2

// bench is one workload. generate builds the inputs from the seed; start
// builds the system under test and warms it up with one round of the
// workload (a fixed amount of work); measure runs whole rounds of verdicts
// for at least d, untraced when tr is nil.
type bench interface {
	generate(seed int64) error
	start() error
	inputHash() string
	measure(d time.Duration, w *window, tr *tracer)
	// layers adds the workload's own per-layer metrics (beyond the span
	// self times and per-unit counters) after a traced measure.
	layers(m map[string]float64, tr *tracer)
	// notes returns informational lines for the output.
	notes() []string
	// failures lists what made the run incorrect beyond verdict
	// disagreements (decomposition mismatches, count drift).
	failures() []string
	dis() *disagreements
	close()
}

// workloadNames lists the workloads in the order -steady runs them.
var workloadNames = []string{"deep-units", "serve-edits"}

func newBench(workload string) (bench, error) {
	switch workload {
	case "deep-units":
		return &deepBench{}, nil
	case "serve-edits":
		return &serveBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
}

// --- deep-units ------------------------------------------------------------

// deepBench analyzes each deep unit as its own verdict at precision strict
// with two analysis workers, then serializes its report. The path database
// is built but not serialized: at hundreds of paths per function its
// indented JSON would cost several times the analysis itself.
type deepBench struct {
	units []unit
	a     *pallas.Analyzer
	d     disagreements
	dc    *decompChecker
}

func (b *deepBench) generate(seed int64) error {
	b.units = deepUnits(seed)
	return nil
}

func (b *deepBench) start() error {
	b.a = pallas.New(pallas.Config{Precision: deepPrecision, AnalysisWorkers: workers})
	b.dc = newDecompChecker(b.a)
	for i := range b.units {
		out, _, err := b.run(&b.units[i])
		b.judge(&b.units[i], out, err)
	}
	return nil
}

func (b *deepBench) inputHash() string { return hashInputs(b.units) }

// run is one untraced verdict and its time.
func (b *deepBench) run(u *unit) (unitOutput, time.Duration, error) {
	t0 := time.Now()
	res, err := b.a.AnalyzeSource(u.Name, u.Source, u.Spec)
	var out unitOutput
	if err == nil {
		out, err = encodeResult(res, false)
	}
	return out, time.Since(t0), err
}

// runTraced is one traced verdict; its time excludes the counters and the
// decomposition check. The verdict builds the path database without
// serializing it; a probe after the verdict serializes it under its own
// "pathdb" span, so pathdb.encode_ms covers New/Put and the JSON and
// pathdb.bytes reads the JSON's size.
func (b *deepBench) runTraced(u *unit, tr *tracer) (unitOutput, time.Duration, error) {
	tier, _ := feas.ParseTier(deepPrecision)
	t0 := time.Now()
	v := tr.begin()
	root := v.start("verdict", 0)
	d := &decomposed{name: u.Name, src: u.Source, specText: u.Spec, precision: tier, workers: workers}
	err := d.front(v, root)
	var out unitOutput
	if err == nil {
		out, err = d.encode(v, root)
	}
	v.end(root)
	el := time.Since(t0)
	if err == nil {
		s := v.start("pathdb", 0)
		out.pathJS, err = pathJSON(out.db)
		v.end(s)
	}
	v.finish()
	if err == nil {
		tr.count(d.counters(out))
		b.dc.check(u, out)
	}
	return out, el, err
}

func (b *deepBench) judge(u *unit, out unitOutput, err error) bool {
	if err != nil || !verdictOK(u, out.rep) {
		b.d.add(u, out.rep, err)
		return false
	}
	return true
}

func (b *deepBench) measure(d time.Duration, w *window, tr *tracer) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		sw := w.startWatch()
		for i := range b.units {
			u := &b.units[i]
			var out unitOutput
			var err error
			var el time.Duration
			if tr == nil {
				out, el, err = b.run(u)
			} else {
				out, el, err = b.runTraced(u, tr)
			}
			w.verdict(el, b.judge(u, out, err))
		}
		sw.addTo(w)
	}
}

func (b *deepBench) layers(map[string]float64, *tracer) {}

func (b *deepBench) notes() []string {
	return []string{fmt.Sprintf("units per round: %d (AnalyzeSource, precision %s, %d analysis workers)", len(b.units), deepPrecision, workers)}
}

func (b *deepBench) failures() []string  { return b.dc.mismatches() }
func (b *deepBench) dis() *disagreements { return &b.d }
func (b *deepBench) close()              {}

// --- serve-edits -------------------------------------------------------------

// passCounts are one script pass's exact counts. Families never share a key,
// so they must repeat exactly from pass to pass and run to run.
type passCounts struct {
	kinds                     [5]int
	rcHits, rcMisses, rcEvict int64
	rcBytes                   int64
	funcHits, funcMisses      int64
	unitHits, unitMisses      int64
	shed                      int64
	handlerCount              int64
	handlerSum                float64 // seconds; not exact
	clientSum                 time.Duration
	reportBytes               int64              // traced probes
	lat                       [5][]time.Duration // verdict times by edit class
}

func (p passCounts) exact() string {
	return fmt.Sprintf("kinds=%v rcache=%d/%d/%d/%dB incr_func=%d/%d incr_unit=%d/%d shed=%d requests=%d",
		p.kinds, p.rcHits, p.rcMisses, p.rcEvict, p.rcBytes, p.funcHits, p.funcMisses, p.unitHits, p.unitMisses, p.shed, p.handlerCount)
}

// serveBench replays the edit script against an in-process server behind a
// loopback listener, two keep-alive clients in a closed loop. Every pass of
// the script starts from a fresh server (empty result cache and memo), so
// each pass does the same work.
type serveBench struct {
	fams   []family
	script []*request // every family's requests, interleaved round-robin
	famOf  []int      // script index → family index
	ts     *httptest.Server
	hc     *http.Client
	cur    atomic.Pointer[server.Server]
	d      disagreements

	mu     sync.Mutex
	passes []passCounts // every pass, warm-up included
	traced []passCounts // passes run traced
}

func (b *serveBench) generate(seed int64) error {
	b.fams = serveFamilies(seed)
	for step := 0; ; step++ {
		any := false
		for fi := range b.fams {
			f := &b.fams[fi]
			if step < len(f.reqs) {
				r := &f.reqs[step]
				body, err := json.Marshal(server.AnalyzeRequest{Name: r.Name, Source: r.Source, Spec: r.Spec})
				if err != nil {
					return err
				}
				r.Body = body
				b.script = append(b.script, r)
				b.famOf = append(b.famOf, fi)
				any = true
			}
		}
		if !any {
			break
		}
	}
	return nil
}

func (b *serveBench) start() error {
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.cur.Load().Handler().ServeHTTP(w, r)
	}))
	b.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}}
	// Warm-up: one whole pass.
	return b.pass(&window{}, nil)
}

func (b *serveBench) inputHash() string {
	var us []unit
	for _, f := range b.fams {
		for _, r := range f.reqs {
			u := r.unit
			u.ID += "#" + r.Kind
			us = append(us, u)
		}
	}
	return hashInputs(us)
}

// pass replays the whole script once against a fresh server.
func (b *serveBench) pass(w *window, tr *tracer) error {
	reg := metrics.NewRegistry()
	s, err := server.New(server.Config{
		Analyzer:   pallas.Config{Incremental: &pallas.IncrementalOptions{}},
		Workers:    workers,
		MinWorkers: workers, // fixed width: no adaptive narrowing
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	b.cur.Store(s)
	// The clients take the script's requests in order, whichever client is
	// free sending the next one, so neither idles while the other works
	// through a heavy family. A request waits until its family's previous
	// request has been answered: each family stays sequential, and so the
	// per-pass counts stay exact. Each client tallies its own requests; the
	// tallies merge below.
	var each [workers]passCounts
	var mu sync.Mutex
	freed := sync.NewCond(&mu)
	next := 0
	busy := make([]bool, len(b.fams))
	sw := w.startWatch()
	var wg sync.WaitGroup
	for c := range each {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(b.script) {
					mu.Unlock()
					return
				}
				i := next
				next++
				fi := b.famOf[i]
				for busy[fi] {
					freed.Wait()
				}
				busy[fi] = true
				mu.Unlock()
				b.do(b.script[i], w, tr, &each[c])
				mu.Lock()
				busy[fi] = false
				freed.Broadcast()
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sw.addTo(w)

	var pc passCounts
	for _, e := range each {
		for k := range pc.kinds {
			pc.kinds[k] += e.kinds[k]
		}
		pc.clientSum += e.clientSum
		pc.reportBytes += e.reportBytes
		for k := range pc.lat {
			pc.lat[k] = append(pc.lat[k], e.lat[k]...)
		}
	}

	cs := s.Cache().Stats()
	pc.rcHits, pc.rcMisses, pc.rcEvict, pc.rcBytes = cs.Hits, cs.Misses, cs.Evictions, cs.Bytes
	if is, ok := s.IncrStats(); ok {
		pc.funcHits, pc.funcMisses, pc.unitHits, pc.unitMisses = is.FuncHits, is.FuncMisses, is.UnitHits, is.UnitMisses
	}
	for _, name := range []string{server.MetricShedQueueFull, server.MetricShedDeadline, server.MetricShedRateLimited, server.MetricShedDraining} {
		pc.shed += reg.Counter(name, "").Value()
	}
	h := reg.Histogram(server.MetricRequestSeconds, "", nil)
	pc.handlerCount, pc.handlerSum = h.Count(), h.Sum()
	s.Close()
	b.mu.Lock()
	b.passes = append(b.passes, pc)
	if tr != nil {
		b.traced = append(b.traced, pc)
	}
	b.mu.Unlock()
	return nil
}

// do sends one request, judges the response and tallies it in pc.
func (b *serveBench) do(r *request, w *window, tr *tracer, pc *passCounts) {
	var v *verdictRec
	var root int32
	if tr != nil {
		v = tr.begin()
		root = v.start("verdict", 0)
	}
	t0 := time.Now()
	body, status, err := b.post(r.Body)
	el := time.Since(t0)
	if v != nil {
		v.end(root)
	}
	var ar server.AnalyzeResponse
	var rep *report.Report
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = json.Unmarshal(body, &ar)
	}
	if err == nil {
		rep = &report.Report{}
		err = json.Unmarshal(ar.Report, rep)
	}
	ok := err == nil && verdictOK(&r.unit, rep)
	if !ok {
		b.d.add(&r.unit, rep, err)
	}
	w.verdict(el, ok)

	if v != nil {
		pc.reportBytes += b.probes(v, r, &ar)
		v.finish()
		tr.count(nil)
	}
	k := kindIndex(r.Kind)
	pc.kinds[k]++
	pc.lat[k] = append(pc.lat[k], el)
	pc.clientSum += el
}

// probes times, outside the verdict, the layer work a request implies that
// the server does not expose: encoding the response as the server does, and
// building the unit's incremental dependency graph. It returns the size of
// the response's report JSON.
func (b *serveBench) probes(v *verdictRec, r *request, ar *server.AnalyzeResponse) int64 {
	s := v.start("report", 0)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(ar) // into a buffer: cannot fail for this type
	v.end(s)
	if merged, err := cpp.New(nil).MergeText(r.Name, r.Source); err == nil {
		if tu, err := cparse.Parse(r.Name, merged); err == nil {
			s = v.start("incr.graph", 0)
			incr.BuildGraph(tu)
			v.end(s)
		}
	}
	return int64(len(ar.Report))
}

func (b *serveBench) post(body []byte) ([]byte, int, error) {
	resp, err := b.hc.Post(b.ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

func kindIndex(k string) int {
	for i, e := range editKinds {
		if e == k {
			return i
		}
	}
	panic("unknown edit kind " + k)
}

func (b *serveBench) measure(d time.Duration, w *window, tr *tracer) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if err := b.pass(w, tr); err != nil {
			b.d.add(&unit{ID: "server"}, nil, err)
			return
		}
	}
}

// layers reports the server-side layers from the traced passes: cache and
// memo counts per pass, handler time from pallas_request_seconds, and the
// client-observed time the handler does not account for.
func (b *serveBench) layers(m map[string]float64, tr *tracer) {
	if len(b.traced) == 0 {
		return
	}
	p := b.traced[0]
	m["rcache.hits"] = float64(p.rcHits)
	m["rcache.misses"] = float64(p.rcMisses)
	m["rcache.hit_ratio"] = ratio(p.rcHits, p.rcHits+p.rcMisses)
	m["rcache.evictions"] = float64(p.rcEvict)
	m["rcache.bytes"] = float64(p.rcBytes)
	m["incr.func_hits"] = float64(p.funcHits)
	m["incr.func_misses"] = float64(p.funcMisses)
	m["incr.unit_hits"] = float64(p.unitHits)
	m["incr.unit_misses"] = float64(p.unitMisses)
	m["incr.func_reuse_ratio"] = ratio(p.funcHits, p.funcHits+p.funcMisses)
	m["server.shed"] = float64(p.shed)
	var n, rb int64
	var hsum float64
	var client time.Duration
	for _, q := range b.traced {
		n += q.handlerCount
		hsum += q.handlerSum
		client += q.clientSum
		rb += q.reportBytes
	}
	if n > 0 {
		m["server.handler_ms"] = hsum * 1000 / float64(n)
		m["server.transport_ms"] = ms(client)/float64(n) - m["server.handler_ms"]
		m["report.bytes"] = float64(rb) / float64(n)
	}
	m["report.encode_ms"] = tr.selfMSPerUnit("report")
	m["incr.graph_ms"] = tr.selfMSPerUnit("incr.graph")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (b *serveBench) notes() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.script)
	var out []string
	out = append(out, fmt.Sprintf("requests per pass: %d in %d families over %d clients (server workers %d, precision fast, memory cache + memo)", n, len(b.fams), workers, workers))
	if len(b.passes) > 0 {
		p := b.passes[0]
		shares := make([]string, len(editKinds))
		for i, k := range editKinds {
			shares[i] = fmt.Sprintf("%s %d (%.1f%%)", k, p.kinds[i], 100*float64(p.kinds[i])/float64(n))
		}
		out = append(out, "edit classes per pass: "+strings.Join(shares, ", "))
		out = append(out, "exact counts per pass: "+p.exact())
	}
	// Per-class verdict medians after the warm-up pass, so the end-to-end
	// figures can be re-weighted for another mix.
	if len(b.passes) > 1 {
		p50s := make([]string, len(editKinds))
		for k, name := range editKinds {
			var xs []time.Duration
			for _, p := range b.passes[1:] {
				xs = append(xs, p.lat[k]...)
			}
			p50s[k] = fmt.Sprintf("%s %.3f", name, median(durationsMS(xs)))
		}
		out = append(out, "verdict p50 ms by edit class: "+strings.Join(p50s, ", "))
	}
	return out
}

// failures reports passes whose exact counts drifted from the first pass.
func (b *serveBench) failures() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	seen := map[string]bool{}
	for i, p := range b.passes {
		if e := p.exact(); e != b.passes[0].exact() && !seen[e] {
			seen[e] = true
			out = append(out, fmt.Sprintf("pass %d counts differ from pass 0: %s", i, e))
		}
	}
	sort.Strings(out)
	return out
}

func (b *serveBench) dis() *disagreements { return &b.d }

func (b *serveBench) close() {
	if b.ts != nil {
		b.hc.CloseIdleConnections()
		b.ts.Close()
	}
}
