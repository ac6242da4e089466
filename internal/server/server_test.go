package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pallas"
	"pallas/internal/failpoint"
	"pallas/internal/incr"
	"pallas/internal/metrics"
	"pallas/internal/paths"
	"pallas/internal/rcache"
)

const testSource = `
int fast_path(int mode)
{
	if (mode == 0) {
		mode = 1;
		return 1;
	}
	return 0;
}
`

const testSpec = "fastpath fast_path\nimmutable mode\n"

// newTestServer builds a server with its own metrics registry so counter
// assertions are not polluted across tests.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, AnalyzeResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out AnalyzeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad analyze response %s: %v", raw, err)
		}
	}
	return resp, out
}

// TestServeColdWarmByteIdentical is the tentpole contract: the second
// identical request is a cache hit whose report bytes match the first
// exactly, and /metrics records exactly one miss and one hit.
func TestServeColdWarmByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Name: "mode.c", Source: testSource, Spec: testSpec}
	resp1, cold := postAnalyze(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d", resp1.StatusCode)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold cache = %q, want miss", cold.Cache)
	}
	if len(cold.Key) != 64 {
		t.Fatalf("key = %q, want 64 hex chars", cold.Key)
	}
	if cold.Warnings == 0 {
		t.Fatal("seeded immutable-overwrite warning missing from cold report")
	}

	resp2, warm := postAnalyze(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", resp2.StatusCode)
	}
	if warm.Cache != "hit" {
		t.Fatalf("warm cache = %q, want hit", warm.Cache)
	}
	if warm.Key != cold.Key {
		t.Fatalf("key changed across identical requests: %s vs %s", cold.Key, warm.Key)
	}
	if !bytes.Equal(cold.Report, warm.Report) {
		t.Fatalf("cache hit report drifted\n--- cold ---\n%s\n--- warm ---\n%s", cold.Report, warm.Report)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		metrics.MetricCacheMisses + " 1\n",
		metrics.MetricCacheHits + " 1\n",
		MetricUnitsAnalyzed + " 1\n",
		MetricRequests + " 2\n",
		MetricInFlight + " 0\n",
		MetricRequestSeconds + "_count 2\n",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q\n%s", want, mb)
		}
	}
}

// TestServeSingleflightHammer races many concurrent requests — several
// copies of each distinct unit — and asserts the analysis count equals the
// number of distinct units: duplicates either hit the cache or piggyback on
// the in-flight leader, never analyze again.
func TestServeSingleflightHammer(t *testing.T) {
	// Stretch every analysis so duplicate requests genuinely overlap.
	if err := failpoint.Arm("pre-parse=sleep:50ms"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := newTestServer(t, Config{Workers: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const distinct, copies = 4, 6
	type got struct {
		unit int
		resp AnalyzeResponse
		code int
	}
	results := make(chan got, distinct*copies)
	var wg sync.WaitGroup
	for u := 0; u < distinct; u++ {
		for c := 0; c < copies; c++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				req := AnalyzeRequest{
					Name:   fmt.Sprintf("u%d.c", u),
					Source: strings.ReplaceAll(testSource, "fast_path", fmt.Sprintf("fast_%d", u)),
					Spec:   strings.ReplaceAll(testSpec, "fast_path", fmt.Sprintf("fast_%d", u)),
				}
				resp, out := postAnalyze(t, ts.URL, req)
				results <- got{unit: u, resp: out, code: resp.StatusCode}
			}(u)
		}
	}
	wg.Wait()
	close(results)

	reports := make(map[int][]byte)
	for g := range results {
		if g.code != http.StatusOK {
			t.Fatalf("unit %d: status %d", g.unit, g.code)
		}
		if prev, ok := reports[g.unit]; ok {
			if !bytes.Equal(prev, g.resp.Report) {
				t.Fatalf("unit %d: divergent report bytes across duplicate requests", g.unit)
			}
		} else {
			reports[g.unit] = g.resp.Report
		}
	}
	if len(reports) != distinct {
		t.Fatalf("got %d distinct reports, want %d", len(reports), distinct)
	}

	st := s.Cache().Stats()
	if st.Computes != distinct {
		t.Fatalf("computes = %d, want %d (singleflight failed)", st.Computes, distinct)
	}
	if st.Misses != distinct {
		t.Fatalf("misses = %d, want %d", st.Misses, distinct)
	}
	if st.Hits != distinct*(copies-1) {
		t.Fatalf("hits = %d, want %d", st.Hits, distinct*(copies-1))
	}
}

// TestServeReportEndpoint covers /v1/report lookups and key validation.
func TestServeReportEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, out := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "r.c", Source: testSource, Spec: testSpec})

	resp, err := http.Get(ts.URL + "/v1/report/" + out.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	var entry struct {
		Unit     string          `json:"unit"`
		Report   json.RawMessage `json:"report"`
		Warnings int             `json:"warnings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	if entry.Unit != "r.c" || entry.Warnings == 0 {
		t.Fatalf("entry = %+v", entry)
	}

	for path, want := range map[string]int{
		"/v1/report/zz":                         http.StatusBadRequest,
		"/v1/report/" + strings.Repeat("0", 64): http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestServeReportEndpointMemoRecord: /v1/report serves a memo function
// record, which the cache holds live, as its pinned encoding and sum.
func TestServeReportEndpointMemoRecord(t *testing.T) {
	s := newTestServer(t, Config{Analyzer: pallas.Config{Incremental: &pallas.IncrementalOptions{}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fp := &paths.FuncPaths{Fn: "fast", Signature: "fast(a)", Paths: []*paths.ExecPath{{
		Fn: "fast", Signature: "fast(a)", Blocks: []int{0, 1},
		Out: &paths.Output{Expr: "a", Sym: "a", Line: 3},
	}}}
	key := strings.Repeat("ab", 32)
	incr.Open(incr.Options{Backing: incr.Local(s.Cache())}).PutFunc(key, "u.c", "fast", "fp1", fp)

	resp, err := http.Get(ts.URL + "/v1/report/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	var entry rcache.Entry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := json.Compact(&report, entry.Report); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&incr.FuncRecord{Version: incr.FuncRecordVersion, Fn: "fast", Fingerprint: "fp1", Paths: fp})
	if err != nil {
		t.Fatal(err)
	}
	// b452d7a8 is the sum TestIncrRecordFormatPinned pins for this record.
	if !bytes.Equal(report.Bytes(), want) || entry.Sum != "b452d7a8" {
		t.Fatalf("served report %s sum %s, want the pinned record", report.Bytes(), entry.Sum)
	}
}

// TestServeValidation covers method, body, and size rejections.
func TestServeValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxRequestBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze: status = %d", get.StatusCode)
	}

	bad, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status = %d", bad.StatusCode)
	}

	empty, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "e.c"})
	if empty.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: status = %d", empty.StatusCode)
	}

	huge, _ := postAnalyze(t, ts.URL, AnalyzeRequest{
		Name: "h.c", Source: strings.Repeat("x", 4096),
	})
	if huge.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status = %d", huge.StatusCode)
	}
}

// TestServePersistentCacheAcrossRestart proves the disk tier makes warm
// state survive process boundaries: a fresh server over the same cache
// directory answers from cache without analyzing.
func TestServePersistentCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := AnalyzeRequest{Name: "p.c", Source: testSource, Spec: testSpec}

	s1 := newTestServer(t, Config{CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	_, cold := postAnalyze(t, ts1.URL, req)
	ts1.Close()
	if cold.Cache != "miss" {
		t.Fatalf("cold cache = %q", cold.Cache)
	}

	s2 := newTestServer(t, Config{CacheDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, warm := postAnalyze(t, ts2.URL, req)
	if warm.Cache != "hit" {
		t.Fatalf("restart cache = %q, want hit", warm.Cache)
	}
	if !bytes.Equal(cold.Report, warm.Report) {
		t.Fatal("report bytes drifted across server restart")
	}
	if s2.Cache().Stats().Computes != 0 {
		t.Fatalf("restarted server ran %d analyses, want 0", s2.Cache().Stats().Computes)
	}
}

// TestServeGracefulDrain starts a real listener, parks a slow analysis in
// flight, then drains: the in-flight request must complete with a full
// report while new requests are refused with 503.
func TestServeGracefulDrain(t *testing.T) {
	if err := failpoint.Arm("pre-parse=sleep:300ms/slow.c"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	type slowResult struct {
		code int
		out  AnalyzeResponse
	}
	slow := make(chan slowResult, 1)
	go func() {
		resp, out := postAnalyze(t, url, AnalyzeRequest{
			Name: "slow.c", Source: testSource, Spec: testSpec,
		})
		slow <- slowResult{code: resp.StatusCode, out: out}
	}()

	// Wait until the slow request holds a gate slot, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never reached the gate")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.StartDrain()

	// New work is refused while the old request is still running.
	refused, _ := postAnalyze(t, url, AnalyzeRequest{Name: "new.c", Source: testSource})
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain analyze status = %d, want 503", refused.StatusCode)
	}
	hresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", hresp.StatusCode)
	}

	// Shutdown must wait for — not kill — the in-flight analysis.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	got := <-slow
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", got.code)
	}
	if got.out.Cache != "miss" || got.out.Warnings == 0 {
		t.Fatalf("in-flight result incomplete: %+v", got.out)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}

// TestServeHealthz checks the healthy-path payload shape.
func TestServeHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.InFlight != 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestServerMemoSharesTheResultCache: a server keeps one cache. With the
// memo on, one analysis stores its result entry, one function record and
// one unit verdict, all in Server.Cache; the memo's lookups leave the
// cache's hit and miss counters to result lookups.
func TestServerMemoSharesTheResultCache(t *testing.T) {
	s := newTestServer(t, Config{Analyzer: pallas.Config{Incremental: &pallas.IncrementalOptions{}}})
	defer s.Close()
	if code := analyze(t, s.Handler(), "one.c", testSource, testSpec); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	cs := s.Cache().Stats()
	if cs.Entries != 3 {
		t.Fatalf("cache holds %d entries, want 3 (result, function record, unit verdict)", cs.Entries)
	}
	if cs.Hits != 0 || cs.Misses != 1 {
		t.Fatalf("cache lookups = %d hit(s), %d miss(es); want the one result lookup", cs.Hits, cs.Misses)
	}
	if is, ok := s.IncrStats(); !ok || is.FuncMisses != 1 || is.UnitMisses != 1 {
		t.Fatalf("memo stats = %+v, want one function and one unit miss", is)
	}
}

// TestMemoWriteFaultsAreServerFaults: memo records are written through the
// server's cache, so with its disk failing they count in
// pallas_cache_disk_faults_total next to the result write, and the
// server's breaker settings govern them (disabled here: the tier stays
// closed).
func TestMemoWriteFaultsAreServerFaults(t *testing.T) {
	if err := failpoint.Arm("cache-store=error"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := newTestServer(t, Config{
		Analyzer: pallas.Config{Incremental: &pallas.IncrementalOptions{}},
		CacheDir: t.TempDir(), BreakerThreshold: -1,
	})
	defer s.Close()
	if code := analyze(t, s.Handler(), "one.c", testSource, testSpec); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	expo := exposition(t, s.Handler())
	// One result write and two memo writes (function record, unit verdict).
	if got := expo[metrics.MetricCacheDiskFaults]; got != 3 || expo[MetricPersistFaults] != 1 {
		t.Fatalf("disk faults = %d, persist faults = %d; want 3 and 1", got, expo[MetricPersistFaults])
	}
	if tier := s.Snapshot().CacheTier; tier != "closed" {
		t.Fatalf("cache tier = %q, want closed with the breaker disabled", tier)
	}
}
