package server

// One source of truth: every counter a server exposes on /metrics is the
// same counter its /healthz?verbose=1 snapshot reads, and the exposition
// itself is pinned by goldens at the fast and strict tiers.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pallas"
	"pallas/internal/cluster"
	"pallas/internal/corpus"
	"pallas/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics goldens in testdata/")

// do serves one request synchronously, so every deferred gauge and
// histogram update has landed before the caller reads the next scrape.
func do(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func analyze(t *testing.T, h http.Handler, name, src, spec string) int {
	t.Helper()
	body, _ := json.Marshal(AnalyzeRequest{Name: name, Source: src, Spec: spec})
	return do(t, h, http.MethodPost, "/v1/analyze", body).Code
}

// exposition parses the integer-valued samples of a /metrics body (every
// counter and gauge; histogram buckets and sums are skipped).
func exposition(t *testing.T, h http.Handler) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range strings.Split(do(t, h, http.MethodGet, "/metrics", nil).Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// verboseHealth decodes /healthz?verbose=1 generically.
func verboseHealth(t *testing.T, h http.Handler) map[string]any {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal(do(t, h, http.MethodGet, "/healthz?verbose=1", nil).Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body
}

// field reads section.name from a verbose health body (a top-level field
// when section is ""); an omitted section (memo off, fast tier, inert peer
// tier) reads as zero.
func field(body map[string]any, section, name string) int64 {
	sec := body
	if section != "" {
		sec, _ = body[section].(map[string]any)
	}
	v, _ := sec[name].(float64)
	return int64(v)
}

// snapshotFields maps each result-cache, shed, feasibility, memo and peer
// metric to the verbose health field that reports the same counter.
var snapshotFields = map[string][2]string{
	"pallas_cache_hits_total":                {"cache", "Hits"},
	"pallas_cache_misses_total":              {"cache", "Misses"},
	"pallas_cache_mem_hits_total":            {"cache", "MemHits"},
	"pallas_cache_disk_hits_total":           {"cache", "DiskHits"},
	"pallas_cache_shared_total":              {"cache", "Shared"},
	"pallas_cache_computes_total":            {"cache", "Computes"},
	"pallas_cache_evictions_total":           {"cache", "Evictions"},
	"pallas_cache_disk_faults_total":         {"cache", "DiskFaults"},
	"pallas_cache_disk_full_prunes_total":    {"cache", "DiskFullPrunes"},
	"pallas_cache_breaker_skips_total":       {"cache", "BreakerSkips"},
	"pallas_cache_pruned_total":              {"cache", "Pruned"},
	"pallas_shed_queue_full_total":           {"shed", "queue_full"},
	"pallas_shed_deadline_total":             {"shed", "deadline"},
	"pallas_shed_draining_total":             {"shed", "draining"},
	"pallas_shed_canceled_total":             {"shed", "canceled"},
	"pallas_shed_rate_limited_total":         {"", "rate_denied_total"},
	"pallas_feas_paths_pruned_total":         {"feas", "Pruned"},
	"pallas_feas_contradictions_total":       {"feas", "Contradictions"},
	"pallas_incr_func_hits_total":            {"incr", "FuncHits"},
	"pallas_incr_func_misses_total":          {"incr", "FuncMisses"},
	"pallas_incr_func_invalidations_total":   {"incr", "FuncInvalidations"},
	"pallas_incr_unit_hits_total":            {"incr", "UnitHits"},
	"pallas_incr_unit_misses_total":          {"incr", "UnitMisses"},
	"pallas_peer_hits_total":                 {"peer_cache", "Hits"},
	"pallas_peer_misses_total":               {"peer_cache", "Misses"},
	"pallas_peer_rot_refusals_total":         {"peer_cache", "RotRefusals"},
	"pallas_peer_read_repairs_total":         {"peer_cache", "Repairs"},
	"pallas_peer_puts_total":                 {"peer_cache", "Puts"},
	"pallas_peer_put_bytes_total":            {"peer_cache", "PutBytes"},
	"pallas_peer_timeouts_total":             {"peer_cache", "Timeouts"},
	"pallas_peer_breaker_trips_total":        {"peer_cache", "BreakerTrips"},
	"pallas_peer_breaker_skips_total":        {"peer_cache", "BreakerSkips"},
	"pallas_peer_handoff_queued_total":       {"peer_cache", "HandoffQueued"},
	"pallas_peer_handoff_drained_total":      {"peer_cache", "HandoffDrained"},
	"pallas_peer_handoff_dropped_total":      {"peer_cache", "HandoffDropped"},
	"pallas_peer_stale_epoch_refusals_total": {"peer_cache", "StaleRefusals"},
	"pallas_peer_epoch":                      {"peer_cache", "Epoch"},
}

// serverCacheEvents are the server's own pallas_cache_* instruments: events
// of the request path around the result cache (a persist fault served
// anyway, a checksum mismatch recomputed, the breaker gauge), not lookups
// the cache counts, so its Stats have no field for them.
var serverCacheEvents = map[string]bool{
	MetricPersistFaults:    true,
	MetricCacheSumMismatch: true,
	MetricBreakerState:     true,
}

// assertAgreement checks every pallas_cache_*, pallas_shed_*, pallas_feas_*,
// pallas_incr_* and pallas_peer_* sample on /metrics against the verbose
// health snapshot, and that none of the mapped metrics is missing from the
// exposition.
func assertAgreement(t *testing.T, label string, h http.Handler) {
	t.Helper()
	expo := exposition(t, h)
	body := verboseHealth(t, h)
	for name, at := range snapshotFields {
		got, ok := expo[name]
		if !ok {
			t.Errorf("%s: %s missing from /metrics", label, name)
			continue
		}
		if want := field(body, at[0], at[1]); got != want {
			t.Errorf("%s: /metrics %s = %d, /healthz %s.%s = %d", label, name, got, at[0], at[1], want)
		}
	}
	hits := field(body, "incr", "FuncHits") + field(body, "incr", "UnitHits")
	total := hits + field(body, "incr", "FuncMisses") + field(body, "incr", "UnitMisses")
	if total == 0 || expo["pallas_incr_reuse_ratio_x1000"] != hits*1000/total {
		t.Errorf("%s: reuse ratio %d, want %d/%d", label, expo["pallas_incr_reuse_ratio_x1000"], hits, total)
	}
	prefixed := regexp.MustCompile(`^pallas_(cache|shed|feas|incr|peer)_`)
	for name := range expo {
		_, mapped := snapshotFields[name]
		if !mapped && name != "pallas_incr_reuse_ratio_x1000" && !serverCacheEvents[name] && prefixed.MatchString(name) {
			t.Errorf("%s: %s on /metrics has no /healthz?verbose=1 counterpart", label, name)
		}
	}
}

// TestMetricsAgreeWithHealthz: a server with its own registry, at strict
// with the memo on and one live cache peer, renders the same result-cache,
// shed, feasibility, memo and peer counts on /metrics as in
// /healthz?verbose=1 — both after fresh analyses, a failing analysis and a
// refusal while draining, and after a memo replay in a fresh server on the
// same cache directory.
func TestMetricsAgreeWithHealthz(t *testing.T) {
	dir := t.TempDir()
	strict := pallas.Config{Precision: "strict", Incremental: &pallas.IncrementalOptions{}}

	peerSrv := newTestServer(t, Config{Analyzer: pallas.Config{Precision: "strict", Incremental: &pallas.IncrementalOptions{}}})
	defer peerSrv.Close()
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer peerTS.Close()

	s1, err := New(Config{Analyzer: strict, CacheDir: dir, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s1TS := httptest.NewServer(s1.Handler())
	defer s1TS.Close()
	self, peerAddr := strings.TrimPrefix(s1TS.URL, "http://"), strings.TrimPrefix(peerTS.URL, "http://")
	s1.PeerTier().SetSelf(self)
	s1.PeerTier().Update(cluster.PeerMap{Epoch: 1, Peers: []string{self, peerAddr}, Replicas: 2})

	cases := corpus.FeasCases()
	for i, c := range cases {
		if code := analyze(t, s1.Handler(), fmt.Sprintf("feas%d.c", i), c.Source, c.Spec); code != http.StatusOK {
			t.Fatalf("analyze %s: status %d", c.ID, code)
		}
	}
	// A failing analysis is a result-cache miss; a refusal while draining
	// happens before admission. Both count once, in the one store.
	if code := analyze(t, s1.Handler(), "bad.c", cases[0].Source, "no-such-directive x\n"); code != http.StatusUnprocessableEntity {
		t.Fatalf("unparsable spec: status %d, want 422", code)
	}
	s1.StartDrain()
	if code := analyze(t, s1.Handler(), "late.c", cases[0].Source, cases[0].Spec); code != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining: status %d, want 503", code)
	}
	expo := exposition(t, s1.Handler())
	if expo["pallas_feas_paths_pruned_total"] == 0 || expo["pallas_peer_puts_total"] == 0 {
		t.Fatalf("strict pruning must show on /metrics, and the peer must take writes: %v", expo)
	}
	assertAgreement(t, "fresh", s1.Handler())
	if expo["pallas_cache_misses_total"] != int64(len(cases))+1 || expo["pallas_shed_draining_total"] != 1 {
		t.Errorf("want %d cache misses (one failed) and one draining refusal: %v", len(cases)+1, expo)
	}

	// A fresh server on the same cache directory replays the whole verdict
	// from the memo: a trailing comment misses the result cache but leaves
	// the unit fingerprint as it was.
	s2, err := New(Config{Analyzer: strict, CacheDir: dir, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if code := analyze(t, s2.Handler(), "feas0.c", cases[0].Source+"\n/* edit */\n", cases[0].Spec); code != http.StatusOK {
		t.Fatalf("replay analyze: status %d", code)
	}
	expo = exposition(t, s2.Handler())
	if expo["pallas_incr_unit_hits_total"] != 1 || expo["pallas_feas_paths_pruned_total"] == 0 {
		t.Fatalf("setup: want one unit replay counting its pruned paths: %v", expo)
	}
	assertAgreement(t, "replay", s2.Handler())
}

// goldenScript drives a fixed request sequence: the three feasibility
// cases (misses), one repeat (a result-cache hit), one renamed copy (a
// cache miss whose functions replay from the memo) and one bad request.
func goldenScript(t *testing.T, h http.Handler) {
	t.Helper()
	cases := corpus.FeasCases()
	for i, c := range cases {
		analyze(t, h, fmt.Sprintf("feas%d.c", i), c.Source, c.Spec)
	}
	analyze(t, h, "feas0.c", cases[0].Source, cases[0].Spec)
	analyze(t, h, "renamed.c", cases[1].Source, cases[1].Spec)
	if code := analyze(t, h, "empty.c", "", ""); code != http.StatusBadRequest {
		t.Fatalf("empty source: status %d, want 400", code)
	}
}

// maskExposition keeps every # HELP/# TYPE line and counter value, and masks
// histogram buckets and sums, which vary with latency.
func maskExposition(expo string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(expo, "\n") {
		name, _, _ := strings.Cut(line, " ")
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasSuffix(name, "_sum"), strings.Contains(name, "_bucket{"):
			line = name + " <masked>\n"
		}
		b.WriteString(line)
	}
	return b.String()
}

func TestMetricsExpositionGolden(t *testing.T) {
	for _, tier := range []string{"fast", "strict"} {
		t.Run(tier, func(t *testing.T) {
			s := newTestServer(t, Config{Analyzer: pallas.Config{Precision: tier, Incremental: &pallas.IncrementalOptions{}}})
			defer s.Close()
			goldenScript(t, s.Handler())
			got := maskExposition(do(t, s.Handler(), http.MethodGet, "/metrics", nil).Body.String())
			path := filepath.Join("testdata", "metrics_"+tier+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("/metrics at %s differs from %s:\n--- got\n%s--- want\n%s", tier, path, got, want)
			}
		})
	}
}

// TestProtocolDocListsGoldenMetrics: the metric tables under "GET /metrics"
// in docs/PROTOCOL.md name exactly the metrics the goldens expose.
func TestProtocolDocListsGoldenMetrics(t *testing.T) {
	golden := map[string]bool{}
	typeLine := regexp.MustCompile(`(?m)^# TYPE (\S+) `)
	for _, tier := range []string{"fast", "strict"} {
		b, err := os.ReadFile(filepath.Join("testdata", "metrics_"+tier+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range typeLine.FindAllStringSubmatch(string(b), -1) {
			golden[m[1]] = true
		}
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "PROTOCOL.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### GET /metrics\n")
	if !ok {
		t.Fatal("docs/PROTOCOL.md has no \"### GET /metrics\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	var missing, extra []string
	for name := range golden {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !golden[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("docs/PROTOCOL.md /metrics tables: undocumented %v; documented but never exposed %v", missing, extra)
	}
}
