package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pallas"
	"pallas/internal/cluster"
	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/metrics"
	"pallas/internal/rcache"
)

func postUnit(t *testing.T, url string, a cluster.AssignPayload) *http.Response {
	t.Helper()
	body, err := cluster.EncodeFrame(cluster.FrameAssign, a)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/cluster/unit", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestClusterUnitEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	s.SetAdvertiseAddr("worker-a:1")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	resp := postUnit(t, ts.URL, cluster.AssignPayload{
		Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res cluster.ResultPayload
	if err := cluster.DecodeFrame(resp.Body, cluster.FrameResult, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" || res.Unit != "a.c" || res.Hash != unit.Hash() {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Report) == 0 || len(res.Paths) == 0 {
		t.Fatalf("result missing report or paths: report=%d paths=%d bytes",
			len(res.Report), len(res.Paths))
	}
	if res.Worker != "worker-a:1" {
		t.Fatalf("worker echo: %q", res.Worker)
	}
	if res.Cache != "miss" {
		t.Fatalf("first dispatch should miss, got %q", res.Cache)
	}

	// Same unit again: served from cache, same bytes.
	resp2 := postUnit(t, ts.URL, cluster.AssignPayload{
		Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
	})
	defer resp2.Body.Close()
	var res2 cluster.ResultPayload
	if err := cluster.DecodeFrame(resp2.Body, cluster.FrameResult, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Cache != "hit" {
		t.Fatalf("second dispatch should hit, got %q", res2.Cache)
	}
	if !bytes.Equal(res.Report, res2.Report) || !bytes.Equal(res.Paths, res2.Paths) {
		t.Fatal("cached dispatch returned different bytes")
	}
}

// TestClusterUnitUpgradesPathlessCacheEntry covers the shared-cache shape
// mismatch: an entry stored by plain /v1/analyze traffic has no path bytes;
// a cluster dispatch of the same unit must re-analyze and serve paths, not
// return an empty pathdb.
func TestClusterUnitUpgradesPathlessCacheEntry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed the cache through the plain analyze path.
	body, _ := json.Marshal(AnalyzeRequest{Name: "a.c", Source: testSource, Spec: testSpec})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed analyze: status %d", resp.StatusCode)
	}

	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	resp2 := postUnit(t, ts.URL, cluster.AssignPayload{
		Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
	})
	defer resp2.Body.Close()
	var res cluster.ResultPayload
	if err := cluster.DecodeFrame(resp2.Body, cluster.FrameResult, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" || len(res.Paths) == 0 {
		t.Fatalf("upgraded dispatch: status=%s paths=%d bytes", res.Status, len(res.Paths))
	}
	if res.Cache != "miss" {
		t.Fatalf("upgrade must count as a miss, got %q", res.Cache)
	}
}

// TestClusterUnitFailedPathFillIsNotCached: a memo-replayed verdict derives
// its path database when a cluster dispatch first reads it, inside the
// gate. When that derivation fails, the dispatch fails and the cache keeps
// no empty database as a clean result; the next dispatch derives it.
func TestClusterUnitFailedPathFillIsNotCached(t *testing.T) {
	// MaxPaths 1 truncates fast_path, and truncated functions have no memo
	// record, so the replayed verdict's fill must extract it again.
	s := newTestServer(t, Config{Workers: 1, Analyzer: pallas.Config{
		MaxPaths: 1, Incremental: &pallas.IncrementalOptions{}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Plain analyze: memoizes the verdict, caches a path-less entry.
	body, _ := json.Marshal(AnalyzeRequest{Name: "a.c", Source: testSource, Spec: testSpec})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	dispatch := func() cluster.ResultPayload {
		t.Helper()
		resp := postUnit(t, ts.URL, cluster.AssignPayload{
			Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
		})
		defer resp.Body.Close()
		var res cluster.ResultPayload
		if err := cluster.DecodeFrame(resp.Body, cluster.FrameResult, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	if err := failpoint.Arm("extract-func=error/fast_path"); err != nil {
		t.Fatal(err)
	}
	res := dispatch()
	failpoint.Disarm()
	if res.Status != "failed" || !strings.Contains(res.Err, "injected") {
		t.Fatalf("dispatch with a failing path fill: %+v", res)
	}
	if st, _ := s.analyzer.IncrStats(); st.UnitHits != 1 {
		t.Fatalf("memo stats %+v: the dispatch did not replay the verdict", st)
	}
	if e, ok := s.cache.Peek(s.analyzer.CacheKey(unit)); !ok || len(e.Paths) != 0 {
		t.Fatal("a failed path fill replaced the cached entry")
	}
	if res := dispatch(); res.Status != "ok" || len(res.Paths) == 0 {
		t.Fatalf("dispatch after the fault: status=%s paths=%d bytes", res.Status, len(res.Paths))
	}
}

func TestClusterUnitRejectsMalformedFrames(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/cluster/unit", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	good, _ := cluster.EncodeFrame(cluster.FrameAssign, cluster.AssignPayload{
		Unit: "a.c", Hash: "h", Source: testSource})

	if code := post(nil); code != http.StatusBadRequest {
		t.Fatalf("empty body: %d, want 400", code)
	}
	if code := post([]byte("not a frame at all")); code != http.StatusBadRequest {
		t.Fatalf("garbage: %d, want 400", code)
	}
	if code := post(good[:len(good)-4]); code != http.StatusBadRequest {
		t.Fatalf("truncated: %d, want 400", code)
	}
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)-1] ^= 0x01
	if code := post(corrupted); code != http.StatusBadRequest {
		t.Fatalf("checksum mismatch: %d, want 400", code)
	}
	// Oversized: a declared length beyond the frame limit must answer 413.
	oversized := append([]byte(nil), good...)
	oversized[5], oversized[6], oversized[7], oversized[8] = 0xff, 0xff, 0xff, 0xff
	if code := post(oversized); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: %d, want 413", code)
	}
	// The server must still be serving after the abuse.
	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	resp := postUnit(t, ts.URL, cluster.AssignPayload{
		Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-abuse dispatch: %d", resp.StatusCode)
	}
}

func TestClusterUnitFailedAnalysisIsTerminalFrame(t *testing.T) {
	// A deterministically malformed unit answers 200 with a failed,
	// non-transient result frame — not an HTTP error (which would look like
	// a sick worker and trigger requeue elsewhere).
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postUnit(t, ts.URL, cluster.AssignPayload{
		Unit: "bad.c", Hash: "h-bad", Source: "int f( {", Attempt: 1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with failed frame", resp.StatusCode)
	}
	var res cluster.ResultPayload
	if err := cluster.DecodeFrame(resp.Body, cluster.FrameResult, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "failed" || res.Err == "" {
		t.Fatalf("result: %+v", res)
	}
	if res.Transient {
		t.Fatal("parse failure misclassified as transient")
	}
}

func TestClusterPing(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/cluster/ping")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping: %d", resp.StatusCode)
	}
	var pong cluster.PongPayload
	if err := json.NewDecoder(resp.Body).Decode(&pong); err != nil {
		t.Fatal(err)
	}
	if pong.Status != "ok" {
		t.Fatalf("pong: %+v", pong)
	}

	s.StartDrain()
	resp2, err := http.Get(ts.URL + "/v1/cluster/ping")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ping: %d, want 503", resp2.StatusCode)
	}
}

// TestAnalyzeCanceledRequestReleasesGate is the client-disconnect
// regression test: a request whose context is canceled while waiting for a
// gate slot must abandon the analysis (context error surfaces) instead of
// holding or leaking the slot.
func TestAnalyzeCanceledRequestReleasesGate(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, MinWorkers: 1, Metrics: reg})

	// Occupy the single gate slot so the next analysis queues on Acquire.
	block := make(chan struct{})
	entered := make(chan struct{})
	go s.gate.Do(guard.StageServe, "blocker", func() error {
		close(entered)
		<-block
		return nil
	})
	<-entered
	defer close(block)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	unit := pallas.Unit{Name: "canceled.c", Source: testSource, Spec: testSpec}
	start := time.Now()
	_, err := s.analyzeOne(ctx, unit, s.analyzer.CacheKey(unit))
	if err == nil {
		t.Fatal("canceled request ran the analysis")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("want context cancellation surfaced, got: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation did not release promptly (%s)", time.Since(start))
	}
	if got := s.gate.InFlight(); got != 1 {
		t.Fatalf("gate slots leaked: in-flight %d, want 1 (the blocker)", got)
	}
}

// TestAnalyzeCanceledHTTPRequest drives the same property end to end over
// HTTP: killing the connection mid-queue must not wedge the worker slot.
func TestAnalyzeCanceledHTTPRequest(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MinWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	block := make(chan struct{})
	entered := make(chan struct{})
	go s.gate.Do(guard.StageServe, "blocker", func() error {
		close(entered)
		<-block
		return nil
	})
	<-entered

	body, _ := json.Marshal(AnalyzeRequest{Name: "x.c", Source: testSource, Spec: testSpec})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// The server may have answered an error before the cancel landed.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	close(block)
	// The blocker drains; the canceled request must not occupy the slot, so
	// a fresh request succeeds promptly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if ok {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server wedged after canceled request")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClusterMetricNamesRegistered(t *testing.T) {
	// The cluster instrument names must render in Prometheus exposition
	// when a coordinator uses a registry (guards against typo drift between
	// the metrics constants and the dashboard names in the issue).
	reg := metrics.NewRegistry()
	reg.Gauge(metrics.MetricClusterWorkersLive, "t").Set(3)
	reg.Counter(metrics.MetricClusterRequeues, "t").Inc()
	reg.Counter(metrics.MetricClusterHeartbeatMisses, "t").Inc()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, name := range []string{
		"pallas_cluster_workers_live",
		"pallas_cluster_requeues_total",
		"pallas_cluster_heartbeat_misses_total",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("metric %s missing from exposition:\n%s", name, out)
		}
	}
}

// TestClusterUnitResultAttested: every result frame carries the lease epoch
// echoed from the assignment (the coordinator's fence token) and a content
// checksum that actually covers the bytes in the frame — on both the
// fresh-compute and the cache-hit path.
func TestClusterUnitResultAttested(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	for i, epoch := range []int64{7, 8} { // miss, then hit
		resp := postUnit(t, ts.URL, cluster.AssignPayload{
			Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec,
			Attempt: 1, Epoch: epoch,
		})
		var res cluster.ResultPayload
		err := cluster.DecodeFrame(resp.Body, cluster.FrameResult, &res)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != epoch {
			t.Fatalf("dispatch %d: epoch echo %d, want %d", i, res.Epoch, epoch)
		}
		if res.Sum == "" {
			t.Fatalf("dispatch %d: result carries no content sum", i)
		}
		if got := rcache.ContentSum(res.Report, res.Paths); got != res.Sum {
			t.Fatalf("dispatch %d: sum %s does not cover the payload bytes (computed %s)",
				i, res.Sum, got)
		}
		wantCache := "miss"
		if i == 1 {
			wantCache = "hit"
		}
		if res.Cache != wantCache {
			t.Fatalf("dispatch %d: cache %q, want %q", i, res.Cache, wantCache)
		}
	}
}

// TestClusterUnitCorruptCacheEntryReanalyzed: a cached entry whose bytes no
// longer match its stored checksum (torn disk write, bad RAM, a buggy
// persistence tier) must not be served. The mismatch is counted and the
// unit re-analyzed, so the coordinator receives honest bytes.
func TestClusterUnitCorruptCacheEntryReanalyzed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	assign := cluster.AssignPayload{
		Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
	}
	resp := postUnit(t, ts.URL, assign)
	var honest cluster.ResultPayload
	err := cluster.DecodeFrame(resp.Body, cluster.FrameResult, &honest)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Rot the cached bytes in place; the stored Sum now lies about them.
	entry, ok := s.cache.Get(s.analyzer.CacheKey(unit))
	if !ok {
		t.Fatal("seeded entry missing from cache")
	}
	entry.Report = failpoint.CorruptJSON(entry.Report)
	if string(entry.Report) == string(honest.Report) {
		t.Fatal("corruption was a no-op; test fixture needs a digit in the report")
	}

	resp = postUnit(t, ts.URL, assign)
	var res cluster.ResultPayload
	err = cluster.DecodeFrame(resp.Body, cluster.FrameResult, &res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.mSumMismatch.Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricCacheSumMismatch, got)
	}
	if res.Cache != "miss" {
		t.Fatalf("corrupt hit served as %q, want re-analysis (miss)", res.Cache)
	}
	if string(res.Report) != string(honest.Report) {
		t.Fatalf("re-analysis bytes diverged:\n got %s\nwant %s", res.Report, honest.Report)
	}
	if got := rcache.ContentSum(res.Report, res.Paths); got != res.Sum {
		t.Fatalf("re-analyzed sum %s does not cover the bytes (computed %s)", res.Sum, got)
	}
}

// TestClusterUnitResultCorruptFailpoint: the result-corrupt injection mangles
// the payload *after* the checksum is fixed, leaving the frame CRC intact —
// the lie only the end-to-end Sum can expose. This is the worker half of the
// integrity pipeline; the coordinator half (quarantine) is proven in the
// cluster package.
func TestClusterUnitResultCorruptFailpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := failpoint.Arm("result-corrupt=corrupt@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	assign := cluster.AssignPayload{
		Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
	}
	resp := postUnit(t, ts.URL, assign)
	var res cluster.ResultPayload
	err := cluster.DecodeFrame(resp.Body, cluster.FrameResult, &res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err) // frame must still decode: the corruption is beneath the CRC
	}
	if got := rcache.ContentSum(res.Report, res.Paths); got == res.Sum {
		t.Fatal("corrupted payload still matches its sum — injection missed")
	}

	// The @1 cap is spent; the next dispatch is honest again.
	resp = postUnit(t, ts.URL, assign)
	err = cluster.DecodeFrame(resp.Body, cluster.FrameResult, &res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := rcache.ContentSum(res.Report, res.Paths); got != res.Sum {
		t.Fatalf("post-injection sum %s does not cover the bytes (computed %s)", res.Sum, got)
	}
}

// TestClusterUnitWorkerSendFaults drives the worker-send injection point on
// the real handler: each fault mode produces exactly the failure shape the
// coordinator's transport layer classifies — dead link, bad CRC, trailing
// duplicate, slow trickle.
func TestClusterUnitWorkerSendFaults(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	unit := pallas.Unit{Name: "a.c", Source: testSource, Spec: testSpec}
	dispatch := func() (cluster.ResultPayload, []byte, error) {
		body, err := cluster.EncodeFrame(cluster.FrameAssign, cluster.AssignPayload{
			Unit: unit.Name, Hash: unit.Hash(), Source: unit.Source, Spec: unit.Spec, Attempt: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/cluster/unit", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return cluster.ResultPayload{}, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return cluster.ResultPayload{}, nil, err
		}
		var res cluster.ResultPayload
		err = cluster.DecodeFrame(bytes.NewReader(raw), cluster.FrameResult, &res)
		return res, raw, err
	}

	t.Run("drop", func(t *testing.T) {
		if err := failpoint.Arm("worker-send=drop@1"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm()
		if _, _, err := dispatch(); err == nil {
			t.Fatal("dropped result produced no transport error")
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		if err := failpoint.Arm("worker-send=corrupt@1"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm()
		if _, _, err := dispatch(); err == nil {
			t.Fatal("corrupted frame decoded cleanly — CRC did not catch it")
		}
	})
	t.Run("dup", func(t *testing.T) {
		if err := failpoint.Arm("worker-send=dup@1"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm()
		res, raw, err := dispatch()
		if err != nil {
			t.Fatalf("duplicate delivery broke the first frame: %v", err)
		}
		if res.Status != "ok" {
			t.Fatalf("result: %+v", res)
		}
		if len(raw)%2 != 0 {
			t.Fatalf("body is %d bytes, want an exact doubled frame", len(raw))
		}
		if !bytes.Equal(raw[:len(raw)/2], raw[len(raw)/2:]) {
			t.Fatal("trailing bytes are not a duplicate of the first frame")
		}
	})
	t.Run("drip", func(t *testing.T) {
		if err := failpoint.Arm("worker-send=drip:1ms@1"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm()
		res, _, err := dispatch()
		if err != nil {
			t.Fatalf("dripped frame failed to decode: %v", err)
		}
		if res.Status != "ok" {
			t.Fatalf("result: %+v", res)
		}
	})
	// And clean afterwards: no residual fault state.
	res, _, err := dispatch()
	if err != nil || res.Status != "ok" {
		t.Fatalf("post-fault dispatch: %v %+v", err, res)
	}
}

// TestClusterPingDropFailpoint: worker-ping=drop kills the liveness plane
// only — the probe dies at the transport layer while the very next one
// (past the @1 cap) answers normally. This is the knob the gray-failure
// e2e uses to manufacture an asymmetric partition.
func TestClusterPingDropFailpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := failpoint.Arm("worker-ping=drop@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	if resp, err := http.Get(ts.URL + "/v1/cluster/ping"); err == nil {
		resp.Body.Close()
		t.Fatal("dropped ping answered")
	}
	resp, err := http.Get(ts.URL + "/v1/cluster/ping")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ping: %d, want 200", resp.StatusCode)
	}
}
