package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pallas"
	"pallas/internal/failpoint"
	"pallas/internal/overload"
)

// postWithClient posts an analyze request with an X-Pallas-Client header and
// decodes the error body (if any) alongside the raw bytes.
func postWithClient(t *testing.T, url, client string, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if client != "" {
		hreq.Header.Set(ClientHeader, client)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeErrorBodyGolden pins the exact bytes of the structured error
// body on both a validation failure (no retry hint) and an overload shed
// (with retry_after_ms). Clients parse this shape; changing it is an API
// break and must show up as a diff here.
func TestServeErrorBodyGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postWithClient(t, ts.URL, "", AnalyzeRequest{Name: "v.c"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation status = %d", resp.StatusCode)
	}
	golden := "{\n  \"error\": \"source is required\"\n}\n"
	if string(raw) != golden {
		t.Fatalf("validation body drifted\n--- got ---\n%q\n--- want ---\n%q", raw, golden)
	}

	s.StartDrain()
	resp, raw = postWithClient(t, ts.URL, "", AnalyzeRequest{Name: "d.c", Source: testSource})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d", resp.StatusCode)
	}
	goldenShed := "{\n  \"error\": \"draining\",\n  \"retry_after_ms\": 1000\n}\n"
	if string(raw) != goldenShed {
		t.Fatalf("shed body drifted\n--- got ---\n%q\n--- want ---\n%q", raw, goldenShed)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}
}

// TestServeQueueFullShed fills the one worker and the one queue slot, then
// proves the next request is shed immediately with 503, a Retry-After
// header, and a machine-readable retry_after_ms — while the admitted and
// queued requests still complete normally.
func TestServeQueueFullShed(t *testing.T) {
	if err := failpoint.Arm("pre-parse=sleep:300ms"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		out  AnalyzeResponse
	}
	results := make(chan result, 2)
	post := func(name string) {
		resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{
			Name:   name,
			Source: strings.ReplaceAll(testSource, "fast_path", "f_"+strings.TrimSuffix(name, ".c")),
			Spec:   strings.ReplaceAll(testSpec, "fast_path", "f_"+strings.TrimSuffix(name, ".c")),
		})
		results <- result{code: resp.StatusCode, out: out}
	}

	go post("a.c")
	waitFor(t, "first request in flight", func() bool { return s.ctrl.InFlight() == 1 })
	go post("b.c")
	waitFor(t, "second request queued", func() bool { return s.ctrl.QueueDepth() == 1 })

	// Queue full: the third request is shed without waiting.
	shedStart := time.Now()
	resp, raw := postWithClient(t, ts.URL, "", AnalyzeRequest{Name: "c.c", Source: testSource, Spec: testSpec})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full status = %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(shedStart); elapsed > 150*time.Millisecond {
		t.Fatalf("queue-full shed took %v — it must not wait in line", elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full shed missing Retry-After header")
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("shed body not JSON: %s", raw)
	}
	if !strings.Contains(eb.Error, "queue full") || eb.RetryAfterMS <= 0 {
		t.Fatalf("shed body = %+v", eb)
	}

	// The admitted and queued requests are unharmed by the shed.
	for i := 0; i < 2; i++ {
		got := <-results
		if got.code != http.StatusOK {
			t.Fatalf("surviving request %d: status %d", i, got.code)
		}
	}
	if shed := s.ctrl.Shed(); shed.QueueFull != 1 {
		t.Fatalf("shed stats = %+v, want QueueFull 1", shed)
	}
}

// TestServeDeadlineShed proves max_wait_ms bounds admission wait: with the
// single worker busy for 300ms, a request that will only wait 40ms is shed
// at its deadline, long before the worker frees up.
func TestServeDeadlineShed(t *testing.T) {
	if err := failpoint.Arm("pre-parse=sleep:300ms/slow.c"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "slow.c", Source: testSource, Spec: testSpec})
		done <- resp.StatusCode
	}()
	waitFor(t, "slow request in flight", func() bool { return s.ctrl.InFlight() == 1 })

	start := time.Now()
	resp, raw := postWithClient(t, ts.URL, "", AnalyzeRequest{
		Name: "hurry.c", Source: testSource, Spec: testSpec, MaxWaitMS: 40,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline status = %d, want 503", resp.StatusCode)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("deadline shed took %v, want ~40ms", elapsed)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "deadline") {
		t.Fatalf("deadline body = %+v", eb)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("slow request status = %d", code)
	}
	if shed := s.ctrl.Shed(); shed.Deadline != 1 {
		t.Fatalf("shed stats = %+v, want Deadline 1", shed)
	}
}

// TestServeShedsOnlyBeyondCapacity offers simultaneous bursts of 1x, 4x and
// 16x the admission capacity (4 workers, 4 queue slots, 20ms per analysis):
// the 1x burst sheds nothing, the 16x burst sheds something, every shed is
// a 503 with Retry-After, and no other status appears.
func TestServeShedsOnlyBeyondCapacity(t *testing.T) {
	if err := failpoint.Arm("pre-parse=sleep:20ms"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	const workers = 4
	s := newTestServer(t, Config{Workers: workers, MaxQueue: workers})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	shed := map[int]int{}
	for _, mult := range []int{1, 4, 16} {
		offered := mult * workers
		codes := make([]int, offered)
		retry := make([]string, offered)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fn := fmt.Sprintf("l%dx_%d", mult, i)
				resp, _ := postWithClient(t, ts.URL, "", AnalyzeRequest{
					Name:   fn + ".c",
					Source: strings.ReplaceAll(testSource, "fast_path", fn),
					Spec:   strings.ReplaceAll(testSpec, "fast_path", fn),
				})
				codes[i], retry[i] = resp.StatusCode, resp.Header.Get("Retry-After")
			}(i)
		}
		wg.Wait()
		for i, code := range codes {
			switch code {
			case http.StatusOK:
			case http.StatusServiceUnavailable:
				shed[mult]++
				if retry[i] == "" {
					t.Errorf("load %dx request %d: shed without Retry-After", mult, i)
				}
			default:
				t.Fatalf("load %dx request %d: status %d, want 200 or 503", mult, i, code)
			}
		}
	}
	if shed[1] != 0 {
		t.Fatalf("1x load shed %d requests", shed[1])
	}
	if shed[16] == 0 {
		t.Fatal("16x load shed nothing: admission control not engaging")
	}
}

// TestServeRateLimit checks the per-client token bucket: one client
// exhausting its burst gets 429 with a Retry-After hint while a different
// client is still served, and the shed metric moves.
func TestServeRateLimit(t *testing.T) {
	s := newTestServer(t, Config{RatePerClient: 0.5, RateBurst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Name: "r.c", Source: testSource, Spec: testSpec}
	if resp, _ := postWithClient(t, ts.URL, "alice", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("first alice request: status %d", resp.StatusCode)
	}
	resp, raw := postWithClient(t, ts.URL, "alice", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "rate limit") || eb.RetryAfterMS <= 0 {
		t.Fatalf("429 body = %+v", eb)
	}
	// A different client has its own bucket.
	if resp, _ := postWithClient(t, ts.URL, "bob", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob request: status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), MetricShedRateLimited+" 1\n") {
		t.Fatalf("/metrics missing rate-limit shed count\n%s", mb)
	}
}

// TestServeVerboseHealthz checks the operator view: queue/breaker detail
// appears only with ?verbose=1 and reflects reality.
func TestServeVerboseHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, MaxQueue: 7,
		Analyzer: pallas.Config{AnalysisWorkers: 3}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postAnalyze(t, ts.URL, AnalyzeRequest{Name: "h.c", Source: testSource, Spec: testSpec})

	// Plain healthz stays lean: no overload fields.
	plain, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := io.ReadAll(plain.Body)
	plain.Body.Close()
	if strings.Contains(string(pb), "max_queue") {
		t.Fatalf("plain healthz leaked verbose fields: %s", pb)
	}

	resp, err := http.Get(ts.URL + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 4 || h.InFlight != 0 {
		t.Fatalf("verbose healthz base = %+v", h.healthBody)
	}
	if h.MaxQueue != 7 {
		t.Fatalf("max_queue = %d, want 7", h.MaxQueue)
	}
	if h.AnalysisWorkers != 3 {
		t.Fatalf("analysis_workers = %d, want 3", h.AnalysisWorkers)
	}
	if h.QueueDepth != 0 || h.Admitted != 1 || h.Shed != (overload.ShedStats{}) {
		t.Fatalf("admission view = %+v", h)
	}
	if h.CacheTier != "memory-only" {
		t.Fatalf("cache tier = %q, want memory-only", h.CacheTier)
	}
}

// TestServeDrainRejectsQueued is the drain-composition bugfix test: a
// request waiting in the admission queue is rejected the moment drain
// starts — it does not sit in the queue until its deadline while shutdown
// waits on it — and the in-flight request still completes.
func TestServeDrainRejectsQueued(t *testing.T) {
	if err := failpoint.Arm("pre-parse=sleep:500ms/slow.c"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inFlight := make(chan int, 1)
	go func() {
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "slow.c", Source: testSource, Spec: testSpec})
		inFlight <- resp.StatusCode
	}()
	waitFor(t, "slow request in flight", func() bool { return s.ctrl.InFlight() == 1 })

	type queuedResult struct {
		code    int
		elapsed time.Duration
	}
	queued := make(chan queuedResult, 1)
	go func() {
		start := time.Now()
		resp, raw := postWithClient(t, ts.URL, "", AnalyzeRequest{Name: "q.c", Source: testSource})
		_ = raw
		queued <- queuedResult{code: resp.StatusCode, elapsed: time.Since(start)}
	}()
	waitFor(t, "second request queued", func() bool { return s.ctrl.QueueDepth() == 1 })

	drainStart := time.Now()
	s.StartDrain()
	got := <-queued
	if got.code != http.StatusServiceUnavailable {
		t.Fatalf("queued request status = %d, want 503", got.code)
	}
	if wait := time.Since(drainStart); wait > 200*time.Millisecond {
		t.Fatalf("queued request held %v after drain — must be rejected immediately", wait)
	}
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", code)
	}
	if shed := s.ctrl.Shed(); shed.Draining != 1 {
		t.Fatalf("shed stats = %+v, want Draining 1", shed)
	}
}

// TestServeBreakerSurfacing injects persistent-tier store faults and proves
// the request path never sees them: analyses return 200, the persist-fault
// counter moves, and the verbose health view shows the tier tripped open.
func TestServeBreakerSurfacing(t *testing.T) {
	if err := failpoint.Arm("cache-store=error"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := newTestServer(t, Config{CacheDir: t.TempDir(), BreakerThreshold: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "bf.c", Source: testSource, Spec: testSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze with failing disk: status %d, want 200 (memory tier carries it)", resp.StatusCode)
	}
	if out.Cache != "miss" || out.Warnings == 0 {
		t.Fatalf("result incomplete despite healthy analysis: %+v", out)
	}

	// Warm repeat: served from memory, still 200.
	warm, wout := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "bf.c", Source: testSource, Spec: testSpec})
	if warm.StatusCode != http.StatusOK || wout.Cache != "hit" {
		t.Fatalf("warm repeat = %d %q", warm.StatusCode, wout.Cache)
	}

	hresp, err := http.Get(ts.URL + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.CacheTier != "open" {
		t.Fatalf("cache tier = %q, want open after store fault (threshold 1)", h.CacheTier)
	}
	if h.CacheDiskFaults != 1 || h.BreakerTrips != 1 {
		t.Fatalf("breaker view = faults %d trips %d", h.CacheDiskFaults, h.BreakerTrips)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		MetricPersistFaults + " 1\n",
		MetricBreakerState + " 2\n",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q\n%s", want, mb)
		}
	}
}
