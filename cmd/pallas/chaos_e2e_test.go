package main

// Chaos acceptance run for the overload layer, against the real binary with
// failpoints armed from the environment: a `pallas serve` process whose every
// analysis costs an injected 60ms and whose persistent cache disk faults on
// its first three stores must
//
//   - serve every request whose analysis succeeded, disk faults or not,
//     while the cache breaker trips to memory-only mode and later recovers;
//   - under a 16x burst of offered load, keep admitted-request latency within
//     2x the unloaded baseline by shedding the excess with 503 + Retry-After;
//   - drain on SIGTERM within -drain-timeout, completing in-flight work.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// chaosHealth mirrors the verbose healthz fields the chaos run asserts on.
type chaosHealth struct {
	Status          string `json:"status"`
	CacheTier       string `json:"cache_tier"`
	CacheDiskFaults int64  `json:"cache_disk_faults"`
	BreakerTrips    int64  `json:"cache_breaker_trips"`
	Shed            struct {
		QueueFull int64 `json:"queue_full"`
	} `json:"shed"`
}

func chaosHealthz(t *testing.T, url string) chaosHealth {
	t.Helper()
	resp, err := http.Get(url + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h chaosHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// chaosPost posts one distinct unit and returns status, latency, Retry-After
// header, and decoded error body (for non-200s).
func chaosPost(t *testing.T, url, name string) (int, time.Duration, string, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{
		"name": name,
		"source": strings.ReplaceAll(`
int fast_path(int mode)
{
	if (mode == 0) {
		mode = 1;
		return 1;
	}
	return 0;
}
`, "fast_path", "f_"+strings.TrimSuffix(name, ".c")),
		"spec": strings.ReplaceAll("fastpath fast_path\nimmutable mode\n",
			"fast_path", "f_"+strings.TrimSuffix(name, ".c")),
	})
	start := time.Now()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var errBody map[string]any
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(raw, &errBody); err != nil {
			t.Fatalf("%s: non-200 body is not JSON: %s", name, raw)
		}
	}
	return resp.StatusCode, elapsed, resp.Header.Get("Retry-After"), errBody
}

// TestServeChaosOverloadAndBreaker is the issue's chaos acceptance run.
func TestServeChaosOverloadAndBreaker(t *testing.T) {
	const workers = 4
	cmd, url, stderr := startServe(t,
		// Every analysis sleeps 60ms; the first three cache stores fault.
		[]string{"PALLAS_FAILPOINTS=pre-parse=sleep:60ms;cache-store=error@3"},
		"-cache-dir", t.TempDir(),
		"-workers", fmt.Sprint(workers),
		"-max-queue", "-1", // strict-latency config: shed instead of queueing
		"-breaker-threshold", "3",
		"-breaker-cooldown", "300ms",
		"-drain-timeout", "10s")

	// Phase 1 — unloaded baseline, and the breaker trip: three sequential
	// analyses succeed (200) even though each one's cache store faults; the
	// third fault trips the persistent tier open.
	var baseline time.Duration
	for i := 0; i < 3; i++ {
		code, elapsed, _, _ := chaosPost(t, url, fmt.Sprintf("base%d.c", i))
		if code != http.StatusOK {
			t.Fatalf("baseline request %d with faulting disk: status %d, want 200", i, code)
		}
		if elapsed > baseline {
			baseline = elapsed
		}
	}
	h := chaosHealthz(t, url)
	if h.CacheTier != "open" || h.CacheDiskFaults != 3 || h.BreakerTrips != 1 {
		t.Fatalf("after 3 store faults: health = %+v, want open tier, 3 faults, 1 trip", h)
	}

	// Phase 2 — breaker recovery: the fault budget (@3) is spent and the
	// cooldown has passed, so the next store is the half-open probe and
	// succeeds, closing the breaker.
	time.Sleep(350 * time.Millisecond)
	if code, _, _, _ := chaosPost(t, url, "probe.c"); code != http.StatusOK {
		t.Fatalf("probe request: status %d", code)
	}
	if h = chaosHealthz(t, url); h.CacheTier != "closed" {
		t.Fatalf("after recovery probe: cache tier = %q, want closed", h.CacheTier)
	}

	// Phase 3 — 16x offered load: 64 simultaneous distinct units against 4
	// workers. Admission control must shed the excess immediately (503 with a
	// usable Retry-After) so the admitted requests' latency stays within 2x
	// the unloaded baseline.
	const offered = 16 * workers
	type outcome struct {
		code       int
		elapsed    time.Duration
		retryAfter string
		body       map[string]any
	}
	outcomes := make([]outcome, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, elapsed, ra, body := chaosPost(t, url, fmt.Sprintf("load%d.c", i))
			outcomes[i] = outcome{code, elapsed, ra, body}
		}(i)
	}
	wg.Wait()

	var admittedLat []time.Duration
	shed := 0
	for i, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			admittedLat = append(admittedLat, o.elapsed)
		case http.StatusServiceUnavailable:
			shed++
			if o.retryAfter == "" {
				t.Fatalf("request %d shed without Retry-After", i)
			}
			if ms, ok := o.body["retry_after_ms"].(float64); !ok || ms <= 0 {
				t.Fatalf("request %d shed body lacks retry_after_ms: %v", i, o.body)
			}
		default:
			t.Fatalf("request %d: unexpected status %d (%v)", i, o.code, o.body)
		}
	}
	if len(admittedLat) < workers {
		t.Fatalf("admitted %d requests, want >= %d", len(admittedLat), workers)
	}
	if shed == 0 {
		t.Fatal("16x load shed nothing — admission control is not engaging")
	}
	sort.Slice(admittedLat, func(i, j int) bool { return admittedLat[i] < admittedLat[j] })
	p99 := admittedLat[(len(admittedLat)*99+99)/100-1]
	if p99 > 2*baseline {
		t.Fatalf("p99 admitted latency %v exceeds 2x unloaded baseline %v (admitted %d, shed %d)",
			p99, baseline, len(admittedLat), shed)
	}
	if h = chaosHealthz(t, url); h.Shed.QueueFull == 0 {
		t.Fatalf("shed accounting missing from healthz: %+v", h)
	}

	// Phase 4 — SIGTERM drain under the same chaos config: an in-flight
	// analysis completes, the process exits 0 well inside -drain-timeout.
	inflight := make(chan int, 1)
	go func() {
		code, _, _, _ := chaosPost(t, url, "drain.c")
		inflight <- code
	}()
	time.Sleep(20 * time.Millisecond) // inside drain.c's 60ms analysis window
	drainStart := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d", code)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exited non-zero: %v\nstderr:\n%s", err, stderr.String())
	}
	if drained := time.Since(drainStart); drained > 10*time.Second {
		t.Fatalf("drain took %v, over -drain-timeout", drained)
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("missing drain notice:\n%s", stderr.String())
	}
}
