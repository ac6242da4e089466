package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHealthScoreProbationHysteresis drives the composite score directly:
// a worker 10x slower than the fleet's best drops below the demote bound
// and lands on probation; recovering to near-parity crosses the promote
// bound and rejoins. The gap between the two bounds is what keeps a
// borderline worker from flapping.
func TestHealthScoreProbationHysteresis(t *testing.T) {
	c, err := NewCoordinator(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	fast := &workerState{addr: "a:1", live: true, lastBeat: now}
	slow := &workerState{addr: "b:1", live: true, lastBeat: now}
	fast.h.latEWMA = 10
	slow.h.latEWMA = 100
	c.workers["a:1"] = fast
	c.workers["b:1"] = slow

	c.mu.Lock()
	c.updateHealthLocked(now)
	c.mu.Unlock()
	if fast.h.probation || fast.h.score < 0.99 {
		t.Fatalf("fast worker: score %.3f probation %v, want healthy at 1.0", fast.h.score, fast.h.probation)
	}
	if !slow.h.probation {
		t.Fatalf("slow worker not demoted: score %.3f", slow.h.score)
	}
	if slow.h.state(true) != "probation" || fast.h.state(true) != "healthy" {
		t.Fatalf("states: fast %q slow %q", fast.h.state(true), slow.h.state(true))
	}
	if got := c.Stats().Probations; got != 1 {
		t.Fatalf("probations counted: %d, want 1", got)
	}

	// Partial recovery inside the hysteresis band: still on probation.
	slow.h.latEWMA = 18 // score ~0.56: above demote, below promote
	c.mu.Lock()
	c.updateHealthLocked(now)
	c.mu.Unlock()
	if !slow.h.probation {
		t.Fatalf("worker promoted inside the hysteresis band (score %.3f)", slow.h.score)
	}

	// Full recovery: promoted.
	slow.h.latEWMA = 12
	c.mu.Lock()
	c.updateHealthLocked(now)
	c.mu.Unlock()
	if slow.h.probation {
		t.Fatalf("worker not promoted after recovery (score %.3f)", slow.h.score)
	}

	// A silent worker decays through the heartbeat factor even with perfect
	// latency: no beat for the whole miss budget means score zero.
	slow.lastBeat = now.Add(-10 * c.opts.HeartbeatInterval)
	c.mu.Lock()
	c.updateHealthLocked(now)
	c.mu.Unlock()
	if slow.h.score > 0.01 {
		t.Fatalf("silent worker score %.3f, want ~0", slow.h.score)
	}
}

// TestHedgeThreshold pins the threshold rule: the HedgeAfter floor rules
// until enough samples exist, then p95 x 3 takes over when larger.
func TestHedgeThreshold(t *testing.T) {
	opts := testOpts()
	opts.HedgeAfter = time.Second
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if thr := c.hedgeThresholdLocked(); thr != time.Second {
		t.Fatalf("no samples: threshold %s, want the 1s floor", thr)
	}
	for i := 0; i < 16; i++ {
		c.observeLatencyLocked(10 * time.Millisecond)
	}
	if thr := c.hedgeThresholdLocked(); thr != time.Second {
		t.Fatalf("fast fleet: threshold %s, want the floor to clamp (p95x3 = 30ms)", thr)
	}
	for i := 0; i < 256; i++ {
		c.observeLatencyLocked(600 * time.Millisecond)
	}
	thr := c.hedgeThresholdLocked()
	if thr < 1700*time.Millisecond || thr > 1900*time.Millisecond {
		t.Fatalf("slow fleet: threshold %s, want ~1.8s (p95 600ms x 3)", thr)
	}
	p50, p95, p99 := c.latQuantilesLocked()
	if p50 != 600 || p95 != 600 || p99 != 600 {
		t.Fatalf("quantiles after uniform fill: %v %v %v, want 600", p50, p95, p99)
	}
}

// TestClusterHedgeRescuesSlowWorker is the tail-latency proof: one worker
// analyzes correctly but 100x too slowly — alive by every heartbeat,
// never evicted. Hedging re-dispatches its stuck units to the healthy
// worker, first completion wins, and the run finishes in hedge time, not
// straggler time.
func TestClusterHedgeRescuesSlowWorker(t *testing.T) {
	const slowDelay = 1200 * time.Millisecond
	slow := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		time.Sleep(slowDelay)
		return http.StatusOK, okResult(a, "")
	})
	fast := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, okResult(a, "")
	})
	opts := testOpts()
	opts.HedgeAfter = 100 * time.Millisecond
	opts.HedgeMax = 4
	units := mkUnits(6)
	start := time.Now()
	outcomes, stats, err := runCluster(t, opts, []*fakeWorker{slow, fast}, units)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("run: %v (stats %+v)", err, stats)
	}
	if stats.Completed != len(units) {
		t.Fatalf("completed %d/%d (stats %+v)", stats.Completed, len(units), stats)
	}
	if stats.Hedges == 0 || stats.HedgeWins == 0 {
		t.Fatalf("hedging never fired: %d hedges, %d wins (stats %+v)", stats.Hedges, stats.HedgeWins, stats)
	}
	// Without hedging the slow worker's share (~half of 6 units at 1.2s,
	// two lanes) holds the run past 1.8s; with it the fast worker absorbs
	// everything shortly after the 100ms threshold.
	if elapsed > slowDelay {
		t.Fatalf("run took %s — hedging did not rescue the straggler's units", elapsed)
	}
	for _, o := range outcomes {
		if o.Status.Terminal() && o.Err != "" {
			t.Fatalf("%s failed: %s", o.Unit, o.Err)
		}
	}
}

// TestClusterProbationDrainsLoad: a worker that fails its first dispatches
// transiently accumulates error EWMA, is demoted, and the fleet routes
// around it; the run still completes with every unit on the healthy
// worker or on the probe trickle — and the worker table reports the
// demotion.
func TestClusterProbationDrainsLoad(t *testing.T) {
	opts := testOpts()
	opts.Retries = 5 // transient failures burn attempts; give them room
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fails := 0
	flaky := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		mu.Lock()
		fails++
		n := fails
		mu.Unlock()
		if n <= 3 {
			return http.StatusOK, ResultPayload{
				Unit: a.Unit, Hash: a.Hash, Attempt: a.Attempt, Status: "failed",
				Err: "injected transient", Transient: true, Epoch: a.Epoch,
			}
		}
		// Withhold every success until the demotion lands: a success would
		// decay the error EWMA, and on a fast host the whole run can finish
		// between two 25ms health ticks — the tick must get one look at the
		// degraded score while it is still degraded.
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Probations == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		return http.StatusOK, okResult(a, "")
	})
	steady := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, okResult(a, "")
	})
	c.AddWorker(flaky.addr())
	c.AddWorker(steady.addr())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outcomes, stats, err := c.Run(ctx, mkUnits(8))
	if err != nil {
		t.Fatalf("run: %v (stats %+v)", err, stats)
	}
	if stats.Completed != 8 || stats.Quarantined != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Probations == 0 {
		t.Fatalf("flaky worker never demoted (stats %+v)", stats)
	}
	var sawFlaky bool
	for _, row := range c.WorkerTable() {
		if row.Addr == flaky.addr() {
			sawFlaky = true
			if row.ErrorRate == 0 {
				t.Fatalf("flaky worker table row shows no error rate: %+v", row)
			}
		}
		if row.State != "healthy" && row.State != "probation" && row.State != "evicted" {
			t.Fatalf("row %s has unknown state %q", row.Addr, row.State)
		}
	}
	if !sawFlaky {
		t.Fatal("worker table missing the flaky worker")
	}
	_ = outcomes
}

// TestStatusHandlerVerboseWorkerTable pins the observability contract that
// PROTOCOL.md documents: /healthz?verbose=1 carries the run counters
// (hedges, stale completions, integrity failures, probations, latency
// quantiles) and a per-worker table with the health columns; /metrics
// exposes the gray-failure series.
func TestStatusHandlerVerboseWorkerTable(t *testing.T) {
	opts := testOpts()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	healthy := &workerState{addr: "a:1", live: true, lastBeat: now}
	healthy.h.latEWMA = 10
	grayed := &workerState{addr: "b:1", live: true, lastBeat: now}
	grayed.h.latEWMA = 100
	c.workers["a:1"] = healthy
	c.workers["b:1"] = grayed
	c.mu.Lock()
	c.updateHealthLocked(now)
	c.mu.Unlock()

	ts := httptest.NewServer(StatusHandler(c, opts.Metrics))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status  string `json:"status"`
		Stats   Stats  `json:"stats"`
		Workers []struct {
			Addr      string  `json:"addr"`
			State     string  `json:"state"`
			Score     float64 `json:"score"`
			ErrorRate float64 `json:"error_rate"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || len(body.Workers) != 2 {
		t.Fatalf("verbose healthz: %+v", body)
	}
	if body.Stats.Probations != 1 {
		t.Fatalf("stats.Probations = %d, want 1 (the run counters must ride verbose healthz)", body.Stats.Probations)
	}
	states := map[string]string{}
	for _, w := range body.Workers {
		states[w.Addr] = w.State
		if w.Score < 0 || w.Score > 1 {
			t.Fatalf("worker %s score %v outside [0,1]", w.Addr, w.Score)
		}
	}
	if states["a:1"] != "healthy" || states["b:1"] != "probation" {
		t.Fatalf("worker states: %v", states)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, name := range []string{
		"pallas_cluster_hedges_total",
		"pallas_cluster_stale_completions_total",
		"pallas_cluster_integrity_failures_total",
		"pallas_cluster_worker_probations_total",
		"pallas_cluster_workers_probation",
		"pallas_cluster_worker_health_min_x1000",
	} {
		if !strings.Contains(string(raw), name) {
			t.Fatalf("metric %s missing from /metrics exposition", name)
		}
	}
}
