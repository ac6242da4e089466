package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pallas"
	"pallas/internal/failpoint"
	"pallas/internal/journal"
	"pallas/internal/metrics"
	"pallas/internal/rcache"
)

// fakeWorker is an httptest-backed cluster worker whose behavior per unit
// dispatch is scripted by behave. Its heartbeat and unit endpoints can be
// "killed" (connections dropped mid-request) to simulate a crashed process.
type fakeWorker struct {
	t  *testing.T
	ts *httptest.Server

	mu       sync.Mutex
	perUnit  map[string]int // dispatch count per unit name
	requests int

	dead     atomic.Bool // drop every connection, as a SIGKILLed process would
	pingDead atomic.Bool // drop only heartbeats: the gray half-partition

	// behave decides one dispatch: return (503, _) to shed, or (200, res).
	// seen is how many times this unit has been dispatched here, 1-based.
	behave func(a AssignPayload, seen int) (int, ResultPayload)

	// sendFault, when non-nil, injects a network fault into the result's
	// trip home (the worker-send fault set, scripted per dispatch instead
	// of env-armed).
	sendFault func(a AssignPayload, seen int) failpoint.NetAction
}

func okResult(a AssignPayload, worker string) ResultPayload {
	report := json.RawMessage(fmt.Sprintf(`{"unit":%q,"warnings":[]}`, a.Unit))
	paths := json.RawMessage(fmt.Sprintf(`{"unit":%q,"entries":{}}`, a.Unit))
	return ResultPayload{
		Unit: a.Unit, Hash: a.Hash, Attempt: a.Attempt, Status: "ok",
		Report: report, Paths: paths,
		Worker: worker, Epoch: a.Epoch,
		Sum: rcache.ContentSum(report, paths),
	}
}

func newFakeWorker(t *testing.T, behave func(a AssignPayload, seen int) (int, ResultPayload)) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{t: t, perUnit: map[string]int{}, behave: behave}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/ping", func(w http.ResponseWriter, r *http.Request) {
		if fw.dead.Load() || fw.pingDead.Load() {
			dropConn(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/cluster/unit", func(w http.ResponseWriter, r *http.Request) {
		if fw.dead.Load() {
			dropConn(w)
			return
		}
		var a AssignPayload
		if err := DecodeFrame(r.Body, FrameAssign, &a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fw.mu.Lock()
		fw.requests++
		fw.perUnit[a.Unit]++
		seen := fw.perUnit[a.Unit]
		fw.mu.Unlock()
		code, res := fw.behave(a, seen)
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(code)
			return
		}
		if res.Worker == "" {
			res.Worker = fw.addr()
		}
		if fw.sendFault != nil {
			switch fw.sendFault(a, seen) {
			case failpoint.NetDrop:
				dropConn(w)
				return
			case failpoint.NetCorrupt:
				frame, err := EncodeFrame(FrameResult, res)
				if err != nil {
					fw.t.Errorf("fake worker encode frame: %v", err)
					return
				}
				w.Write(failpoint.Corrupt(frame))
				return
			case failpoint.NetDup:
				frame, err := EncodeFrame(FrameResult, res)
				if err != nil {
					fw.t.Errorf("fake worker encode frame: %v", err)
					return
				}
				w.Write(frame)
				w.Write(frame)
				return
			case failpoint.NetDrip:
				frame, err := EncodeFrame(FrameResult, res)
				if err != nil {
					fw.t.Errorf("fake worker encode frame: %v", err)
					return
				}
				for off := 0; off < len(frame); off += 16 {
					end := off + 16
					if end > len(frame) {
						end = len(frame)
					}
					w.Write(frame[off:end])
					if fl, ok := w.(http.Flusher); ok {
						fl.Flush()
					}
					time.Sleep(time.Millisecond)
				}
				return
			}
		}
		if err := WriteFrame(w, FrameResult, res); err != nil {
			fw.t.Errorf("fake worker write frame: %v", err)
		}
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

// dropConn kills the client connection without a response — what a crashed
// worker process looks like from the coordinator.
func dropConn(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}
}

func (fw *fakeWorker) addr() string { return strings.TrimPrefix(fw.ts.URL, "http://") }

func (fw *fakeWorker) dispatches() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.requests
}

func mkUnits(n int) []pallas.Unit {
	units := make([]pallas.Unit, n)
	for i := range units {
		units[i] = pallas.Unit{
			Name:   fmt.Sprintf("u%02d.c", i),
			Source: fmt.Sprintf("int f%d(void) { return %d; }", i, i),
		}
	}
	return units
}

func testOpts() Options {
	return Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   2,
		RequestTimeout:    5 * time.Second,
		Inflight:          2,
		Retries:           2,
		RetryBackoff:      10 * time.Millisecond,
		WorkerlessGrace:   3 * time.Second,
		Metrics:           metrics.NewRegistry(),
	}
}

func runCluster(t *testing.T, opts Options, workers []*fakeWorker, units []pallas.Unit) ([]Outcome, Stats, error) {
	t.Helper()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, fw := range workers {
		c.AddWorker(fw.addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.Run(ctx, units)
}

func TestClusterHappyPath(t *testing.T) {
	behave := func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, okResult(a, "")
	}
	w1, w2 := newFakeWorker(t, behave), newFakeWorker(t, behave)
	units := mkUnits(8)
	outcomes, stats, err := runCluster(t, testOpts(), []*fakeWorker{w1, w2}, units)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 8 || stats.Failed+stats.Quarantined != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	for i, o := range outcomes {
		if o.Unit != units[i].Name {
			t.Fatalf("outcome %d out of input order: got %s, want %s", i, o.Unit, units[i].Name)
		}
		if o.Status != journal.StatusOK || o.Attempts != 1 {
			t.Fatalf("outcome %s: %+v", o.Unit, o)
		}
		want := fmt.Sprintf(`{"unit":%q,"warnings":[]}`, o.Unit)
		if string(o.Report) != want {
			t.Fatalf("outcome %s report: got %s, want %s", o.Unit, o.Report, want)
		}
	}
	if w1.dispatches() == 0 || w2.dispatches() == 0 {
		t.Fatalf("dispatch imbalance: w1=%d w2=%d", w1.dispatches(), w2.dispatches())
	}
}

func TestClusterBackpressureRequeuesWithoutBurningAttempt(t *testing.T) {
	// The worker sheds each unit's first dispatch with 503; the retry must
	// not count as an attempt (admission was refused, no analysis started).
	behave := func(a AssignPayload, seen int) (int, ResultPayload) {
		if seen == 1 {
			return http.StatusServiceUnavailable, ResultPayload{}
		}
		return http.StatusOK, okResult(a, "")
	}
	w := newFakeWorker(t, behave)
	outcomes, stats, err := runCluster(t, testOpts(), []*fakeWorker{w}, mkUnits(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Backpressure == 0 {
		t.Fatalf("no backpressure recorded: %+v", stats)
	}
	if stats.Requeues != 0 {
		t.Fatalf("shed dispatches must not count as failure requeues: %+v", stats)
	}
	for _, o := range outcomes {
		if o.Status != journal.StatusOK || o.Attempts != 1 {
			t.Fatalf("outcome %s: status=%s attempts=%d", o.Unit, o.Status, o.Attempts)
		}
	}
}

func TestClusterTransientFailureRetries(t *testing.T) {
	behave := func(a AssignPayload, seen int) (int, ResultPayload) {
		if seen == 1 {
			return http.StatusOK, ResultPayload{Unit: a.Unit, Hash: a.Hash, Attempt: a.Attempt,
				Status: "failed", Err: "injected panic", Transient: true}
		}
		return http.StatusOK, okResult(a, "")
	}
	w := newFakeWorker(t, behave)
	outcomes, stats, err := runCluster(t, testOpts(), []*fakeWorker{w}, mkUnits(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeues != 2 || stats.Completed != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, o := range outcomes {
		if o.Status != journal.StatusOK || o.Attempts != 2 {
			t.Fatalf("outcome %s: status=%s attempts=%d", o.Unit, o.Status, o.Attempts)
		}
	}
}

func TestClusterDeterministicFailureNotRetried(t *testing.T) {
	behave := func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, ResultPayload{Unit: a.Unit, Hash: a.Hash, Attempt: a.Attempt,
			Status: "failed", Err: "parse error", Transient: false}
	}
	w := newFakeWorker(t, behave)
	outcomes, stats, err := runCluster(t, testOpts(), []*fakeWorker{w}, mkUnits(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Requeues != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	o := outcomes[0]
	if o.Status != journal.StatusFailed || o.Attempts != 1 || o.Err != "parse error" {
		t.Fatalf("outcome: %+v", o)
	}
}

func TestClusterQuarantineAfterRetriesExhausted(t *testing.T) {
	behave := func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, ResultPayload{Unit: a.Unit, Hash: a.Hash, Attempt: a.Attempt,
			Status: "failed", Err: "still panicking", Transient: true}
	}
	w := newFakeWorker(t, behave)
	opts := testOpts()
	opts.Retries = 1
	outcomes, stats, err := runCluster(t, opts, []*fakeWorker{w}, mkUnits(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	o := outcomes[0]
	if o.Status != journal.StatusQuarantined || o.Attempts != 2 {
		t.Fatalf("outcome: %+v", o)
	}
}

func TestClusterWorkerDeathEvictsAndRequeues(t *testing.T) {
	// w1 drops every connection from the start (heartbeats included); all
	// units must still complete, on w2, after w1 is evicted.
	w1 := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, okResult(a, "")
	})
	w1.dead.Store(true)
	w2 := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, okResult(a, "")
	})
	units := mkUnits(6)
	outcomes, stats, err := runCluster(t, testOpts(), []*fakeWorker{w1, w2}, units)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions != 1 {
		t.Fatalf("evictions: %+v", stats)
	}
	for _, o := range outcomes {
		if o.Status != journal.StatusOK {
			t.Fatalf("outcome %s: %+v", o.Unit, o)
		}
		if o.Worker != w2.addr() {
			t.Fatalf("unit %s completed by %s, want survivor %s", o.Unit, o.Worker, w2.addr())
		}
	}
}

func TestClusterDuplicateCompletionSuppressed(t *testing.T) {
	// w1 accepts both units (Inflight=2), then goes silent: heartbeats fail,
	// w1 is evicted with both responses still in flight, both units requeue
	// to w2. w2 completes u0 but blocks on u1, holding the run open. Then
	// w1's stale responses are released on their still-open connections:
	// u0's is a duplicate completion (w2 already recorded it) and must be
	// suppressed — first completion wins, keyed by the echoed content hash.
	releaseLate := make(chan struct{})
	holdU2 := make(chan struct{})
	var w1 *fakeWorker
	w1 = newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		if w1.dispatches() >= 2 {
			w1.dead.Store(true) // only heartbeats notice: these two
			// requests were accepted before death
		}
		<-releaseLate
		return http.StatusOK, okResult(a, "late-"+a.Unit)
	})
	w2 := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		if a.Unit == "u02.c" {
			// u2 holds the run open until the duplicate is observed, so
			// the run's shutdown cannot cancel the late response in flight.
			<-holdU2
		}
		return http.StatusOK, okResult(a, "")
	})
	var relOnce, holdOnce sync.Once
	rel := func() { relOnce.Do(func() { close(releaseLate) }) }
	unhold := func() { holdOnce.Do(func() { close(holdU2) }) }
	t.Cleanup(rel) // run before the servers close: unblock their handlers
	t.Cleanup(unhold)

	c, err := NewCoordinator(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.AddWorker(w1.addr())
	done := make(chan struct{})
	var outcomes []Outcome
	var stats Stats
	var runErr error
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		outcomes, stats, runErr = c.Run(ctx, mkUnits(3))
	}()
	await := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; !cond(); i++ {
			if i > 2000 {
				t.Fatalf("timed out waiting: %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// w1 (Inflight=2) holds u0 and u1 in flight; u2 waits in its queue.
	await("w1 holds two units", func() bool { return w1.dispatches() >= 2 })
	c.AddWorker(w2.addr())
	// Eviction requeues everything to w2: u0 completes there, u2 blocks.
	await("w2 records a first completion", func() bool { return c.Stats().Completed >= 1 })
	rel() // w1's stale responses flow; u0's is a duplicate
	await("duplicate suppressed", func() bool { return c.Stats().DupCompletions >= 1 })
	unhold()
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if stats.Completed != 3 {
		t.Fatalf("each unit must be recorded exactly once: %+v", stats)
	}
	if stats.DupCompletions < 1 {
		t.Fatalf("no duplicate suppressed: %+v", stats)
	}
	if outcomes[0].Worker != w2.addr() {
		t.Fatalf("first completion should win for u0: recorded %q, want %q",
			outcomes[0].Worker, w2.addr())
	}
	for _, o := range outcomes {
		if o.Status != journal.StatusOK {
			t.Fatalf("outcome %s: %+v", o.Unit, o)
		}
	}
}

func TestClusterJournalResumeSkipsFinishedUnits(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "cluster.journal")
	behave := func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, okResult(a, "")
	}
	units := mkUnits(4)

	opts := testOpts()
	opts.JournalPath = jpath
	_, stats, err := runCluster(t, opts, []*fakeWorker{newFakeWorker(t, behave)}, units)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 4 {
		t.Fatalf("first run stats: %+v", stats)
	}

	// Second coordinator, same journal, resume on: every unit replays; the
	// worker must see zero dispatches.
	w2 := newFakeWorker(t, behave)
	opts2 := testOpts()
	opts2.JournalPath = jpath
	opts2.Resume = true
	outcomes, stats2, err := runCluster(t, opts2, []*fakeWorker{w2}, units)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Skipped != 4 || stats2.Completed != 0 {
		t.Fatalf("resume stats: %+v", stats2)
	}
	if w2.dispatches() != 0 {
		t.Fatalf("resume re-dispatched %d units", w2.dispatches())
	}
	for _, o := range outcomes {
		if !o.Skipped || o.Status != journal.StatusOK {
			t.Fatalf("replayed outcome: %+v", o)
		}
		want := fmt.Sprintf(`{"unit":%q,"warnings":[]}`, o.Unit)
		if string(o.Report) != want {
			t.Fatalf("replayed report for %s: got %s, want %s", o.Unit, o.Report, want)
		}
	}

	// Changing a unit's content invalidates its journal entry.
	units[2].Source += " /* edited */"
	w3 := newFakeWorker(t, behave)
	opts3 := testOpts()
	opts3.JournalPath = jpath
	opts3.Resume = true
	outcomes3, stats3, err := runCluster(t, opts3, []*fakeWorker{w3}, units)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Skipped != 3 || stats3.Completed != 1 {
		t.Fatalf("edited-unit resume stats: %+v", stats3)
	}
	if outcomes3[2].Skipped {
		t.Fatal("edited unit must be re-analyzed, not replayed")
	}
}

func TestClusterWorkerlessRunFails(t *testing.T) {
	opts := testOpts()
	opts.WorkerlessGrace = 300 * time.Millisecond
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err = c.Run(ctx, mkUnits(2))
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("workerless run: err=%v", err)
	}
}

func TestClusterContextCancelAborts(t *testing.T) {
	// A worker that never answers unit requests: cancel must end the run.
	block := make(chan struct{})
	defer close(block)
	w := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		<-block
		return http.StatusOK, okResult(a, "")
	})
	c, err := NewCoordinator(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.AddWorker(w.addr())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = c.Run(ctx, mkUnits(2))
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("cancel did not abort promptly (%s)", time.Since(start))
	}
}

func TestClusterLateWorkerDrainsOrphans(t *testing.T) {
	// Run starts with zero workers; AddWorker mid-run must adopt the
	// orphaned units and finish them.
	w := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, okResult(a, "")
	})
	c, err := NewCoordinator(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var stats Stats
	var runErr error
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, stats, runErr = c.Run(ctx, mkUnits(3))
	}()
	time.Sleep(100 * time.Millisecond)
	c.AddWorker(w.addr())
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if stats.Completed != 3 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestClusterRetryAvoidsFailingWorker: a unit that one worker failed
// transiently is retried on another live worker, not handed back to the
// worker that failed it. One worker fails every dispatch; the other answers
// ok after about 20ms, so the failing worker is idle whenever a requeued
// unit's backoff elapses. With one retry per unit, a retry back on the
// failing worker would quarantine the unit while a healthy worker is live.
func TestClusterRetryAvoidsFailingWorker(t *testing.T) {
	failing := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		return http.StatusOK, ResultPayload{Unit: a.Unit, Hash: a.Hash, Attempt: a.Attempt,
			Status: "failed", Err: "injected transient", Transient: true, Epoch: a.Epoch}
	})
	healthy := newFakeWorker(t, func(a AssignPayload, seen int) (int, ResultPayload) {
		time.Sleep(20 * time.Millisecond)
		return http.StatusOK, okResult(a, "")
	})
	opts := testOpts()
	opts.Retries = 1
	outcomes, stats, err := runCluster(t, opts, []*fakeWorker{failing, healthy}, mkUnits(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Status != journal.StatusOK {
			t.Errorf("outcome %s: status %s after %d attempt(s) (%s), want ok",
				o.Unit, o.Status, o.Attempts, o.Err)
		}
	}
	if stats.Completed != 12 || stats.Quarantined != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}
