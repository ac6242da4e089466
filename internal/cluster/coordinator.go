package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"pallas"
	"pallas/internal/backoff"
	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/journal"
	"pallas/internal/metrics"
	"pallas/internal/rcache"
)

// Options configures a Coordinator. The zero value is usable: defaults are
// filled in by NewCoordinator.
type Options struct {
	// Client performs worker HTTP requests; nil means a fresh client.
	// Per-request deadlines come from RequestTimeout, not Client.Timeout.
	Client *http.Client
	// HeartbeatInterval is how often each worker is probed for liveness.
	// Default 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive failed probes (or failed unit
	// dispatches) evict a worker. Default 3.
	HeartbeatMisses int
	// RequestTimeout bounds one unit dispatch end to end — a worker that
	// hangs mid-analysis holds the unit at most this long before it counts
	// as a transient failure and the unit is requeued. Default 2m.
	RequestTimeout time.Duration
	// Inflight is how many units one worker analyzes concurrently (the
	// coordinator-side pipeline depth; the worker's own admission control
	// is the authority and sheds with 503 beyond its capacity). Default 2.
	Inflight int
	// Retries is how many re-dispatches a unit gets after its first attempt
	// fails transiently (worker death, hang, panic, budget blowout,
	// injected fault); past them the unit is quarantined — the same policy
	// AnalyzeBatch applies in-process. Default 2.
	Retries int
	// RetryBackoff is the base delay before a requeued unit is eligible for
	// re-dispatch; the window doubles per attempt with full jitter
	// (backoff.Delay — uniform over the window, so simultaneously failing
	// workers don't produce synchronized retry storms). The unit waits in
	// queue; no dispatcher sleeps. Default 100ms.
	RetryBackoff time.Duration
	// HedgeAfter is the floor of the hedging threshold: a unit in flight
	// longer than max(HedgeAfter, p95 × 3) is speculatively re-dispatched
	// to the next healthy worker, first completion winning. Default 1s;
	// negative disables hedging (its only off switch).
	HedgeAfter time.Duration
	// HedgeMax caps concurrently outstanding hedge dispatches across the
	// run — the speculative-work budget. <= 0 means the default, 4.
	HedgeMax int
	// IntegrityLimit evicts a worker after this many end-to-end content
	// checksum failures (a corrupting worker is worse than a dead one: it
	// lies). Default 2.
	IntegrityLimit int
	// JournalPath, when set, records every assignment (non-terminal, with
	// its lease epoch) and completion (terminal, with report and pathdb
	// bytes) in a checkpoint journal, making the coordinator itself
	// crash-recoverable.
	JournalPath string
	// Resume replays units whose latest journal record is terminal and
	// still matches their content hash instead of re-dispatching them.
	Resume bool
	// GroupCommit opens the journal with batched fsyncs.
	GroupCommit bool
	// WorkerlessGrace is how long the coordinator tolerates having zero
	// live workers while units are pending (covering supervisor restarts)
	// before failing the run. Default 15s.
	WorkerlessGrace time.Duration
	// CachePeers enables the shared cache tier: every worker's serve engine
	// doubles as a cache endpoint, and the coordinator distributes the
	// epoch-fenced peer map to all live workers on each membership change.
	CachePeers bool
	// CacheReplicas is the tier's replication factor, forwarded in the peer
	// map. <= 0 means the tier default.
	CacheReplicas int
	// Metrics holds the cluster instruments, which are also what Stats
	// reads; nil means a registry of the coordinator's own.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives progress lines (evictions, requeues,
	// hedges, probations, rejected completions) — the CLI points it at
	// stderr.
	Logf func(format string, args ...any)
}

// Outcome is the terminal result of one unit, in input order. Either a
// replayed/completed analysis (Report/Paths set) or a failure (Err set).
type Outcome struct {
	// Unit and Hash identify the unit.
	Unit string
	Hash string
	// Status is the journal-status classification of the outcome.
	Status journal.Status
	// Report and Paths are the unit's marshaled report and path database —
	// byte-identical to a single-process analysis of the same unit.
	Report json.RawMessage
	Paths  json.RawMessage
	// Diagnostics carries the unit's degradation record.
	Diagnostics []guard.Diagnostic
	// Err is the failure rendered as text for failed/quarantined units.
	Err string
	// Attempts counts dispatch attempts this run (0 for replayed units;
	// hedges are not attempts).
	Attempts int
	// Skipped reports the unit was replayed from the journal on resume.
	Skipped bool
	// Worker is the worker that completed the unit (or was last assigned).
	Worker string
	// Epoch is the lease epoch of the winning completion (0 for replayed
	// or quarantined units).
	Epoch int64
	// Degraded and Warnings mirror the report.
	Degraded bool
	Warnings int
	// CacheHit reports the completing worker served its cache.
	CacheHit bool
}

// Stats summarizes one cluster run. The per-outcome tallies (Units through
// CacheHits) and journal recovery are the coordinator's own; every other
// counter is read from its registry.
type Stats struct {
	Units           int
	Completed       int
	Skipped         int
	Failed          int
	Quarantined     int
	Requeues        int
	Evictions       int
	HeartbeatMisses int
	DupCompletions  int
	Backpressure    int
	CacheHits       int
	// Hedges counts speculative re-dispatches; HedgeWins counts the ones
	// whose completion won the race.
	Hedges    int
	HedgeWins int
	// StaleCompletions counts completions rejected by the lease fence: the
	// epoch they carried was no longer valid and no outcome existed yet —
	// the zombie-worker window, closed.
	StaleCompletions int
	// IntegrityFailures counts completions whose end-to-end content
	// checksum did not match their bytes.
	IntegrityFailures int
	// Probations counts health-score demotions.
	Probations int
	// Completion latency quantiles (ms) over the most recent sample window.
	LatencyP50MS float64
	LatencyP95MS float64
	LatencyP99MS float64
	// Journal recovery, as in BatchStats.
	JournalRecovered   int
	JournalTornTail    bool
	JournalQuarantined int
}

// WorkerHealth is one row of the coordinator's per-worker table
// (/healthz?verbose=1 on the status server).
type WorkerHealth struct {
	Addr            string  `json:"addr"`
	Live            bool    `json:"live"`
	State           string  `json:"state"` // healthy | probation | evicted
	Score           float64 `json:"score"`
	LatencyEWMAMS   float64 `json:"latency_ewma_ms"`
	ErrorRate       float64 `json:"error_rate"`
	InFlight        int     `json:"in_flight"`
	Done            int64   `json:"done"`
	Requeues        int64   `json:"requeues"`
	HeartbeatMisses int64   `json:"heartbeat_misses"`
	IntegrityFails  int64   `json:"integrity_fails"`
	LastBeatAgeMS   int64   `json:"last_beat_age_ms"`
	Paused          bool    `json:"paused"`
}

// lease is one fenced grant of one task to one worker. Every dispatch —
// first attempt, retry, or hedge — gets a fresh lease with a monotonically
// increasing epoch; the worker echoes the epoch in its result, and only a
// completion whose lease is still valid may record an outcome. Eviction
// and hedging invalidate leases without waiting for their connections, so
// a zombie worker's late completion is rejected by the fence instead of
// racing the re-dispatch.
type lease struct {
	epoch  int64
	worker string
	hedge  bool
	start  time.Time
	ctx    context.Context
	cancel context.CancelFunc
}

type task struct {
	idx       int
	unit      pallas.Unit
	hash      string
	attempts  int
	hedges    int
	queued    bool             // sits in the run queue
	avoid     string           // worker addr that last failed it
	notBefore time.Time        // retry-backoff eligibility
	leases    map[int64]*lease // outstanding leases by epoch
	outcome   *Outcome
}

type workerState struct {
	addr           string
	live           bool
	inflight       int
	misses         int
	lastBeat       time.Time
	pausedUntil    time.Time
	done           int64
	requeues       int64
	hbMisses       int64
	integrityFails int64
	h              health
	stop           chan struct{}
}

// Coordinator owns a cluster run: every live worker's dispatch lanes pull
// units from one FIFO run queue; it keeps workers alive or evicts them, and
// merges results deterministically. Create with NewCoordinator, register
// workers with AddWorker (before or during Run), then call Run once.
type Coordinator struct {
	opts   Options
	client *http.Client
	jr     *journal.Journal

	mu        sync.Mutex
	cond      *sync.Cond
	workers   map[string]*workerState
	tasks     []*task
	queue     []*task // the run queue: pending tasks awaiting a dispatch lane
	pending   int
	running   bool
	closed    bool
	fatalErr  error
	stats     Stats
	epoch     int64 // lease epoch counter; monotonic across the run
	peerEpoch int64 // shared-cache-tier map epoch; bumped per membership change
	hedgesOut int   // outstanding hedge leases
	latWin    [latWindowSize]float64
	latN      int

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	gWorkersLive *metrics.Gauge
	gHealthMin   *metrics.Gauge
	gProbation   *metrics.Gauge
	mRequeues    *metrics.Counter
	mHBMisses    *metrics.Counter
	mEvictions   *metrics.Counter
	mDups        *metrics.Counter
	mUnitsDone   *metrics.Counter
	mBackpress   *metrics.Counter
	mHedges      *metrics.Counter
	mHedgeWins   *metrics.Counter
	mStale       *metrics.Counter
	mIntegrity   *metrics.Counter
	mProbations  *metrics.Counter
}

// NewCoordinator builds a coordinator (opening the journal when configured).
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 3
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 2 * time.Minute
	}
	if opts.Inflight <= 0 {
		opts.Inflight = 2
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 100 * time.Millisecond
	}
	if opts.HedgeAfter == 0 {
		opts.HedgeAfter = time.Second
	}
	if opts.HedgeMax <= 0 {
		opts.HedgeMax = 4
	}
	if opts.IntegrityLimit <= 0 {
		opts.IntegrityLimit = 2
	}
	if opts.WorkerlessGrace <= 0 {
		opts.WorkerlessGrace = 15 * time.Second
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Coordinator{
		opts:    opts,
		client:  opts.Client,
		workers: map[string]*workerState{},

		gWorkersLive: reg.Gauge(metrics.MetricClusterWorkersLive, "cluster workers currently live"),
		gHealthMin:   reg.Gauge(metrics.MetricClusterWorkerHealthMin, "lowest live-worker health score, x1000"),
		gProbation:   reg.Gauge(metrics.MetricClusterWorkersProbation, "workers currently on probation"),
		mRequeues:    reg.Counter(metrics.MetricClusterRequeues, "units requeued after worker failure or transient error"),
		mHBMisses:    reg.Counter(metrics.MetricClusterHeartbeatMisses, "missed worker heartbeats"),
		mEvictions:   reg.Counter(metrics.MetricClusterEvictions, "workers evicted"),
		mDups:        reg.Counter(metrics.MetricClusterDupCompletions, "duplicate completions suppressed by content hash"),
		mUnitsDone:   reg.Counter(metrics.MetricClusterUnitsDone, "units with a terminal outcome recorded"),
		mBackpress:   reg.Counter(metrics.MetricClusterBackpressure, "dispatches shed by worker overload control and requeued"),
		mHedges:      reg.Counter(metrics.MetricClusterHedges, "speculative hedge dispatches launched"),
		mHedgeWins:   reg.Counter(metrics.MetricClusterHedgeWins, "hedge dispatches that won their race"),
		mStale:       reg.Counter(metrics.MetricClusterStaleCompletions, "completions rejected for a stale lease epoch"),
		mIntegrity:   reg.Counter(metrics.MetricClusterIntegrityFailures, "completions failing the end-to-end content checksum"),
		mProbations:  reg.Counter(metrics.MetricClusterProbations, "health-score demotions to probation"),
	}
	c.cond = sync.NewCond(&c.mu)
	if opts.JournalPath != "" {
		jr, err := journal.OpenOptions(opts.JournalPath, journal.Options{GroupCommit: opts.GroupCommit})
		if err != nil {
			return nil, err
		}
		c.jr = jr
		rec := jr.Recovery()
		c.stats.JournalRecovered = rec.Records
		c.stats.JournalTornTail = rec.TornTail
		c.stats.JournalQuarantined = rec.Quarantined
	} else if opts.Resume {
		return nil, errors.New("cluster: Options.Resume requires JournalPath")
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// AddWorker registers a worker address and starts dispatching to it. Safe
// to call before or during Run (the supervisor calls it when a restarted
// worker comes up). Re-adding a live worker is a no-op.
func (c *Coordinator) AddWorker(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if w, ok := c.workers[addr]; ok && w.live {
		return
	}
	w := &workerState{addr: addr, live: true, lastBeat: time.Now(), stop: make(chan struct{})}
	c.workers[addr] = w
	c.gWorkersLive.Set(c.liveCountLocked())
	c.pushPeerMapLocked()
	if c.running {
		c.startWorkerLocked(w)
	}
	c.cond.Broadcast()
}

// pushPeerMapLocked distributes a freshly fenced peer map to every live
// worker after a membership change. Best-effort and asynchronous: a worker
// that misses a push refuses nothing locally — it keeps serving under its
// older epoch until the next push reaches it (or it is evicted), and
// requesters holding the newer map still content-verify every byte they get
// from it. A worker that rejoins after eviction gets the then-current epoch
// with everyone else, which is what fences its zombie twin: any process
// still running under the old epoch is refused by every peer.
func (c *Coordinator) pushPeerMapLocked() {
	if !c.opts.CachePeers || c.closed {
		return
	}
	c.peerEpoch++
	pm := PeerMap{Epoch: c.peerEpoch, Replicas: c.opts.CacheReplicas}
	for _, addr := range sortedWorkerAddrs(c.workers) {
		if w := c.workers[addr]; w != nil && w.live {
			pm.Peers = append(pm.Peers, addr)
		}
	}
	body, err := json.Marshal(pm)
	if err != nil {
		return
	}
	targets := append([]string(nil), pm.Peers...)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for _, addr := range targets {
			c.postPeerMap(addr, body)
		}
	}()
}

// postPeerMap delivers one peer-map push; failures are logged, not acted on
// (the next membership change re-pushes, and the tier is safe under a stale
// map by construction).
func (c *Coordinator) postPeerMap(addr string, body []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+PeerMapPath, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		c.logf("cluster: peer map push to %s: %v", addr, err)
		return
	}
	resp.Body.Close()
}

// RemoveWorker evicts a worker (the supervisor calls it when a worker
// process dies before the heartbeat notices); its in-flight units are
// requeued for the survivors.
func (c *Coordinator) RemoveWorker(addr string, reason error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok && w.live {
		c.evictLocked(w, reason)
	}
}

func (c *Coordinator) liveCountLocked() int64 {
	var n int64
	for _, w := range c.workers {
		if w.live {
			n++
		}
	}
	return n
}

// startWorkerLocked launches a worker's dispatcher and heartbeat loops.
func (c *Coordinator) startWorkerLocked(w *workerState) {
	for i := 0; i < c.opts.Inflight; i++ {
		c.wg.Add(1)
		go c.dispatchLoop(w)
	}
	c.wg.Add(1)
	go c.heartbeatLoop(w)
}

// Run dispatches units across the registered workers and blocks until every
// unit has a terminal outcome (or the run fails fatally: context canceled,
// or no live workers for longer than WorkerlessGrace). Outcomes are in
// input order regardless of which worker finished what, when — the
// determinism anchor for merged output. Run may be called once.
func (c *Coordinator) Run(ctx context.Context, units []pallas.Unit) ([]Outcome, Stats, error) {
	c.mu.Lock()
	if c.running || c.closed {
		c.mu.Unlock()
		return nil, c.statsLocked(), errors.New("cluster: Run called twice")
	}
	c.running = true
	c.runCtx, c.runCancel = context.WithCancel(ctx)
	c.stats.Units = len(units)

	c.tasks = make([]*task, len(units))
	for i, u := range units {
		t := &task{idx: i, unit: u, hash: u.Hash(), leases: map[int64]*lease{}}
		c.tasks[i] = t
		if c.jr != nil && c.opts.Resume {
			if rec, ok := c.jr.Lookup(u.Name); ok && rec.Hash == t.hash && rec.Status.Terminal() {
				t.outcome = outcomeFromRecord(t, rec)
				c.stats.Skipped++
				continue
			}
		}
		c.pending++
		c.enqueueLocked(t, "")
	}
	for _, w := range c.workers {
		if w.live {
			c.startWorkerLocked(w)
		}
	}
	// Scheduler tick: retry-backoff eligibility, worker pauses, health
	// scores, hedge scans.
	c.wg.Add(1)
	go c.tick()
	// Watchdogs: context cancellation and worker famine.
	c.wg.Add(1)
	go c.watch()

	for c.pending > 0 && c.fatalErr == nil {
		c.cond.Wait()
	}
	err := c.fatalErr
	c.closed = true
	c.runCancel()
	for _, w := range c.workers {
		if w.live {
			close(w.stop)
			w.live = false
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jr != nil {
		c.jr.Flush()
		c.jr.Close()
	}
	out := make([]Outcome, len(c.tasks))
	for i, t := range c.tasks {
		if t.outcome != nil {
			out[i] = *t.outcome
		} else {
			out[i] = Outcome{Unit: t.unit.Name, Hash: t.hash, Status: journal.StatusFailed,
				Err: "cluster: run aborted before completion", Attempts: t.attempts}
		}
	}
	// The returned snapshot carries the same latency quantiles Stats()
	// reports, so callers need not race a second call after Run returns.
	final := c.statsLocked()
	if err != nil {
		return out, final, fmt.Errorf("cluster: run failed: %w", err)
	}
	return out, final, nil
}

// tick is the scheduler heartbeat: every 25ms it wakes dispatchers (so
// retry-backoff eligibility and backpressure pauses are re-evaluated
// without per-task timers), refreshes health scores, and scans for units
// past the hedge threshold.
func (c *Coordinator) tick() {
	defer c.wg.Done()
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.runCtx.Done():
			return
		case <-t.C:
			c.mu.Lock()
			if !c.closed {
				now := time.Now()
				c.updateHealthLocked(now)
				c.hedgeScanLocked(now)
			}
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

// watch fails the run when the context dies or no worker has been live for
// WorkerlessGrace while units are still pending.
func (c *Coordinator) watch() {
	defer c.wg.Done()
	var zeroSince time.Time
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.runCtx.Done():
			c.mu.Lock()
			if c.pending > 0 && c.fatalErr == nil && !c.closed {
				c.fatalErr = c.runCtx.Err()
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		case <-t.C:
			c.mu.Lock()
			if c.closed || c.pending == 0 {
				c.mu.Unlock()
				return
			}
			if c.liveCountLocked() == 0 {
				if zeroSince.IsZero() {
					zeroSince = time.Now()
				} else if time.Since(zeroSince) > c.opts.WorkerlessGrace {
					c.fatalErr = fmt.Errorf("no live workers for %s with %d unit(s) pending",
						c.opts.WorkerlessGrace, c.pending)
					c.cond.Broadcast()
					c.mu.Unlock()
					return
				}
			} else {
				zeroSince = time.Time{}
			}
			c.mu.Unlock()
		}
	}
}

// enqueueLocked appends a pending task to the run queue. avoid names the
// worker that just failed it, which next skips while another worker is
// live.
func (c *Coordinator) enqueueLocked(t *task, avoid string) {
	t.queued = true
	t.avoid = avoid
	c.queue = append(c.queue, t)
}

// dequeueLocked removes t from the run queue if it is there (used when a
// late completion for a requeued task arrives before its re-dispatch).
func (c *Coordinator) dequeueLocked(t *task) {
	if t.queued {
		c.queue = slices.DeleteFunc(c.queue, func(q *task) bool { return q == t })
		t.queued = false
	}
}

// next blocks until the worker has a unit to run, the worker dies, or the
// run ends. A worker on probation runs at most one probe unit at a time, so
// load drains away from it until its score recovers. Returns a fresh lease
// for the dispatch, or nils when the dispatcher should exit.
func (c *Coordinator) next(w *workerState) (*task, *lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || !w.live || c.fatalErr != nil {
			return nil, nil
		}
		now := time.Now()
		if now.After(w.pausedUntil) && (!w.h.probation || w.inflight == 0) {
			if t := c.popEligibleLocked(w, now); t != nil {
				return t, c.newLeaseLocked(t, w, false)
			}
		}
		c.cond.Wait()
	}
}

// popEligibleLocked removes the first queued task whose retry backoff has
// elapsed, skipping one that w itself just failed while another worker is
// live to take it.
func (c *Coordinator) popEligibleLocked(w *workerState, now time.Time) *task {
	for i, t := range c.queue {
		if t.notBefore.After(now) || (t.avoid == w.addr && c.liveCountLocked() > 1) {
			continue
		}
		c.queue = slices.Delete(c.queue, i, i+1)
		t.queued = false
		return t
	}
	return nil
}

// newLeaseLocked grants t to w under a fresh epoch. Ordinary dispatches
// consume an attempt; hedges consume the hedge budget instead.
func (c *Coordinator) newLeaseLocked(t *task, w *workerState, hedge bool) *lease {
	c.epoch++
	ctx, cancel := context.WithCancel(c.runCtx)
	ls := &lease{epoch: c.epoch, worker: w.addr, hedge: hedge,
		start: time.Now(), ctx: ctx, cancel: cancel}
	t.leases[ls.epoch] = ls
	if hedge {
		c.hedgesOut++
	} else {
		t.attempts++
	}
	w.inflight++
	return ls
}

// resolveLeaseLocked invalidates one lease: removes it from the task,
// releases the worker's in-flight slot, and returns the hedge budget.
// Returns false when the lease was already resolved — the caller's
// response is stale and must not mutate task state. It does NOT cancel the
// lease's connection: eviction deliberately leaves zombie connections
// racing so the fence (not luck) is what rejects them; completion cancels
// losers explicitly.
func (c *Coordinator) resolveLeaseLocked(t *task, ls *lease) bool {
	cur, ok := t.leases[ls.epoch]
	if !ok || cur != ls {
		return false
	}
	delete(t.leases, ls.epoch)
	if w := c.workers[ls.worker]; w != nil {
		w.inflight--
	}
	if ls.hedge {
		c.hedgesOut--
	}
	return true
}

// dispatchLoop is one dispatcher lane of one worker: take the next unit
// under a fresh lease, send it, classify the outcome. A worker has
// Options.Inflight lanes; hedge dispatches run on extra goroutines.
func (c *Coordinator) dispatchLoop(w *workerState) {
	defer c.wg.Done()
	for {
		t, ls := c.next(w)
		if t == nil {
			return
		}
		c.dispatchLease(w, t, ls)
	}
}

// dispatchLease performs one leased dispatch end to end. When the
// coord-send failpoint injects duplicate delivery, the same frame (same
// epoch) is sent a second time and both responses are classified — the
// fence must suppress the echo.
func (c *Coordinator) dispatchLease(w *workerState, t *task, ls *lease) {
	defer ls.cancel()
	c.journalAssign(t, w, ls)
	for sends := 0; ; sends++ {
		payload, shed, retryAfter, dup, err := c.send(t, w, ls)
		switch {
		case err != nil:
			c.transportFail(w, t, ls, err)
		case shed:
			c.backpressured(w, t, ls, retryAfter)
		default:
			c.finishResult(w, t, ls, payload)
		}
		if !dup || err != nil || shed || sends > 0 {
			return
		}
	}
}

func (c *Coordinator) journalAssign(t *task, w *workerState, ls *lease) {
	if c.jr == nil {
		return
	}
	if err := c.jr.Append(journal.Record{
		Unit: t.unit.Name, Hash: t.hash, Status: journal.StatusAssigned,
		Attempt: t.attempts, Worker: w.addr, Epoch: ls.epoch,
	}); err != nil {
		c.logf("cluster: journal assign %s: %v", t.unit.Name, err)
	}
}

// slowReader drips its payload in small chunks with a pause between them —
// the coord-send=drip fault: a trickling connection that never quite
// stalls out.
type slowReader struct {
	r     io.Reader
	chunk int
	pause time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	n, err := s.r.Read(p)
	if n > 0 {
		time.Sleep(s.pause)
	}
	return n, err
}

// send performs one framed dispatch under ls. Returns the decoded result,
// or shed=true with the worker's Retry-After hint, or a transport error.
// dup=true means the coord-send failpoint asked for duplicate delivery and
// the caller should send the same frame once more.
func (c *Coordinator) send(t *task, w *workerState, ls *lease) (ResultPayload, bool, time.Duration, bool, error) {
	var zero ResultPayload
	body, err := EncodeFrame(FrameAssign, AssignPayload{
		Unit: t.unit.Name, Hash: t.hash, Source: t.unit.Source, Spec: t.unit.Spec,
		Attempt: t.attempts, Epoch: ls.epoch,
	})
	if err != nil {
		return zero, false, 0, false, err
	}
	dup := false
	var reqBody io.Reader = bytes.NewReader(body)
	switch f := failpoint.Net(failpoint.CoordSend, t.unit.Name); f.Act {
	case failpoint.NetDrop:
		return zero, false, 0, false, fmt.Errorf("cluster: injected link drop dispatching %s", t.unit.Name)
	case failpoint.NetCorrupt:
		reqBody = bytes.NewReader(failpoint.Corrupt(body))
	case failpoint.NetDup:
		dup = true
	case failpoint.NetDrip:
		reqBody = &slowReader{r: bytes.NewReader(body), chunk: 64, pause: f.Sleep}
	}
	ctx, cancel := context.WithTimeout(ls.ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+w.addr+"/v1/cluster/unit", reqBody)
	if err != nil {
		return zero, false, 0, dup, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return zero, false, 0, dup, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		var payload ResultPayload
		if err := DecodeFrame(resp.Body, FrameResult, &payload); err != nil {
			return zero, false, 0, dup, err
		}
		if payload.Hash != t.hash {
			return zero, false, 0, dup, fmt.Errorf("result hash mismatch: got %s, want %s",
				payload.Hash, t.hash)
		}
		if payload.Epoch != 0 && payload.Epoch != ls.epoch {
			return zero, false, 0, dup, fmt.Errorf("result epoch mismatch: got %d, want %d",
				payload.Epoch, ls.epoch)
		}
		return payload, false, 0, dup, nil
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		retry := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				retry = time.Duration(secs) * time.Second
			}
		}
		// The header is whole seconds; the JSON body's retry_after_ms is
		// the precise, jittered hint. Honor it at ms resolution so a fleet
		// of shed dispatches doesn't re-hit the worker on one fixed cadence.
		if body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			var eb struct {
				RetryAfterMS int64 `json:"retry_after_ms"`
			}
			if json.Unmarshal(body, &eb) == nil && eb.RetryAfterMS > 0 {
				retry = time.Duration(eb.RetryAfterMS) * time.Millisecond
			}
		}
		return zero, true, retry, dup, nil
	default:
		return zero, false, 0, dup, fmt.Errorf("worker %s: status %d", w.addr, resp.StatusCode)
	}
}

// transportFail handles a dispatch that never produced a result: the worker
// died, hung past RequestTimeout, or answered garbage. The unit is requeued
// (bounded), and the miss counts toward the worker's eviction threshold —
// a crashed worker is usually detected here first, before the heartbeat.
// A canceled loser or an already-fenced lease lands here too and is
// dropped without penalty.
func (c *Coordinator) transportFail(w *workerState, t *task, ls *lease, err error) {
	c.mu.Lock()
	if !c.resolveLeaseLocked(t, ls) {
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	w.misses++
	w.hbMisses++
	c.mHBMisses.Inc()
	w.h.observeError()
	evict := w.live && w.misses >= c.opts.HeartbeatMisses
	c.requeueIfUnheldLocked(w, t, err)
	if evict {
		c.evictLocked(w, fmt.Errorf("dispatch failures: %w", err))
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.logf("cluster: %s on %s failed (%v), requeued", t.unit.Name, w.addr, err)
}

// backpressured handles a 503/429 shed: the unit goes back to the queue
// without spending an attempt, and the worker is paused for the hint.
func (c *Coordinator) backpressured(w *workerState, t *task, ls *lease, retryAfter time.Duration) {
	if retryAfter > 2*time.Second {
		retryAfter = 2 * time.Second
	}
	c.mu.Lock()
	if c.resolveLeaseLocked(t, ls) {
		if !ls.hedge {
			t.attempts-- // admission was refused; the analysis never started
		}
		w.pausedUntil = time.Now().Add(retryAfter)
		c.mBackpress.Inc()
		c.requeueShedLocked(t)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// requeueShedLocked returns a shed task to the queue without the failure
// bookkeeping (no requeue counter, no backoff — admission refused, nothing
// ran).
func (c *Coordinator) requeueShedLocked(t *task) {
	if t.outcome != nil || len(t.leases) > 0 || t.queued {
		return
	}
	c.enqueueLocked(t, "")
}

// finishResult classifies a decoded worker result. Completions carrying a
// content checksum are verified end to end before they may record an
// outcome — the frame CRC protects the wire hop, the content checksum
// protects the whole path from the producing analysis to the merge.
func (c *Coordinator) finishResult(w *workerState, t *task, ls *lease, p ResultPayload) {
	switch p.Status {
	case "ok", "degraded":
		if p.Sum != "" {
			if got := rcache.ContentSum(p.Report, p.Paths); got != p.Sum {
				c.integrityFail(w, t, ls, p.Sum, got)
				return
			}
		}
		c.complete(w, t, ls, p)
	case "failed":
		if p.Transient {
			c.transientAnalysisFail(w, t, ls, errors.New(p.Err))
		} else {
			c.terminalFail(w, t, ls, p)
		}
	default:
		c.transportFail(w, t, ls, fmt.Errorf("worker %s: unknown result status %q", w.addr, p.Status))
	}
}

// complete records a successful analysis — exactly once per unit, enforced
// by the lease fence. A completion whose lease is gone is classified: an
// outcome already exists → duplicate (a hedge loser or injected duplicate
// delivery; worker output is deterministic, the bytes match); no outcome →
// stale (a zombie worker's late result after eviction) and rejected — the
// re-dispatch, not the zombie, gets to record the unit.
func (c *Coordinator) complete(w *workerState, t *task, ls *lease, p ResultPayload) {
	c.mu.Lock()
	w.misses = 0
	if !c.resolveLeaseLocked(t, ls) || t.outcome != nil {
		c.rejectCompletionLocked(w, t, ls)
		return
	}
	elapsed := time.Since(ls.start)
	w.h.observeOK()
	w.h.observeLatency(elapsed)
	c.observeLatencyLocked(elapsed)
	// Losers: invalidate and cancel any sibling leases still racing.
	for _, sib := range siblings(t) {
		c.resolveLeaseLocked(t, sib)
		sib.cancel()
	}
	c.dequeueLocked(t) // a late completion may race its own requeue
	status := journal.StatusOK
	if p.Status == "degraded" {
		status = journal.StatusDegraded
	}
	t.outcome = &Outcome{
		Unit: t.unit.Name, Hash: t.hash, Status: status,
		Report: p.Report, Paths: p.Paths, Diagnostics: p.Diagnostics,
		Attempts: t.attempts, Worker: w.addr, Epoch: ls.epoch,
		Degraded: p.Degraded, Warnings: p.Warnings, CacheHit: p.Cache == "hit",
	}
	if ls.hedge {
		c.mHedgeWins.Inc()
		c.logf("cluster: hedge won %s on %s (epoch %d)", t.unit.Name, w.addr, ls.epoch)
	}
	if p.Cache == "hit" {
		c.stats.CacheHits++
	}
	c.stats.Completed++
	c.mUnitsDone.Inc()
	w.done++
	c.pending--
	c.cond.Broadcast()
	c.mu.Unlock()
	c.journalTerminal(t)
}

// siblings returns t's outstanding leases as a slice (safe to resolve while
// iterating).
func siblings(t *task) []*lease {
	out := make([]*lease, 0, len(t.leases))
	for _, l := range t.leases {
		out = append(out, l)
	}
	return out
}

// rejectCompletionLocked classifies and drops a completion that lost the
// fence. Caller holds c.mu; this releases it.
func (c *Coordinator) rejectCompletionLocked(w *workerState, t *task, ls *lease) {
	if t.outcome != nil {
		c.mDups.Inc()
		c.cond.Broadcast()
		c.mu.Unlock()
		c.logf("cluster: duplicate completion of %s (hash %.12s) from %s suppressed",
			t.unit.Name, t.hash, w.addr)
		return
	}
	c.mStale.Inc()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.logf("cluster: stale completion of %s (epoch %d) from %s rejected by lease fence",
		t.unit.Name, ls.epoch, w.addr)
}

// terminalFail records a deterministic analysis failure (no retry: the
// input itself is bad, as in AnalyzeBatch).
func (c *Coordinator) terminalFail(w *workerState, t *task, ls *lease, p ResultPayload) {
	c.mu.Lock()
	w.misses = 0
	if !c.resolveLeaseLocked(t, ls) || t.outcome != nil {
		c.rejectCompletionLocked(w, t, ls)
		return
	}
	w.h.observeOK() // the worker answered correctly; the input is what failed
	for _, sib := range siblings(t) {
		c.resolveLeaseLocked(t, sib)
		sib.cancel()
	}
	c.dequeueLocked(t)
	t.outcome = &Outcome{
		Unit: t.unit.Name, Hash: t.hash, Status: journal.StatusFailed,
		Err: p.Err, Diagnostics: p.Diagnostics, Attempts: t.attempts,
		Worker: w.addr, Epoch: ls.epoch,
	}
	c.stats.Failed++
	c.mUnitsDone.Inc()
	w.done++
	c.pending--
	c.cond.Broadcast()
	c.mu.Unlock()
	c.journalTerminal(t)
}

// transientAnalysisFail requeues after a worker-reported transient failure
// (panic, budget blowout, injected fault), with full-jitter backoff.
func (c *Coordinator) transientAnalysisFail(w *workerState, t *task, ls *lease, err error) {
	c.mu.Lock()
	w.misses = 0
	if c.resolveLeaseLocked(t, ls) {
		w.h.observeError()
		c.requeueIfUnheldLocked(w, t, err)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// integrityFail handles a completion whose end-to-end content checksum did
// not match its bytes: the result is discarded, the unit requeued with its
// attempt refunded (the unit is innocent — the worker corrupted it), and
// the worker evicted once its integrity failures reach IntegrityLimit. A
// worker that lies about results is worse than one that crashes: nothing
// downstream can tell good bytes from bad, so the response is quarantine-
// the-worker, never trust-and-merge.
func (c *Coordinator) integrityFail(w *workerState, t *task, ls *lease, want, got string) {
	c.mu.Lock()
	if !c.resolveLeaseLocked(t, ls) {
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	w.h.observeError()
	w.integrityFails++
	c.mIntegrity.Inc()
	if !ls.hedge {
		t.attempts--
	}
	evict := w.live && w.integrityFails >= int64(c.opts.IntegrityLimit)
	c.requeueIfUnheldLocked(w, t, fmt.Errorf("content checksum mismatch: want %s, got %s", want, got))
	if evict {
		c.evictLocked(w, fmt.Errorf("%d integrity failure(s)", w.integrityFails))
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.logf("cluster: integrity failure on %s from %s (checksum want %s, got %s), result discarded",
		t.unit.Name, w.addr, want, got)
}

// requeueIfUnheldLocked returns a task that w failed to the run queue,
// after its retry backoff — but only when nothing else holds it: no
// outcome, no outstanding lease (a hedge may still be racing), not already
// queued. Quarantines when its attempts are spent. Reports whether it
// requeued.
func (c *Coordinator) requeueIfUnheldLocked(w *workerState, t *task, err error) bool {
	if t.outcome != nil || len(t.leases) > 0 || t.queued {
		return false
	}
	if t.attempts >= c.opts.Retries+1 {
		t.outcome = &Outcome{
			Unit: t.unit.Name, Hash: t.hash, Status: journal.StatusQuarantined,
			Err: err.Error(), Attempts: t.attempts, Worker: w.addr,
		}
		c.stats.Quarantined++
		c.mUnitsDone.Inc()
		c.pending--
		c.journalTerminalAsync(t) // callers hold c.mu; Append must not
		return false
	}
	t.notBefore = time.Now().Add(backoff.Delay(c.opts.RetryBackoff, t.attempts))
	c.mRequeues.Inc()
	w.requeues++
	c.enqueueLocked(t, w.addr)
	return true
}

// journalTerminalAsync records a terminal outcome from a caller holding
// c.mu: the append runs in a wg-tracked goroutine so Run's shutdown waits
// for it before closing the journal.
func (c *Coordinator) journalTerminalAsync(t *task) {
	if c.jr == nil {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.journalTerminal(t)
	}()
}

// journalTerminal durably records a terminal outcome.
func (c *Coordinator) journalTerminal(t *task) {
	if c.jr == nil {
		return
	}
	o := t.outcome
	rec := journal.Record{
		Unit: o.Unit, Hash: o.Hash, Status: o.Status, Attempt: o.Attempts,
		Err: o.Err, Degraded: o.Degraded, Warnings: o.Warnings,
		Report: o.Report, Paths: o.Paths, Diagnostics: o.Diagnostics,
		Worker: o.Worker, Epoch: o.Epoch,
	}
	if err := c.jr.Append(rec); err != nil {
		c.logf("cluster: journal %s: %v", o.Unit, err)
	}
}

// evictLocked removes a worker from rotation and requeues the units it
// held in flight. Their leases are invalidated — NOT canceled — so the
// worker's late responses, if any, arrive against a closed fence and are
// rejected as stale instead of racing the re-dispatch. That is the zombie
// window, closed by epoch fencing rather than by hoping the connection dies
// first. Queued units never left the run queue and need nothing.
func (c *Coordinator) evictLocked(w *workerState, reason error) {
	if !w.live {
		return
	}
	w.live = false
	close(w.stop)
	c.mEvictions.Inc()
	c.gWorkersLive.Set(c.liveCountLocked())
	c.pushPeerMapLocked()
	err := fmt.Errorf("worker %s evicted: %v", w.addr, reason)
	requeued := 0
	for _, t := range c.tasks {
		if t.outcome != nil {
			continue
		}
		touched := false
		for _, ls := range siblings(t) {
			if ls.worker == w.addr {
				c.resolveLeaseLocked(t, ls)
				touched = true
			}
		}
		if touched && c.requeueIfUnheldLocked(w, t, err) {
			requeued++
		}
	}
	c.cond.Broadcast()
	c.logf("cluster: evicted worker %s (%v), %d unit(s) requeued", w.addr, reason, requeued)
}

// heartbeatLoop probes one worker until it is evicted or the run ends.
func (c *Coordinator) heartbeatLoop(w *workerState) {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-c.runCtx.Done():
			return
		case <-tick.C:
		}
		ok := c.ping(w)
		c.mu.Lock()
		if !w.live {
			c.mu.Unlock()
			return
		}
		if ok {
			w.misses = 0
			w.lastBeat = time.Now()
		} else {
			w.misses++
			w.hbMisses++
			c.mHBMisses.Inc()
			if w.misses >= c.opts.HeartbeatMisses {
				c.evictLocked(w, fmt.Errorf("%d consecutive heartbeat misses", w.misses))
				c.mu.Unlock()
				return
			}
		}
		c.mu.Unlock()
	}
}

// ping probes one worker's /v1/cluster/ping with a deadline of one
// heartbeat interval.
func (c *Coordinator) ping(w *workerState) bool {
	ctx, cancel := context.WithTimeout(c.runCtx, c.opts.HeartbeatInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+w.addr+"/v1/cluster/ping", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Stats returns a snapshot of the run's counters, including completion
// latency quantiles over the recent sample window.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

func (c *Coordinator) statsLocked() Stats {
	s := c.stats
	s.Requeues = int(c.mRequeues.Value())
	s.Evictions = int(c.mEvictions.Value())
	s.HeartbeatMisses = int(c.mHBMisses.Value())
	s.DupCompletions = int(c.mDups.Value())
	s.Backpressure = int(c.mBackpress.Value())
	s.Hedges = int(c.mHedges.Value())
	s.HedgeWins = int(c.mHedgeWins.Value())
	s.StaleCompletions = int(c.mStale.Value())
	s.IntegrityFailures = int(c.mIntegrity.Value())
	s.Probations = int(c.mProbations.Value())
	s.LatencyP50MS, s.LatencyP95MS, s.LatencyP99MS = c.latQuantilesLocked()
	return s
}

// Progress reports done vs total units.
func (c *Coordinator) Progress() (done, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tasks) - c.pending, len(c.tasks)
}

// WorkerTable returns the per-worker health rows for the status server,
// sorted by address.
func (c *Coordinator) WorkerTable() []WorkerHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerHealth, 0, len(c.workers))
	for _, addr := range sortedWorkerAddrs(c.workers) {
		w := c.workers[addr]
		age := int64(-1)
		if !w.lastBeat.IsZero() {
			age = now.Sub(w.lastBeat).Milliseconds()
		}
		out = append(out, WorkerHealth{
			Addr: w.addr, Live: w.live, State: w.h.state(w.live),
			Score:         float64(int(w.h.score*1000)) / 1000,
			LatencyEWMAMS: float64(int(w.h.latEWMA*10)) / 10,
			ErrorRate:     float64(int(w.h.errEWMA*1000)) / 1000,
			InFlight:      w.inflight, Done: w.done, Requeues: w.requeues, HeartbeatMisses: w.hbMisses,
			IntegrityFails: w.integrityFails,
			LastBeatAgeMS:  age, Paused: now.Before(w.pausedUntil),
		})
	}
	return out
}

func sortedWorkerAddrs(m map[string]*workerState) []string {
	out := make([]string, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ { // insertion sort: tiny n
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// outcomeFromRecord replays a terminal journal record as an Outcome, so a
// resumed coordinator reproduces the original run's bytes exactly.
func outcomeFromRecord(t *task, rec journal.Record) *Outcome {
	return &Outcome{
		Unit: t.unit.Name, Hash: t.hash, Status: rec.Status,
		Report: rec.Report, Paths: rec.Paths, Diagnostics: rec.Diagnostics,
		Err: rec.Err, Attempts: 0, Skipped: true, Worker: rec.Worker,
		Degraded: rec.Degraded, Warnings: rec.Warnings,
	}
}

// WriteMergedPaths writes the cluster's merged path database: one JSON
// object mapping unit name → that unit's path database, unit names sorted
// (json.Marshal sorts map keys), values exactly the workers' bytes. The
// output is byte-identical at any worker count and under any crash
// schedule, because every value is deterministic and the map shape is
// completion-order-independent.
func WriteMergedPaths(outcomes []Outcome) ([]byte, error) {
	merged := make(map[string]json.RawMessage, len(outcomes))
	for _, o := range outcomes {
		if len(o.Paths) > 0 {
			merged[o.Unit] = o.Paths
		}
	}
	return json.MarshalIndent(merged, "", " ")
}
