// Package overload is the admission-control layer in front of the Pallas
// analysis engine (`pallas serve` and cluster workers). It has three
// primitives:
//
//   - Controller: a fixed-width, bounded, deadline-aware admission queue —
//     requests beyond the width wait FIFO, are shed when the queue is full or
//     their deadline cannot be met, and expired waiters are reaped before
//     dispatch;
//   - RateLimiter: per-client token buckets plus a global bucket, so one
//     chatty client cannot monopolize the queue;
//   - Breaker: a three-state circuit breaker (closed / open / half-open)
//     used to trip the persistent cache tier to memory-only mode on disk
//     faults instead of failing requests.
//
// The design goal: under a burst of slow, adversarial analyses the server
// sheds a bounded fraction of load with honest Retry-After hints and keeps
// admitted-request latency near the unloaded baseline, instead of queueing
// unboundedly and blowing every deadline.
package overload

import (
	"context"
	"errors"
	"sync"
	"time"

	"pallas/internal/metrics"
)

// Shed reasons. Every Acquire failure is one of these (or a context error),
// so callers can map reasons to status codes and metrics.
var (
	// ErrQueueFull: the admission queue is at capacity; the request is shed
	// immediately rather than queued.
	ErrQueueFull = errors.New("overload: admission queue full")
	// ErrDeadline: the request's deadline passed while queued, or the
	// estimated queue wait already exceeds it at arrival.
	ErrDeadline = errors.New("overload: deadline cannot be met")
	// ErrDraining: the controller is draining; queued and new requests are
	// rejected immediately so shutdown never waits on unadmitted work.
	ErrDraining = errors.New("overload: draining")
)

// waiter is one queued request.
type waiter struct {
	ready       chan error // buffered; nil = admitted, else the shed reason
	deadline    time.Time
	hasDeadline bool
}

// ShedStats is a snapshot of the shed counters by reason: ErrQueueFull,
// ErrDeadline and ErrDraining refusals, and Canceled for queued callers
// whose context ended before admission.
type ShedStats struct {
	QueueFull int64 `json:"queue_full"`
	Deadline  int64 `json:"deadline"`
	Draining  int64 `json:"draining"`
	Canceled  int64 `json:"canceled"`
}

// recentAlpha is the EWMA weight of the newest service-latency sample in the
// estimate behind shed-on-arrival and Retry-After.
const recentAlpha = 0.3

// Controller is the bounded, deadline-aware admission queue in front of the
// analysis engine. At most width requests are admitted concurrently; up to
// maxQueue more wait FIFO. A request is shed — never silently parked —
// when the queue is full, when its deadline has passed or provably cannot be
// met, or when the controller is draining. Expired waiters are reaped at
// dispatch time so a dead request never consumes a freed slot.
type Controller struct {
	width    int
	maxQueue int
	now      func() time.Time

	mu       sync.Mutex
	inflight int
	queue    []*waiter
	draining bool
	admitted int64
	recent   float64 // EWMA of service latency, seconds; 0 until the first Release

	mQueueFull, mDeadline, mDraining, mCanceled *metrics.Counter
}

// NewController returns a controller admitting width concurrent requests
// (at least 1) with at most maxQueue waiting (<= 0 means no queueing — shed
// as soon as every slot is taken). The shed counters
// (pallas_shed_*) live in reg, which is also what Shed reads; nil means a
// registry of the controller's own.
func NewController(width, maxQueue int, reg *metrics.Registry) *Controller {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Controller{
		width: max(width, 1), maxQueue: maxQueue, now: time.Now,
		mQueueFull: reg.Counter(metrics.MetricShedQueueFull, "requests shed: admission queue full"),
		mDeadline:  reg.Counter(metrics.MetricShedDeadline, "requests shed: deadline unmeetable"),
		mDraining:  reg.Counter(metrics.MetricShedDraining, "requests shed: draining"),
		mCanceled:  reg.Counter(metrics.MetricShedCanceled, "requests shed: caller gone while queued"),
	}
}

// Acquire blocks until the request is admitted or shed. deadline is the
// point after which admission is worthless (zero = no deadline); ctx
// cancellation (e.g. the client hanging up) abandons the wait. On nil
// return the caller holds a slot and must call Release exactly once.
func (c *Controller) Acquire(ctx context.Context, deadline time.Time) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if c.draining {
		c.mDraining.Inc()
		c.mu.Unlock()
		return ErrDraining
	}
	now := c.now()
	hasDeadline := !deadline.IsZero()
	if hasDeadline && !now.Before(deadline) {
		c.mDeadline.Inc()
		c.mu.Unlock()
		return ErrDeadline
	}
	if c.inflight < c.width && len(c.queue) == 0 {
		c.inflight++
		c.admitted++
		c.mu.Unlock()
		return nil
	}
	if len(c.queue) >= c.maxQueue {
		c.mQueueFull.Inc()
		c.mu.Unlock()
		return ErrQueueFull
	}
	// Shed-on-arrival: if the estimated wait at this queue position already
	// overruns the deadline, failing now (with an honest Retry-After) beats
	// holding the slot until the deadline does it for us.
	if hasDeadline && now.Add(c.estimateLocked(len(c.queue))).After(deadline) {
		c.mDeadline.Inc()
		c.mu.Unlock()
		return ErrDeadline
	}
	w := &waiter{ready: make(chan error, 1), deadline: deadline, hasDeadline: hasDeadline}
	c.queue = append(c.queue, w)
	c.mu.Unlock()

	var timer *time.Timer
	var expired <-chan time.Time
	if hasDeadline {
		timer = time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case err := <-w.ready:
		return err
	case <-expired:
		return c.abandon(w, ErrDeadline)
	case <-ctx.Done():
		return c.abandon(w, ctx.Err())
	}
}

// abandon removes a waiter whose deadline or context fired. If dispatch or
// drain already settled the waiter concurrently, that verdict is honoured:
// an admission is immediately released (the caller is gone), a shed reason
// replaces ours.
func (c *Controller) abandon(w *waiter, reason error) error {
	c.mu.Lock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			if errors.Is(reason, ErrDeadline) {
				c.mDeadline.Inc()
			} else {
				c.mCanceled.Inc()
			}
			c.mu.Unlock()
			return reason
		}
	}
	c.mu.Unlock()
	if err := <-w.ready; err != nil {
		return err
	}
	// Admitted after the caller gave up: hand the slot straight back.
	c.mu.Lock()
	c.inflight--
	c.dispatchLocked()
	c.mu.Unlock()
	return reason
}

// Release returns a slot. latency is the request's service time (admission
// to completion); it feeds the latency estimate behind shed-on-arrival and
// Retry-After.
func (c *Controller) Release(latency time.Duration) {
	sec := max(latency.Seconds(), 0)
	c.mu.Lock()
	if c.recent == 0 {
		c.recent = sec
	} else {
		c.recent = c.recent*(1-recentAlpha) + sec*recentAlpha
	}
	c.inflight--
	c.dispatchLocked()
	c.mu.Unlock()
}

// dispatchLocked admits queued waiters while slots are free, reaping
// expired waiters instead of dispatching them. c.mu must be held.
func (c *Controller) dispatchLocked() {
	now := c.now()
	for len(c.queue) > 0 && c.inflight < c.width {
		w := c.queue[0]
		c.queue = c.queue[1:]
		if w.hasDeadline && now.After(w.deadline) {
			c.mDeadline.Inc()
			w.ready <- ErrDeadline
			continue
		}
		c.inflight++
		c.admitted++
		w.ready <- nil
	}
}

// Drain rejects every queued waiter with ErrDraining and refuses all
// further Acquires, so graceful shutdown waits only for already-admitted
// work. Idempotent.
func (c *Controller) Drain() {
	c.mu.Lock()
	c.draining = true
	for _, w := range c.queue {
		c.mDraining.Inc()
		w.ready <- ErrDraining
	}
	c.queue = nil
	c.mu.Unlock()
}

// estimateLocked predicts the queue wait for a request entering at the
// given queue position: requests drain at width per recent latency.
// c.mu must be held.
func (c *Controller) estimateLocked(position int) time.Duration {
	if c.recent == 0 {
		return 0 // no samples yet: admit optimistically
	}
	waves := float64(position)/float64(c.width) + 1
	return time.Duration(waves * c.recent * float64(time.Second))
}

// RetryAfter estimates how long a shed caller should wait before retrying:
// the time for the current queue to drain plus one service time. Minimum
// one recent latency (or 1s before any sample) so the hint is never zero.
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.estimateLocked(len(c.queue))
	if d == 0 {
		d = time.Second
	}
	return d
}

// QueueDepth returns how many requests are waiting for admission.
func (c *Controller) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// InFlight returns how many requests currently hold a slot.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Width returns how many requests may hold a slot at once.
func (c *Controller) Width() int { return c.width }

// Admitted returns how many requests have been admitted in total.
func (c *Controller) Admitted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitted
}

// Shed reads the shed counters by reason. Draining includes refusals that
// callers counted on the same registry counter before reaching Acquire.
func (c *Controller) Shed() ShedStats {
	return ShedStats{
		QueueFull: c.mQueueFull.Value(),
		Deadline:  c.mDeadline.Value(),
		Draining:  c.mDraining.Value(),
		Canceled:  c.mCanceled.Value(),
	}
}
