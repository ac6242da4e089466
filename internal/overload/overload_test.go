package overload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- Limiter ---

func TestLimiterStartsAtMaxAndHoldsUnderFlatLatency(t *testing.T) {
	l := NewLimiter(2, 8)
	if l.Limit() != 8 {
		t.Fatalf("initial limit = %d, want 8", l.Limit())
	}
	for i := 0; i < 10*DefaultWindow; i++ {
		l.Observe(10 * time.Millisecond)
	}
	if l.Limit() != 8 {
		t.Fatalf("flat-latency limit = %d, want 8 (no reason to shrink)", l.Limit())
	}
}

func TestLimiterShrinksUnderInflatedLatencyAndRespectsFloor(t *testing.T) {
	l := NewLimiter(2, 8)
	// Anchor the baseline at 10ms.
	for i := 0; i < DefaultWindow; i++ {
		l.Observe(10 * time.Millisecond)
	}
	// Then blow past tolerance × baseline for many windows.
	for i := 0; i < 50*DefaultWindow; i++ {
		l.Observe(200 * time.Millisecond)
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("inflated-latency limit = %d, want floor 2", got)
	}
}

func TestLimiterGrowsBackAfterRecovery(t *testing.T) {
	l := NewLimiter(1, 6)
	for i := 0; i < DefaultWindow; i++ {
		l.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 50*DefaultWindow; i++ {
		l.Observe(500 * time.Millisecond)
	}
	if l.Limit() != 1 {
		t.Fatalf("limit = %d, want 1 before recovery", l.Limit())
	}
	// Latency returns to baseline: additive increase climbs back to max.
	for i := 0; i < 20*DefaultWindow; i++ {
		l.Observe(10 * time.Millisecond)
	}
	if l.Limit() != 6 {
		t.Fatalf("recovered limit = %d, want 6", l.Limit())
	}
}

func TestLimiterClampsConstructorArgs(t *testing.T) {
	l := NewLimiter(0, 0)
	if l.Min() != 1 || l.Max() != 1 || l.Limit() != 1 {
		t.Fatalf("min/max/limit = %d/%d/%d, want 1/1/1", l.Min(), l.Max(), l.Limit())
	}
	if l := NewLimiter(9, 4); l.Min() != 4 {
		t.Fatalf("min clamped to %d, want 4 (<= max)", l.Min())
	}
}

// --- Breaker ---

// testClock is an injectable manual clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1700000000, 0)} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	clk := newTestClock()
	b := NewBreaker(3, time.Second)
	b.now = clk.now

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("breaker must stay closed below threshold")
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v before threshold", b.State())
	}
	b.Allow()
	b.Failure() // third consecutive failure trips
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state = %v trips = %d, want open/1", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker within cooldown must refuse")
	}

	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("post-cooldown breaker must admit one probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller during probe must be refused")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker must admit")
	}
	b.Success()
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newTestClock()
	b := NewBreaker(1, time.Second)
	b.now = clk.now
	b.Allow()
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe must be admitted")
	}
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("state = %v trips = %d, want open/2", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker must refuse within the new cooldown")
	}
}

// TestBreakerInconclusiveProbeReleasesSlot pins the neutral-outcome path: a
// probe that proves nothing (e.g. a cache lookup hitting ENOENT) must hand
// the probe slot back instead of wedging the breaker half-open forever.
func TestBreakerInconclusiveProbeReleasesSlot(t *testing.T) {
	clk := newTestClock()
	b := NewBreaker(1, time.Second)
	b.now = clk.now
	b.Allow()
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe must be admitted")
	}
	b.Inconclusive()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after inconclusive probe = %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("next caller after an inconclusive probe must get the probe slot")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(2, time.Second)
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures must not trip")
	}
}

// --- RateLimiter ---

func TestRateLimiterPerClientBurstAndRefill(t *testing.T) {
	clk := newTestClock()
	r := NewRateLimiter(2, 2, 0, 0, nil)
	r.now = clk.now

	for i := 0; i < 2; i++ {
		if ok, _ := r.Allow("a"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, wait := r.Allow("a")
	if ok {
		t.Fatal("post-burst request must be refused")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s]", wait)
	}
	// A different client is unaffected.
	if ok, _ := r.Allow("b"); !ok {
		t.Fatal("second client must have its own bucket")
	}
	// Refill restores a token.
	clk.advance(time.Second)
	if ok, _ := r.Allow("a"); !ok {
		t.Fatal("refilled bucket must admit")
	}
	if r.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", r.Denied())
	}
}

func TestRateLimiterGlobalBucket(t *testing.T) {
	clk := newTestClock()
	r := NewRateLimiter(0, 0, 1, 1, nil)
	r.now = clk.now
	if ok, _ := r.Allow("a"); !ok {
		t.Fatal("first request within global burst refused")
	}
	if ok, _ := r.Allow("b"); ok {
		t.Fatal("global bucket must apply across clients")
	}
}

func TestRateLimiterDenialRefundsGlobalToken(t *testing.T) {
	clk := newTestClock()
	r := NewRateLimiter(1, 1, 10, 10, nil)
	r.now = clk.now
	r.Allow("a")
	if ok, _ := r.Allow("a"); ok {
		t.Fatal("client bucket must refuse")
	}
	// The refused request must not have consumed global capacity: nine more
	// distinct clients (10 global burst - 1 spent) all fit.
	for i := 0; i < 9; i++ {
		if ok, _ := r.Allow(string(rune('b' + i))); !ok {
			t.Fatalf("client %d refused: per-client denial leaked a global token", i)
		}
	}
}

func TestRateLimiterZeroValueAdmitsEverything(t *testing.T) {
	var r *RateLimiter
	if ok, _ := r.Allow("x"); !ok {
		t.Fatal("nil limiter must admit")
	}
	r2 := NewRateLimiter(0, 0, 0, 0, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := r2.Allow("x"); !ok {
			t.Fatal("unlimited limiter must admit")
		}
	}
}

func TestRateLimiterEvictsIdleClients(t *testing.T) {
	clk := newTestClock()
	r := NewRateLimiter(100, 1, 0, 0, nil)
	r.now = clk.now
	for i := 0; i < maxClientBuckets; i++ {
		r.Allow(string(rune(i)))
	}
	// Everyone idles long enough to refill, so the next new client triggers
	// a sweep that clears them.
	clk.advance(time.Minute)
	r.Allow("fresh")
	r.mu.Lock()
	n := len(r.clients)
	r.mu.Unlock()
	if n > 2 {
		t.Fatalf("bucket map holds %d entries after sweep, want <= 2", n)
	}
}

// --- Controller ---

func TestControllerAdmitsUpToLimitThenQueues(t *testing.T) {
	c := NewController(NewLimiter(2, 2), 8, nil)
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- c.Acquire(context.Background(), time.Time{}) }()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	select {
	case err := <-admitted:
		t.Fatalf("third acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.Release(time.Millisecond)
	if err := <-admitted; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	if c.InFlight() != 2 || c.QueueDepth() != 0 {
		t.Fatalf("inflight/queue = %d/%d, want 2/0", c.InFlight(), c.QueueDepth())
	}
}

func TestControllerShedsWhenQueueFull(t *testing.T) {
	c := NewController(NewLimiter(1, 1), 1, nil)
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	go c.Acquire(context.Background(), time.Time{}) // fills the queue
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	err := c.Acquire(nil, time.Time{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if c.Shed().QueueFull != 1 {
		t.Fatalf("shed stats = %+v", c.Shed())
	}
}

func TestControllerShedsExpiredDeadlineOnArrival(t *testing.T) {
	c := NewController(NewLimiter(1, 1), 4, nil)
	err := c.Acquire(nil, time.Now().Add(-time.Second))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

func TestControllerShedsUnmeetableDeadlineWhileQueued(t *testing.T) {
	c := NewController(NewLimiter(1, 1), 4, nil)
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := c.Acquire(context.Background(), time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline shed took %v, want ~30ms", elapsed)
	}
	if c.Shed().Deadline != 1 {
		t.Fatalf("shed stats = %+v", c.Shed())
	}
	c.Release(time.Millisecond)
	if c.InFlight() != 0 {
		t.Fatalf("inflight = %d after release, want 0", c.InFlight())
	}
}

func TestControllerReapsExpiredWaitersBeforeDispatch(t *testing.T) {
	c := NewController(NewLimiter(1, 1), 4, nil)
	c.now = time.Now
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Two waiters: the first with a deadline that will be long past when the
	// slot frees, the second without. Stop the first waiter's own timer from
	// firing by giving it... we can't; instead both run concurrently and we
	// assert the live one gets the slot and the dead one is shed.
	dead := make(chan error, 1)
	live := make(chan error, 1)
	go func() { dead <- c.Acquire(context.Background(), time.Now().Add(10*time.Millisecond)) }()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	go func() { live <- c.Acquire(context.Background(), time.Time{}) }()
	waitFor(t, func() bool { return c.QueueDepth() == 2 })
	time.Sleep(30 * time.Millisecond) // let the first waiter expire
	c.Release(time.Millisecond)
	if err := <-dead; !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired waiter got %v, want ErrDeadline", err)
	}
	if err := <-live; err != nil {
		t.Fatalf("live waiter got %v, want admission", err)
	}
}

func TestControllerDrainRejectsQueuedImmediately(t *testing.T) {
	c := NewController(NewLimiter(1, 1), 8, nil)
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { queued <- c.Acquire(context.Background(), time.Time{}) }()
	}
	waitFor(t, func() bool { return c.QueueDepth() == 3 })
	start := time.Now()
	c.Drain()
	for i := 0; i < 3; i++ {
		if err := <-queued; !errors.Is(err, ErrDraining) {
			t.Fatalf("queued waiter got %v, want ErrDraining", err)
		}
	}
	if time.Since(start) > time.Second {
		t.Fatal("drain held queued waiters instead of rejecting them")
	}
	if err := c.Acquire(nil, time.Time{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain acquire = %v, want ErrDraining", err)
	}
	if got := c.Shed().Draining; got != 4 {
		t.Fatalf("draining sheds = %d, want 4", got)
	}
	// The admitted request still completes normally.
	c.Release(time.Millisecond)
	if c.InFlight() != 0 {
		t.Fatalf("inflight = %d", c.InFlight())
	}
}

func TestControllerContextCancelRemovesWaiter(t *testing.T) {
	c := NewController(NewLimiter(1, 1), 8, nil)
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Acquire(ctx, time.Time{}) }()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.QueueDepth() != 0 {
		t.Fatal("canceled waiter left in queue")
	}
	// The freed queue position is usable and the slot was never leaked.
	c.Release(time.Millisecond)
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	c.Release(time.Millisecond)
}

func TestControllerRetryAfterIsPositive(t *testing.T) {
	c := NewController(NewLimiter(1, 1), 8, nil)
	if c.RetryAfter() <= 0 {
		t.Fatal("retry-after must be positive before any sample")
	}
	if err := c.Acquire(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	c.Release(50 * time.Millisecond)
	if ra := c.RetryAfter(); ra <= 0 {
		t.Fatalf("retry-after = %v, want > 0", ra)
	}
}

// TestControllerHammer races many acquirers against releases, cancels,
// deadline expiries and a late drain; under -race it proves the accounting
// invariants: inflight never exceeds the ceiling or goes negative, and
// every admission is eventually released.
func TestControllerHammer(t *testing.T) {
	const workers, goroutines = 4, 64
	c := NewController(NewLimiter(2, workers), 16, nil)
	var peak, neg atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var deadline time.Time
				if g%3 == 0 {
					deadline = time.Now().Add(time.Duration(i%5) * time.Millisecond)
				}
				ctx, cancel := context.WithCancel(context.Background())
				if g%5 == 0 && i%7 == 0 {
					cancel() // pre-canceled acquire
				}
				err := c.Acquire(ctx, deadline)
				cancel()
				if err != nil {
					continue
				}
				n := int64(c.InFlight())
				if n > peak.Load() {
					peak.Store(n)
				}
				if n < 0 {
					neg.Store(1)
				}
				c.Release(time.Duration(i%3) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if neg.Load() != 0 {
		t.Fatal("inflight went negative")
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak inflight = %d, want <= %d", p, workers)
	}
	if c.InFlight() != 0 || c.QueueDepth() != 0 {
		t.Fatalf("leaked state: inflight=%d queue=%d", c.InFlight(), c.QueueDepth())
	}
}

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}
