package overload

import (
	"math"
	"sync"
	"time"

	"pallas/internal/metrics"
)

// maxClientBuckets bounds the per-client bucket map so an attacker rotating
// client identities cannot balloon the heap; when exceeded, buckets that
// have fully refilled (i.e. idle clients) are evicted.
const maxClientBuckets = 4096

// bucket is one token bucket with lazy refill.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills for the elapsed time and, if at least one token is present,
// consumes it. On refusal it returns how long until a token will be
// available.
func (b *bucket) take(now time.Time, rate, burst float64) (bool, time.Duration) {
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = math.Min(burst, b.tokens+elapsed*rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / rate
	return false, time.Duration(need * float64(time.Second))
}

// RateLimiter enforces per-client and global token buckets. A zero rate
// disables the corresponding bucket, so RateLimiter{} admits everything.
// All methods are safe for concurrent use.
type RateLimiter struct {
	perSec      float64 // per-client refill rate; 0 = unlimited
	burst       float64
	globalSec   float64 // server-wide refill rate; 0 = unlimited
	globalBurst float64
	now         func() time.Time // injectable clock for tests

	mu      sync.Mutex
	global  bucket
	clients map[string]*bucket
	mDenied *metrics.Counter
}

// NewRateLimiter returns a limiter with the given per-client and global
// rates (requests per second). A burst <= 0 defaults to the corresponding
// rate (rounded up, minimum 1); a rate <= 0 disables that bucket. Denials
// count in reg (pallas_shed_rate_limited_total), which is also what Denied
// reads; nil means a registry of the limiter's own.
func NewRateLimiter(perSec, burst, globalSec, globalBurst float64, reg *metrics.Registry) *RateLimiter {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if perSec > 0 && burst <= 0 {
		burst = math.Max(1, math.Ceil(perSec))
	}
	if globalSec > 0 && globalBurst <= 0 {
		globalBurst = math.Max(1, math.Ceil(globalSec))
	}
	r := &RateLimiter{
		perSec: perSec, burst: burst,
		globalSec: globalSec, globalBurst: globalBurst,
		now:     time.Now,
		clients: map[string]*bucket{},
		mDenied: reg.Counter(metrics.MetricShedRateLimited, "requests shed: rate limited"),
	}
	r.global = bucket{tokens: globalBurst, last: r.now()}
	return r
}

// Allow charges one request to the named client. It returns false with a
// retry-after hint when either the client's bucket or the global bucket is
// out of tokens. A denial consumes nothing, so the hint stays honest under
// repeated polling.
func (r *RateLimiter) Allow(client string) (bool, time.Duration) {
	if r == nil || (r.perSec <= 0 && r.globalSec <= 0) {
		return true, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	if r.globalSec > 0 {
		if ok, wait := r.global.take(now, r.globalSec, r.globalBurst); !ok {
			r.mDenied.Inc()
			return false, wait
		}
	}
	if r.perSec > 0 {
		b, ok := r.clients[client]
		if !ok {
			r.evictIdleLocked(now)
			b = &bucket{tokens: r.burst, last: now}
			r.clients[client] = b
		}
		if ok, wait := b.take(now, r.perSec, r.burst); !ok {
			// Refund the global token: the request was never admitted.
			if r.globalSec > 0 {
				r.global.tokens = math.Min(r.globalBurst, r.global.tokens+1)
			}
			r.mDenied.Inc()
			return false, wait
		}
	}
	return true, 0
}

// Denied reads how many requests the limiter has refused.
func (r *RateLimiter) Denied() int64 {
	if r == nil || r.mDenied == nil {
		return 0
	}
	return r.mDenied.Value()
}

// evictIdleLocked drops buckets that have fully refilled (their owner has
// been idle at least burst/rate seconds) once the map outgrows the bound.
func (r *RateLimiter) evictIdleLocked(now time.Time) {
	if len(r.clients) < maxClientBuckets {
		return
	}
	for k, b := range r.clients {
		if b.tokens+now.Sub(b.last).Seconds()*r.perSec >= r.burst {
			delete(r.clients, k)
		}
	}
}
