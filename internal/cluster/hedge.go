package cluster

// Hedged dispatch: the tail-latency defense. A unit stuck on a slow worker
// holds the whole run hostage — the heartbeat says the worker is alive, the
// request timeout is minutes away, and eviction never comes. When a unit's
// in-flight time exceeds a quantile-tracked threshold (p95 of observed
// completion latency × hedgeFactor, clamped below by Options.HedgeAfter),
// the scheduler speculatively re-dispatches it to the best healthy worker
// under a fresh lease epoch. First completion wins; the loser's lease is
// invalidated and its connection canceled, and its response — should it
// arrive anyway — is suppressed by the fence as a duplicate. Hedges do not
// consume retry attempts: a hedge is a bet against a slow worker, not a
// failure.

import (
	"time"
)

const (
	// hedgeFactor multiplies the observed p95 completion latency to form the
	// hedge threshold: only units at 3× the tail are worth paying a
	// duplicate analysis for.
	hedgeFactor = 3.0
	// hedgeMinSamples is how many completions must be observed before the
	// p95 is trusted; below it only the HedgeAfter floor applies.
	hedgeMinSamples = 8
	// maxHedgesPerTask bounds speculative re-dispatches of one unit, so a
	// unit that is slow *everywhere* (it is the unit, not the worker)
	// cannot eat the hedge budget alone.
	maxHedgesPerTask = 2
)

// hedgeThresholdLocked is the current in-flight age beyond which a unit is
// hedged: max(HedgeAfter, p95 × hedgeFactor).
func (c *Coordinator) hedgeThresholdLocked() time.Duration {
	thr := c.opts.HedgeAfter
	if c.latN >= hedgeMinSamples {
		_, p95, _ := c.latQuantilesLocked()
		if q := time.Duration(p95 * hedgeFactor * float64(time.Millisecond)); q > thr {
			thr = q
		}
	}
	return thr
}

// hedgeScanLocked walks the in-flight tasks and launches hedge dispatches
// for those past the threshold. Called from the scheduler tick under c.mu.
func (c *Coordinator) hedgeScanLocked(now time.Time) {
	if c.opts.HedgeAfter < 0 || c.closed || c.hedgesOut >= c.opts.HedgeMax {
		return
	}
	thr := c.hedgeThresholdLocked()
	for _, t := range c.tasks {
		if c.hedgesOut >= c.opts.HedgeMax {
			return
		}
		// Exactly one outstanding lease, no outcome, hedge budget left: a
		// second lease would mean a hedge (or injected duplicate) is already
		// racing, and a resolved task needs nothing.
		if t.outcome != nil || len(t.leases) != 1 || t.hedges >= maxHedgesPerTask {
			continue
		}
		var ls *lease
		for _, l := range t.leases {
			ls = l
		}
		if ls.hedge || now.Sub(ls.start) < thr {
			continue
		}
		hw := c.hedgeTargetLocked(ls.worker)
		if hw == nil {
			continue
		}
		t.hedges++
		c.mHedges.Inc()
		nls := c.newLeaseLocked(t, hw, true)
		c.logf("cluster: hedging %s (in flight %dms on %s, threshold %s) to %s (epoch %d)",
			t.unit.Name, now.Sub(ls.start).Milliseconds(), ls.worker, thr, hw.addr, nls.epoch)
		c.wg.Add(1)
		go func(hw *workerState, t *task, nls *lease) {
			defer c.wg.Done()
			c.dispatchLease(hw, t, nls)
		}(hw, t, nls)
	}
}

// hedgeTargetLocked picks the hedge destination: the healthy live worker
// (never the current leaseholder, never one paused by backpressure) with
// the best health score, ties broken toward the least loaded then the
// lowest address. Nil when no eligible worker exists — hedging onto a sick
// worker would just double the tail.
func (c *Coordinator) hedgeTargetLocked(exclude string) *workerState {
	var best *workerState
	now := time.Now()
	for _, w := range c.workers {
		if !w.live || w.addr == exclude || w.h.probation || now.Before(w.pausedUntil) {
			continue
		}
		switch {
		case best == nil,
			w.h.score > best.h.score,
			w.h.score == best.h.score && w.inflight < best.inflight,
			w.h.score == best.h.score && w.inflight == best.inflight && w.addr < best.addr:
			best = w
		}
	}
	return best
}
