package cluster

// Worker health scoring: the gray-failure defense. Binary liveness (the
// heartbeat) only catches workers that are *gone*; a worker that is 20x
// slow, fails every third unit, or answers heartbeats while its analyses
// rot stalls a run without ever tripping eviction. Each worker therefore
// carries a composite health score in [0, 1] — latency EWMA relative to the
// fleet's best, a decayed error rate, and heartbeat age — recomputed every
// scheduler tick. The score selects hedge targets and decides probation, so
// load drains away from a degrading worker *before* the heartbeat would
// evict it. Crossing healthDemote puts a worker on probation — it pulls at
// most one probe unit at a time from the run queue and is never a hedge
// target — and it must recover past healthPromote to rejoin, the hysteresis
// gap preventing a borderline worker from flapping in and out of rotation.

import (
	"sort"
	"time"
)

const (
	// healthLatAlpha smooths per-unit latency: one sample moves the EWMA 30%
	// of the way — responsive to a worker going slow within a few units,
	// stable against one outlier.
	healthLatAlpha = 0.3
	// healthErrAlpha moves the decayed error rate: an error lifts it 30% of
	// the way to 1, a success decays it by the same factor.
	healthErrAlpha = 0.3
	// healthDemote and healthPromote are the probation hysteresis bounds.
	healthDemote  = 0.5
	healthPromote = 0.75
)

// health is one worker's gray-failure signal state, guarded by the
// coordinator's mutex like the rest of workerState.
type health struct {
	latEWMA   float64 // smoothed per-unit completion latency, ms; 0 = no samples
	errEWMA   float64 // decayed error rate in [0, 1]
	score     float64 // last composite score in [0, 1]
	probation bool
}

func (h *health) observeLatency(d time.Duration) {
	ms := float64(d.Microseconds()) / 1000
	if h.latEWMA == 0 {
		h.latEWMA = ms
	} else {
		h.latEWMA = (1-healthLatAlpha)*h.latEWMA + healthLatAlpha*ms
	}
}

func (h *health) observeOK() {
	h.errEWMA *= 1 - healthErrAlpha
}

func (h *health) observeError() {
	h.errEWMA = (1-healthErrAlpha)*h.errEWMA + healthErrAlpha
}

// state renders the worker's dispatch state for the health table.
func (h *health) state(live bool) string {
	switch {
	case !live:
		return "evicted"
	case h.probation:
		return "probation"
	default:
		return "healthy"
	}
}

// updateHealthLocked recomputes every live worker's composite score and
// applies the probation hysteresis. Called from the scheduler tick under
// c.mu.
func (c *Coordinator) updateHealthLocked(now time.Time) {
	// The latency component is relative: the fastest live worker anchors
	// 1.0, a worker k× slower scores 1/k. Relative scoring keeps a uniformly
	// slow corpus from demoting the whole fleet.
	best := 0.0
	for _, w := range c.workers {
		if w.live && w.h.latEWMA > 0 && (best == 0 || w.h.latEWMA < best) {
			best = w.h.latEWMA
		}
	}
	minScore := 1.0
	var onProbation int64
	for _, w := range c.workers {
		if !w.live {
			continue
		}
		lat := 1.0
		if best > 0 && w.h.latEWMA > 0 {
			lat = best / w.h.latEWMA
		}
		hb := 1.0
		if !w.lastBeat.IsZero() {
			// Full credit within two heartbeat intervals (a beat may simply
			// not be due yet), then linear decay to zero over the miss
			// budget — the score hits bottom as eviction closes in.
			if age := now.Sub(w.lastBeat); age > 2*c.opts.HeartbeatInterval {
				over := age - 2*c.opts.HeartbeatInterval
				window := time.Duration(c.opts.HeartbeatMisses) * c.opts.HeartbeatInterval
				hb -= float64(over) / float64(window)
				if hb < 0 {
					hb = 0
				}
			}
		}
		s := lat * (1 - w.h.errEWMA) * hb
		if s < 0 {
			s = 0
		} else if s > 1 {
			s = 1
		}
		w.h.score = s
		switch {
		case !w.h.probation && s < healthDemote:
			w.h.probation = true
			c.mProbations.Inc()
			c.logf("cluster: worker %s demoted to probation (score %.2f: lat %.1fms, err %.2f, beat %.2f)",
				w.addr, s, w.h.latEWMA, w.h.errEWMA, hb)
		case w.h.probation && s >= healthPromote:
			w.h.probation = false
			c.logf("cluster: worker %s promoted from probation (score %.2f)", w.addr, s)
		}
		if w.h.probation {
			onProbation++
		}
		if s < minScore {
			minScore = s
		}
	}
	c.gHealthMin.Set(int64(minScore * 1000))
	c.gProbation.Set(onProbation)
}

// latWindowSize bounds the completion-latency sample ring feeding the hedge
// threshold and the Stats quantiles.
const latWindowSize = 256

// observeLatencyLocked records one successful completion's latency in the
// run-wide sample ring.
func (c *Coordinator) observeLatencyLocked(d time.Duration) {
	c.latWin[c.latN%latWindowSize] = float64(d.Microseconds()) / 1000
	c.latN++
}

// latQuantilesLocked computes p50/p95/p99 (ms) over the sample window.
// Zeros until any completion has been observed.
func (c *Coordinator) latQuantilesLocked() (p50, p95, p99 float64) {
	n := c.latN
	if n > latWindowSize {
		n = latWindowSize
	}
	if n == 0 {
		return 0, 0, 0
	}
	samples := make([]float64, n)
	copy(samples, c.latWin[:n])
	sort.Float64s(samples)
	q := func(p float64) float64 {
		i := int(p * float64(n-1))
		return samples[i]
	}
	return q(0.50), q(0.95), q(0.99)
}
