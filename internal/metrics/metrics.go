// Package metrics is a small, stdlib-only metrics registry: the one counter
// store behind the analysis server, the analyzer, the memo, the peer tier
// and the cluster coordinator. It exposes exactly the three instrument kinds
// the system needs — monotonic counters, gauges, and fixed-bucket
// histograms — and renders them in the Prometheus text exposition format,
// so `pallas serve`'s /metrics endpoint can be scraped by standard tooling
// without pulling in a client library.
//
// All instruments are safe for concurrent use and cheap enough for hot
// paths: a counter increment is one atomic add.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight requests, cache bytes).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram of float64 observations
// (request latency in seconds, by convention).
type Histogram struct {
	uppers []float64      // bucket upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64 // one per upper bound
	count  atomic.Int64   // total observations
	sum    atomic.Uint64  // math.Float64bits accumulator, CAS-updated
}

// DefBuckets is the default latency bucket set, in seconds. It spans 100µs
// (a pure cache hit) to 30s (a budget-bounded cold analysis).
var DefBuckets = []float64{
	.0001, .0005, .001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.uppers {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// kind tags a registered instrument for exposition.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

type instrument struct {
	name string
	help string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named instruments. Registration is idempotent: asking for
// an existing name returns the existing instrument, so independent layers
// (the server and its peer tier) can share one metric by agreeing on a name.
// There is no process-global registry: each component that counts takes one
// at construction (nil meaning a fresh registry of its own), and its Stats()
// snapshot reads the same counters its /metrics exposition renders.
type Registry struct {
	mu    sync.Mutex
	by    map[string]*instrument
	order []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: map[string]*instrument{}}
}

func (r *Registry) lookup(name, help string, k kind) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.by[name]; ok {
		if in.kind != k {
			panic(fmt.Sprintf("metrics: %s re-registered with a different kind", name))
		}
		return in
	}
	in := &instrument{name: name, help: help, kind: k}
	switch k {
	case kindCounter:
		in.c = &Counter{}
	case kindGauge:
		in.g = &Gauge{}
	case kindHistogram:
		in.h = &Histogram{}
	}
	r.by[name] = in
	r.order = append(r.order, name)
	return in
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge).g
}

// Histogram returns the named histogram, registering it on first use with
// the given bucket upper bounds (nil means DefBuckets). Buckets are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	in := r.lookup(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.h.uppers == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		ups := append([]float64(nil), buckets...)
		sort.Float64s(ups)
		in.h.uppers = ups
		in.h.counts = make([]atomic.Int64, len(ups))
	}
	return in.h
}

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ins := make([]*instrument, 0, len(r.order))
	for _, name := range r.order {
		ins = append(ins, r.by[name])
	}
	r.mu.Unlock()

	for _, in := range ins {
		var err error
		switch in.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				in.name, in.help, in.name, in.name, in.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				in.name, in.help, in.name, in.name, in.g.Value())
		case kindHistogram:
			err = writeHistogram(w, in)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, in *instrument) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
		in.name, in.help, in.name); err != nil {
		return err
	}
	// Buckets are cumulative: each le bucket counts observations at or below
	// its bound, ending with the +Inf bucket equal to _count.
	cum := int64(0)
	for i, ub := range in.h.uppers {
		cum += in.h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			in.name, formatFloat(ub), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", in.name, in.h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %v\n%s_count %d\n",
		in.name, in.h.Sum(), in.name, in.h.Count()); err != nil {
		return err
	}
	return nil
}

// formatFloat renders a bucket bound the way Prometheus expects (no
// exponent for the usual latency bounds).
func formatFloat(f float64) string {
	return fmt.Sprintf("%v", f)
}
