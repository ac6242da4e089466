package metrics

// Incremental-analysis metric names. The memo store (internal/incr)
// registers these in the registry it is opened on — the analyzer's own — so
// one /metrics scrape of a serve or worker process shows how much
// re-analysis the function-level memo avoided. Declared here, next to the
// registry, like the cluster set.
const (
	// MetricIncrFuncHits counts per-function memo lookups answered from the
	// store (the function's paths were replayed, not re-extracted).
	MetricIncrFuncHits = "pallas_incr_func_hits_total"
	// MetricIncrFuncMisses counts per-function memo lookups that found
	// nothing usable (the function was extracted from scratch).
	MetricIncrFuncMisses = "pallas_incr_func_misses_total"
	// MetricIncrFuncInvalidations counts function lookups whose transitive
	// fingerprint differed from the previous lookup of the same (unit,
	// function) slot — i.e. memo entries invalidated by an edit to the
	// function or one of its transitive callees.
	MetricIncrFuncInvalidations = "pallas_incr_func_invalidations_total"
	// MetricIncrUnitHits counts whole-unit verdict replays (nothing in the
	// unit changed: report and path database served from the memo).
	MetricIncrUnitHits = "pallas_incr_unit_hits_total"
	// MetricIncrUnitMisses counts whole-unit verdict lookups that missed.
	MetricIncrUnitMisses = "pallas_incr_unit_misses_total"
	// MetricIncrReuseRatio gauges the memo's reuse ratio ×1000: hits /
	// (hits + misses) over all function and unit lookups since the store
	// opened. 1000 means every lookup was served from the memo.
	MetricIncrReuseRatio = "pallas_incr_reuse_ratio_x1000"
)
