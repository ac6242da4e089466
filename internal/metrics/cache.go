package metrics

// Result-cache metric names: each is the counter behind the rcache.Stats
// field of the same name, which documents what it counts. A cache registers
// them in the registry it is opened on (rcache.Options.Registry); a server
// opens its result cache on its own registry.
const (
	MetricCacheHits           = "pallas_cache_hits_total"
	MetricCacheMisses         = "pallas_cache_misses_total"
	MetricCacheMemHits        = "pallas_cache_mem_hits_total"
	MetricCacheDiskHits       = "pallas_cache_disk_hits_total"
	MetricCacheShared         = "pallas_cache_shared_total"
	MetricCacheComputes       = "pallas_cache_computes_total"
	MetricCacheEvictions      = "pallas_cache_evictions_total"
	MetricCacheDiskFaults     = "pallas_cache_disk_faults_total"
	MetricCacheDiskFullPrunes = "pallas_cache_disk_full_prunes_total"
	MetricCacheBreakerSkips   = "pallas_cache_breaker_skips_total"
	MetricCachePruned         = "pallas_cache_pruned_total"
)
