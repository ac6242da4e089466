package metrics

// Cluster metric names. The coordinator and supervisor (internal/cluster)
// register these in one registry per `pallas cluster` process, which its
// -status-addr /metrics renders, so one scrape covers the whole run; they
// are declared here, next to the registry, so the full cluster instrument
// set is discoverable in one place and name collisions with server metrics
// are avoided by inspection.
const (
	// MetricClusterWorkersLive gauges workers currently live (registered,
	// heartbeating, not evicted).
	MetricClusterWorkersLive = "pallas_cluster_workers_live"
	// MetricClusterRequeues counts units re-dispatched after a worker
	// failure, eviction, or transient analysis error.
	MetricClusterRequeues = "pallas_cluster_requeues_total"
	// MetricClusterHeartbeatMisses counts missed worker heartbeats (one per
	// probe that failed or timed out; HeartbeatMisses consecutive misses
	// evict the worker).
	MetricClusterHeartbeatMisses = "pallas_cluster_heartbeat_misses_total"
	// MetricClusterEvictions counts workers evicted for missed heartbeats
	// or fatal transport failure.
	MetricClusterEvictions = "pallas_cluster_evictions_total"
	// MetricClusterDupCompletions counts completions suppressed because the
	// unit's content hash was already recorded (a requeued unit finishing
	// twice).
	MetricClusterDupCompletions = "pallas_cluster_duplicate_completions_total"
	// MetricClusterUnitsDone counts units whose terminal outcome was
	// recorded (completed, failed, or quarantined — not skipped-on-resume).
	MetricClusterUnitsDone = "pallas_cluster_units_done_total"
	// MetricClusterBackpressure counts dispatches refused by a worker's
	// overload layer (HTTP 503 + Retry-After) and requeued without spending
	// an attempt.
	MetricClusterBackpressure = "pallas_cluster_backpressure_total"
	// MetricClusterWorkerRestarts counts crashed spawned workers restarted
	// by the supervisor.
	MetricClusterWorkerRestarts = "pallas_cluster_worker_restarts_total"
	// MetricClusterHedges counts speculative re-dispatches launched because
	// a unit's in-flight time crossed the hedge threshold (p95 × factor,
	// floor-clamped).
	MetricClusterHedges = "pallas_cluster_hedges_total"
	// MetricClusterHedgeWins counts hedged units whose winning completion
	// came from the hedge rather than the original dispatch — the metric
	// that justifies (or indicts) the hedging budget.
	MetricClusterHedgeWins = "pallas_cluster_hedge_wins_total"
	// MetricClusterStaleCompletions counts completions rejected because
	// their lease epoch was no longer valid (zombie worker, cancelled
	// hedge) — fencing at work.
	MetricClusterStaleCompletions = "pallas_cluster_stale_completions_total"
	// MetricClusterIntegrityFailures counts completions whose end-to-end
	// content checksum did not match their bytes; the unit is requeued
	// (attempt refunded) and the worker evicted after IntegrityLimit
	// offenses.
	MetricClusterIntegrityFailures = "pallas_cluster_integrity_failures_total"
	// MetricClusterWorkerHealthMin gauges the lowest health score among live
	// workers, scaled ×1000 (the registry is integer-valued): 1000 is a
	// fully healthy fleet, low values flag a gray-failing straggler that
	// liveness alone would miss.
	MetricClusterWorkerHealthMin = "pallas_cluster_worker_health_min_x1000"
	// MetricClusterProbations counts health-score demotions to probation
	// (one in-flight probe unit at a time, never a hedge target).
	MetricClusterProbations = "pallas_cluster_worker_probations_total"
	// MetricClusterWorkersProbation gauges workers currently on probation.
	MetricClusterWorkersProbation = "pallas_cluster_workers_probation"
)
