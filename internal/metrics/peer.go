package metrics

// Shared cache tier metric names. The peer tier (internal/rcache/peer)
// registers these in its registry (the server's, on workers and serve, so
// one scrape shows how much the cluster-wide cache saved versus what it
// cost); declared here, next to the registry, like the cluster and incr
// sets.
const (
	// MetricPeerHits counts cache lookups answered by a remote peer after
	// content-sum verification (the local tiers missed; the fleet's warm
	// state saved a re-analysis).
	MetricPeerHits = "pallas_peer_hits_total"
	// MetricPeerMisses counts lookups that fell through the whole tier —
	// local miss plus every reachable replica missing, timing out, or
	// refusing — and degraded to a local compute.
	MetricPeerMisses = "pallas_peer_misses_total"
	// MetricPeerRotRefusals counts remote entries refused because their
	// content checksum did not match their bytes (rot in a peer's tier or on
	// the wire beneath the frame CRC); refused entries are treated as misses
	// and trigger read-repair from the good replica when one exists.
	MetricPeerRotRefusals = "pallas_peer_rot_refusals_total"
	// MetricPeerRepairs counts read-repair writes: a verified entry pushed
	// to a replica that missed or served rot, restoring the replication
	// factor.
	MetricPeerRepairs = "pallas_peer_read_repairs_total"
	// MetricPeerPuts counts replicated writes attempted to owner peers
	// (excluding handoff drains and read repairs).
	MetricPeerPuts = "pallas_peer_puts_total"
	// MetricPeerPutBytes counts payload bytes shipped in replicated writes —
	// the replication overhead the README capacity note is about.
	MetricPeerPutBytes = "pallas_peer_put_bytes_total"
	// MetricPeerTimeouts counts peer ops (get or put) abandoned at the
	// per-op deadline; the op degrades to local, never blocks the analysis.
	MetricPeerTimeouts = "pallas_peer_timeouts_total"
	// MetricPeerBreakerTrips counts per-peer circuit-breaker trips (a peer
	// crossed its consecutive-failure threshold and its ops are skipped
	// until the cooldown probe succeeds).
	MetricPeerBreakerTrips = "pallas_peer_breaker_trips_total"
	// MetricPeerBreakerSkips counts remote ops skipped because the peer's
	// breaker was open.
	MetricPeerBreakerSkips = "pallas_peer_breaker_skips_total"
	// MetricPeerHandoffQueued counts writes owed to an unreachable peer that
	// were queued locally as hints.
	MetricPeerHandoffQueued = "pallas_peer_handoff_queued_total"
	// MetricPeerHandoffDrained counts hints delivered to their peer after it
	// returned.
	MetricPeerHandoffDrained = "pallas_peer_handoff_drained_total"
	// MetricPeerHandoffDropped counts hints dropped because the byte-bounded
	// handoff queue overflowed (oldest-first) or the tier closed before the
	// peer returned; the entry still lives in the writer's local tiers, so a
	// drop costs a future remote miss, never data.
	MetricPeerHandoffDropped = "pallas_peer_handoff_dropped_total"
	// MetricPeerStaleEpochRefusals counts peer ops refused because the
	// sender's ring epoch was older than the receiver's — a zombie peer
	// routing on a stale map, fenced at the receiving edge.
	MetricPeerStaleEpochRefusals = "pallas_peer_stale_epoch_refusals_total"
	// MetricPeerEpoch gauges the tier's current ring epoch, for spotting a
	// worker whose peer map stopped advancing.
	MetricPeerEpoch = "pallas_peer_epoch"
)
