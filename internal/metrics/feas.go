package metrics

// Feasibility-layer metric names. The analyzer (pallas.New) registers these
// in its own registry at every precision tier and counts each analysis's
// pruned paths and contradictions there, memo replays included; a server's
// /metrics renders that registry after its own, so one scrape shows how much
// work the feasibility layer (internal/feas) avoided. Declared here, next to
// the registry, like the incremental and cluster sets.
const (
	// MetricFeasPathsPruned counts path continuations discarded because the
	// branch conditions accumulated along them were mutually contradictory.
	// It is a lower bound on the paths avoided: one discarded edge can hide
	// a whole subtree of enumerations.
	MetricFeasPathsPruned = "pallas_feas_paths_pruned_total"
	// MetricFeasContradictions counts contradictory condition accumulations
	// the feasibility layer detected during path walks.
	MetricFeasContradictions = "pallas_feas_contradictions_total"
)
