package metrics

// Load-shedding metric names: the counters behind the overload.ShedStats
// reasons and RateLimiter.Denied, registered in the registry the admission
// controller and the rate limiter are built on — a server's own.
// MetricShedDraining is also counted by the server's handlers when they
// refuse a request before it reaches the controller.
const (
	MetricShedQueueFull   = "pallas_shed_queue_full_total"
	MetricShedDeadline    = "pallas_shed_deadline_total"
	MetricShedDraining    = "pallas_shed_draining_total"
	MetricShedCanceled    = "pallas_shed_canceled_total"
	MetricShedRateLimited = "pallas_shed_rate_limited_total"
)
