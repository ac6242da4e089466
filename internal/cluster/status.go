package cluster

import (
	"encoding/json"
	"net/http"

	"pallas/internal/metrics"
)

// statusHealth is the coordinator's /healthz payload.
type statusHealth struct {
	Status      string `json:"status"`
	UnitsDone   int    `json:"units_done"`
	UnitsTotal  int    `json:"units_total"`
	WorkersLive int    `json:"workers_live"`
}

// statusVerbose is /healthz?verbose=1: the run counters plus the per-worker
// table — health state and score, in-flight, completions, requeues,
// heartbeat misses and last-beat age for every worker the coordinator has
// seen. There is no per-worker queue depth: pending units wait in the
// coordinator's one run queue.
type statusVerbose struct {
	statusHealth
	Stats   Stats          `json:"stats"`
	Workers []WorkerHealth `json:"workers"`
}

// StatusHandler serves the coordinator's observability endpoints:
// /healthz (with ?verbose=1 for the per-worker table) and /metrics
// (Prometheus exposition from reg).
func StatusHandler(c *Coordinator, reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		table := c.WorkerTable()
		live := 0
		for _, row := range table {
			if row.Live {
				live++
			}
		}
		done, total := c.Progress()
		base := statusHealth{Status: "ok", UnitsDone: done, UnitsTotal: total, WorkersLive: live}
		var body any = base
		if r.URL.Query().Get("verbose") == "1" {
			body = statusVerbose{statusHealth: base, Stats: c.Stats(), Workers: table}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	return mux
}
