package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"pallas"
	"pallas/internal/cluster"
	"pallas/internal/journal"
	"pallas/internal/metrics"
)

// clusterFlags is cluster's flag set. Its engine flags and the server flags
// it forwards are registered from worker, a worker's own flag set, so
// workerArgs forwards exactly the flags the two commands share.
type clusterFlags struct {
	fs      *flag.FlagSet
	report  *reportFlags
	batch   *batchFlags
	worker  *serveFlags
	forward []string // names of the flags registered from worker
	opts    cluster.Options

	clusterWorkers, workerRestarts   int
	workerBinary, statusAddr, pathdb string
	externalWorkers                  []string
}

func newClusterFlags() *clusterFlags {
	c := &clusterFlags{
		fs:     flag.NewFlagSet("cluster", flag.ExitOnError),
		report: newReportFlags(),
		batch:  newBatchFlags(),
		worker: newServeFlags("worker"),
	}
	fs := c.fs
	use(fs, c.report.fs)
	use(fs, c.batch.fs, "journal", "resume", "group-commit")
	c.forward = append(use(fs, c.worker.engine.fs),
		use(fs, c.worker.server.fs, "workers", "cache-dir", "cache-bytes", "cache-replicas", "cache-stats")...)
	fs.IntVar(&c.opts.Retries, "retries", 0, "re-dispatches per unit after transient failures before quarantine (0 = 2)")
	fs.BoolVar(&c.opts.CachePeers, "cache-peers", false, "enable the shared peer cache tier: workers replicate cache entries to each other under a coordinator-pushed, epoch-fenced peer map")
	fs.IntVar(&c.clusterWorkers, "cluster-workers", 3, "worker processes to spawn (ignored when -worker addresses are given)")
	fs.IntVar(&c.opts.Inflight, "inflight", 0, "units dispatched concurrently per worker (0 = 2)")
	fs.DurationVar(&c.opts.HeartbeatInterval, "heartbeat", 0, "worker liveness probe interval (0 = 500ms)")
	fs.IntVar(&c.opts.HeartbeatMisses, "heartbeat-misses", 0, "consecutive missed probes before a worker is evicted (0 = 3)")
	fs.DurationVar(&c.opts.RequestTimeout, "request-timeout", 0, "end-to-end bound on one unit dispatch; a hung worker holds a unit at most this long (0 = 2m)")
	fs.DurationVar(&c.opts.RetryBackoff, "retry-backoff", 0, "base delay before a requeued unit is re-dispatched, doubled per attempt with jitter (0 = 100ms)")
	fs.DurationVar(&c.opts.HedgeAfter, "hedge-after", time.Second, "floor of the hedge threshold: a unit in flight past max(this, p95x3) is speculatively re-dispatched to the next healthy worker (<=0 disables hedging)")
	fs.IntVar(&c.opts.HedgeMax, "hedge-max", 4, "maximum concurrently outstanding hedge dispatches, at least 1 (the speculative-work budget; -hedge-after 0 turns hedging off)")
	fs.IntVar(&c.workerRestarts, "worker-restarts", 2, "restarts per spawned worker after a crash (negative = never restart)")
	fs.StringVar(&c.workerBinary, "worker-binary", "", "executable to spawn workers from (default: this binary)")
	fs.StringVar(&c.statusAddr, "status-addr", "", "serve coordinator /healthz (?verbose=1 adds the per-worker table) and /metrics on this address")
	fs.StringVar(&c.pathdb, "pathdb", "", "write the merged per-unit path database to this JSON file")
	fs.Func("worker", "dispatch to this already-running worker address instead of spawning processes (repeatable)",
		appendTo(&c.externalWorkers))
	return c
}

// workerArgs is the argv of a spawned worker: each forwarded flag set on
// the cluster command line, then an -include-dir per input directory so
// workers resolve the same headers as check.
func (c *clusterFlags) workerArgs(includeDirs []string) []string {
	args := []string{"worker", "-addr", "127.0.0.1:0"}
	c.fs.Visit(func(f *flag.Flag) {
		if slices.Contains(c.forward, f.Name) {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	for _, dir := range includeDirs {
		args = append(args, "-include-dir", dir)
	}
	return args
}

// cmdCluster distributes `check` across worker processes: units wait in one
// run queue that every worker pulls from, are requeued when workers die,
// and are merged in input order so stdout and -pathdb output are
// byte-identical to a single-process `check` at any worker count and under
// any crash schedule. -journal makes the coordinator itself
// crash-recoverable: a killed coordinator rerun with -resume replays
// finished units from the journal instead of re-analyzing them.
func cmdCluster(args []string) error {
	c := newClusterFlags()
	fs := c.fs
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.opts.HedgeMax < 1 {
		fmt.Fprintf(os.Stderr, "pallas: cluster: -hedge-max %d: want at least 1 (-hedge-after 0 turns hedging off)\n", c.opts.HedgeMax)
		return exitCode(2)
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("cluster: want at least one C file")
	}
	batch := c.batch.opts
	if batch.Resume && batch.JournalPath == "" {
		return fmt.Errorf("cluster: -resume requires -journal")
	}
	wcfg, err := c.worker.config()
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	units, includeDirs, readErrs, err := c.report.loadUnits(fs.Args(), wcfg.Analyzer.KeepGoing)
	if err != nil {
		return err
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "pallas: "+format+"\n", a...)
	}
	copts := c.opts
	copts.JournalPath, copts.Resume, copts.GroupCommit = batch.JournalPath, batch.Resume, batch.JournalGroupCommit
	copts.CacheReplicas = wcfg.CacheReplicas
	copts.Logf = logf
	// One registry per process: the coordinator's and the supervisor's
	// counters, rendered by the status server's /metrics.
	reg := metrics.NewRegistry()
	copts.Metrics = reg
	if copts.HedgeAfter <= 0 {
		copts.HedgeAfter = -1 // flag convention: <=0 disables; Options convention: negative disables
	}
	coord, err := cluster.NewCoordinator(copts)
	if err != nil {
		return err
	}

	if c.statusAddr != "" {
		sln, err := net.Listen("tcp", c.statusAddr)
		if err != nil {
			return err
		}
		defer sln.Close()
		go http.Serve(sln, cluster.StatusHandler(coord, reg))
		logf("cluster: status on http://%s", sln.Addr())
	}

	if len(c.externalWorkers) > 0 {
		for _, addr := range c.externalWorkers {
			coord.AddWorker(addr)
		}
	} else {
		bin := c.workerBinary
		if bin == "" {
			bin, err = os.Executable()
			if err != nil {
				return fmt.Errorf("cluster: cannot locate worker binary: %w", err)
			}
		}
		sup := cluster.NewSupervisor(cluster.SupervisorOptions{
			Binary: bin,
			Args:   c.workerArgs(includeDirs),
			Env:    os.Environ(),
			// Restarted workers must not re-inherit injected faults: a
			// crash-armed worker would otherwise crash-loop through its
			// restart budget without ever finishing a unit.
			RestartEnv:  envWithout(os.Environ(), "PALLAS_FAILPOINTS"),
			MaxRestarts: c.workerRestarts,
			OnUp:        coord.AddWorker,
			OnDown:      coord.RemoveWorker,
			OnExhausted: func(slot int, err error) {
				logf("cluster: worker slot %d exhausted its restart budget (%v); it will not return", slot, err)
			},
			Stderr:  os.Stderr,
			Metrics: reg,
			Logf:    logf,
		})
		sup.Start(c.clusterWorkers)
		defer sup.Stop()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	outcomes, stats, err := coord.Run(ctx, units)
	if err != nil {
		return err
	}

	results := make([]pallas.UnitResult, len(outcomes))
	for i, o := range outcomes {
		results[i] = unitResultFromOutcome(o)
	}
	exit, err := c.report.report(results, readErrs, fs.NArg() > 1)
	if err != nil {
		return err
	}

	if c.pathdb != "" {
		b, err := cluster.WriteMergedPaths(outcomes)
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.pathdb, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pallas: cluster: merged path database written to %s\n", c.pathdb)
	}

	fmt.Fprintf(os.Stderr,
		"pallas: cluster: %d unit(s): %d completed, %d resumed, %d failed, %d quarantined; %d requeue(s), %d eviction(s), %d duplicate(s) suppressed, %d cache hit(s)\n",
		stats.Units, stats.Completed, stats.Skipped, stats.Failed, stats.Quarantined,
		stats.Requeues, stats.Evictions, stats.DupCompletions, stats.CacheHits)
	if stats.Hedges+stats.StaleCompletions+stats.IntegrityFailures+stats.Probations > 0 {
		fmt.Fprintf(os.Stderr,
			"pallas: cluster: gray-failure defenses: %d hedge(s) (%d won), %d stale completion(s) fenced, %d integrity failure(s), %d probation(s)\n",
			stats.Hedges, stats.HedgeWins, stats.StaleCompletions, stats.IntegrityFailures, stats.Probations)
	}
	// PALLAS_STATS_OUT dumps the full run stats (counters and latency
	// quantiles) as JSON for benchmarks and e2e assertions — a machine
	// channel, so the human stderr lines above stay free to evolve.
	if statsOut := os.Getenv("PALLAS_STATS_OUT"); statsOut != "" {
		if b, jerr := json.MarshalIndent(stats, "", "  "); jerr == nil {
			if werr := os.WriteFile(statsOut, append(b, '\n'), 0o644); werr != nil {
				logf("cluster: stats out: %v", werr)
			}
		}
	}
	printJournalRecovery(batch.JournalPath, stats.JournalTornTail, stats.JournalQuarantined)
	return exitStatus(exit)
}

// unitResultFromOutcome rebuilds the UnitResult `check` would have produced
// for this unit, so printUnitResults renders identical bytes. Mirrors
// batch.go's replayRecord reconstruction from journal records.
func unitResultFromOutcome(o cluster.Outcome) pallas.UnitResult {
	out := pallas.UnitResult{
		Unit:        o.Unit,
		Diagnostics: o.Diagnostics,
		Attempts:    o.Attempts,
		Skipped:     o.Skipped,
		Quarantined: o.Status == journal.StatusQuarantined,
		Cached:      o.CacheHit,
	}
	if len(o.Report) > 0 {
		var rep pallas.Report
		if json.Unmarshal(o.Report, &rep) == nil {
			out.Result = &pallas.Result{Report: &rep, Diagnostics: o.Diagnostics}
		}
	}
	if o.Err != "" {
		out.Err = errors.New(o.Err)
	}
	return out
}

// envWithout returns env minus any KEY=... entries for key.
func envWithout(env []string, key string) []string {
	out := make([]string, 0, len(env))
	prefix := key + "="
	for _, kv := range env {
		if !strings.HasPrefix(kv, prefix) {
			out = append(out, kv)
		}
	}
	return out
}
