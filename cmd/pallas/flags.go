package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pallas"
	"pallas/internal/feas"
	"pallas/internal/server"
)

// Each config layer declares its flags once, on a flag set of its own
// bound to the config it fills. A command registers the layers it uses
// (or some of a layer's flags) on its own flag set with use; the
// registered flags stay bound to the layer, so every command reads the
// same fields. cluster registers the worker's own layers, which is how it
// knows which of its flags to forward to the workers it spawns.

// use registers on fs the flags of layer named in names, or all of them
// when names is empty, and returns the names it registered.
func use(fs, layer *flag.FlagSet, names ...string) []string {
	var used []string
	layer.VisitAll(func(f *flag.Flag) {
		if len(names) == 0 || slices.Contains(names, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
			used = append(used, f.Name)
		}
	})
	return used
}

// appendTo is the setter of a repeatable flag collecting into list.
func appendTo(list *[]string) func(string) error {
	return func(v string) error {
		*list = append(*list, v)
		return nil
	}
}

// engineFlags is the analyzer-engine layer of check, serve, worker and
// cluster, bound to pallas.Config.
type engineFlags struct {
	fs        *flag.FlagSet
	cfg       pallas.Config
	checker   string
	incrDir   string
	incrBytes int64
}

func newEngineFlags() *engineFlags {
	e := &engineFlags{fs: flag.NewFlagSet("engine", flag.ContinueOnError)}
	e.fs.StringVar(&e.checker, "checker", "", "run only the named checker")
	e.fs.StringVar(&e.cfg.Precision, "precision", "", "feasibility tier: fast (default; every structural path), balanced (prune interval-contradictory paths), strict (balanced plus budgeted cross-condition equality reasoning); tiers never share cache entries")
	e.fs.DurationVar(&e.cfg.Deadline, "timeout", 0, "analysis deadline per file, or per request covering admission wait and analysis; expiry degrades, not fails (0 = none)")
	e.fs.BoolVar(&e.cfg.KeepGoing, "keep-going", false, "keep analyzing past malformed input, reporting per-file diagnostics")
	e.fs.IntVar(&e.cfg.AnalysisWorkers, "analysis-workers", 0, "goroutines per file for per-function extraction and checkers (<=1 = serial; output is identical at any setting)")
	e.fs.StringVar(&e.incrDir, "incr-dir", "", "turn on the function-level incremental memo and set -cache-dir: unchanged functions replay memoized paths from the result cache, only edited functions and their transitive callers are re-analyzed (output stays byte-identical)")
	e.fs.Int64Var(&e.incrBytes, "incr-bytes", 0, "turn on the function-level incremental memo and set -cache-bytes")
	return e
}

// config validates the parsed engine flags and returns the analyzer
// configuration they select. The memo keeps its records in the result
// cache, so -incr-dir and -incr-bytes are aliases: each turns the memo on
// and sets the cache flag it stands for, *dir or *bytes. An alias given a
// value other than its cache flag's is a usage error.
func (e *engineFlags) config(dir *string, bytes *int64) (pallas.Config, error) {
	cfg := e.cfg
	if _, err := feas.ParseTier(cfg.Precision); err != nil {
		return cfg, err
	}
	if e.checker != "" {
		cfg.Checkers = []string{e.checker}
	}
	if e.incrDir != "" {
		if *dir != "" && *dir != e.incrDir {
			return cfg, fmt.Errorf("-incr-dir %q differs from -cache-dir %q (it is an alias)", e.incrDir, *dir)
		}
		*dir = e.incrDir
	}
	if e.incrBytes > 0 {
		if *bytes > 0 && *bytes != e.incrBytes {
			return cfg, fmt.Errorf("-incr-bytes %d differs from -cache-bytes %d (it is an alias)", e.incrBytes, *bytes)
		}
		*bytes = e.incrBytes
	}
	if e.incrDir != "" || e.incrBytes > 0 {
		cfg.Incremental = &pallas.IncrementalOptions{MaxBytes: *bytes}
	}
	return cfg, nil
}

// serverFlags is the serving layer of serve and worker, bound to
// server.Config. check registers its cache flags, cluster the flags it
// passes to its workers.
type serverFlags struct {
	fs           *flag.FlagSet
	cfg          server.Config // -include-dir fills cfg.Analyzer.IncludeDirs
	cacheStats   bool
	drainTimeout time.Duration
}

func newServerFlags() *serverFlags {
	s := &serverFlags{fs: flag.NewFlagSet("server", flag.ContinueOnError)}
	fs := s.fs
	fs.IntVar(&s.cfg.Workers, "workers", 0, "concurrent analyses per process (0 = GOMAXPROCS); ceiling of the adaptive limit")
	fs.IntVar(&s.cfg.MinWorkers, "min-workers", 0, "adaptive concurrency floor under sustained latency inflation (0 = 1; equal to -workers disables adaptation)")
	fs.IntVar(&s.cfg.MaxQueue, "max-queue", 0, "admission queue bound; beyond it requests are shed with 503 (0 = 256, negative = no queueing)")
	fs.Float64Var(&s.cfg.RatePerClient, "rate", 0, "per-client request rate limit in req/s, keyed by X-Pallas-Client or remote host (0 = unlimited)")
	fs.Float64Var(&s.cfg.RateBurst, "rate-burst", 0, "per-client burst size (0 = the rate)")
	fs.Float64Var(&s.cfg.GlobalRate, "global-rate", 0, "server-wide request rate limit in req/s (0 = unlimited)")
	fs.Float64Var(&s.cfg.GlobalBurst, "global-burst", 0, "server-wide burst size (0 = the rate)")
	fs.IntVar(&s.cfg.BreakerThreshold, "breaker-threshold", 0, "consecutive cache disk faults before tripping to memory-only mode (0 = 5, negative disables)")
	fs.DurationVar(&s.cfg.BreakerCooldown, "breaker-cooldown", 0, "how long a tripped cache tier stays memory-only before probing recovery (0 = 5s)")
	fs.StringVar(&s.cfg.CacheDir, "cache-dir", "", "persistent result-cache directory, shared by check, serve and cluster workers; unchanged files replay from it, and the memo (-incr-dir) keeps its records in it")
	fs.Int64Var(&s.cfg.CacheBytes, "cache-bytes", 0, "result-cache budget in bytes, per process: bounds the memory tier and the -cache-dir directory, memo records included (0 = default 64MiB)")
	fs.IntVar(&s.cfg.CacheReplicas, "cache-replicas", 0, "shared-cache-tier replication factor (0 = 2)")
	fs.BoolVar(&s.cacheStats, "cache-stats", false, "print unit-cache, function-memo, feasibility and (serve, worker) peer-tier summaries to stderr at exit; cluster passes it to its workers")
	fs.DurationVar(&s.drainTimeout, "drain-timeout", 30*time.Second, "maximum time to wait for in-flight requests on shutdown")
	fs.Func("cache-peers", "peer cache endpoint host:port forming a static shared cache tier (repeatable; this server's own -addr may be listed or not; in cluster mode the coordinator pushes the map instead)",
		appendTo(&s.cfg.CachePeers))
	fs.Func("include-dir", "serve #include files from this directory (repeatable; match check inputs' directories to share cache entries)",
		appendTo(&s.cfg.Analyzer.IncludeDirs))
	return s
}

// serveFlags is the one flag set of serve and worker.
type serveFlags struct {
	fs     *flag.FlagSet
	addr   string
	engine *engineFlags
	server *serverFlags
}

// newServeFlags returns the flag set of cmd, "serve" or "worker"; they
// differ only in the default listen address.
func newServeFlags(cmd string) *serveFlags {
	f := &serveFlags{fs: flag.NewFlagSet(cmd, flag.ExitOnError), engine: newEngineFlags(), server: newServerFlags()}
	addr := "127.0.0.1:7777"
	if cmd == "worker" {
		addr = "127.0.0.1:0"
	}
	f.fs.StringVar(&f.addr, "addr", addr, "listen address (port 0 picks an ephemeral port; a worker announces the bound address on stderr)")
	use(f.fs, f.engine.fs)
	use(f.fs, f.server.fs)
	return f
}

// config validates the parsed flags and returns the server configuration.
func (f *serveFlags) config() (server.Config, error) {
	cfg := f.server.cfg
	acfg, err := f.engine.config(&cfg.CacheDir, &cfg.CacheBytes)
	if err != nil {
		return server.Config{}, err
	}
	acfg.IncludeDirs = cfg.Analyzer.IncludeDirs
	cfg.Analyzer = acfg
	return cfg, nil
}

// batchFlags is check's batch layer, bound to pallas.BatchOptions; cluster
// registers its journal flags.
type batchFlags struct {
	fs   *flag.FlagSet
	opts pallas.BatchOptions
}

func newBatchFlags() *batchFlags {
	b := &batchFlags{fs: flag.NewFlagSet("batch", flag.ContinueOnError)}
	b.fs.IntVar(&b.opts.Workers, "workers", 0, "parallel workers for multiple files (0 = GOMAXPROCS)")
	b.fs.IntVar(&b.opts.MinWorkers, "min-workers", 0, "self-pace: shrink parallelism toward this floor when per-file latency inflates (0 = fixed width)")
	b.fs.IntVar(&b.opts.Retries, "retries", 0, "retry transient per-file failures up to n times with exponential backoff")
	b.fs.StringVar(&b.opts.JournalPath, "journal", "", "checkpoint per-file outcomes to this append-only journal (JSONL)")
	b.fs.BoolVar(&b.opts.Resume, "resume", false, "skip files whose content hash already has a terminal journal entry (requires -journal)")
	b.fs.BoolVar(&b.opts.JournalGroupCommit, "group-commit", false, "batch journal fsyncs (higher throughput, same durability)")
	return b
}

// reportFlags is the input and output layer of check and cluster.
type reportFlags struct {
	fs      *flag.FlagSet
	spec    string
	asJSON  bool
	htmlOut string
}

func newReportFlags() *reportFlags {
	r := &reportFlags{fs: flag.NewFlagSet("report", flag.ContinueOnError)}
	r.fs.StringVar(&r.spec, "spec", "", "spec file with semantic directives")
	r.fs.BoolVar(&r.asJSON, "json", false, "emit JSON")
	r.fs.StringVar(&r.htmlOut, "html", "", "additionally write an HTML report to this file")
	return r
}

// loadUnits reads the input files, each with the -spec directives. Every
// input's directory serves includes, replacing the per-file default of
// AnalyzeFile. With keepGoing an unreadable file is returned in readErrs
// instead of failing the run.
func (r *reportFlags) loadUnits(paths []string, keepGoing bool) (units []pallas.Unit, includeDirs []string, readErrs []error, err error) {
	specText := ""
	if r.spec != "" {
		b, err := os.ReadFile(r.spec)
		if err != nil {
			return nil, nil, nil, err
		}
		specText = string(b)
	}
	for _, path := range paths {
		if dir := filepath.Dir(path); !slices.Contains(includeDirs, dir) {
			includeDirs = append(includeDirs, dir)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			if !keepGoing {
				return nil, nil, nil, err
			}
			readErrs = append(readErrs, fmt.Errorf("%s: %v", path, err))
			continue
		}
		units = append(units, pallas.Unit{Name: filepath.Base(path), Source: string(b), Spec: specText})
	}
	return units, includeDirs, readErrs, nil
}
