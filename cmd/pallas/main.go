// Command pallas is the command-line front door to the Pallas toolkit.
//
// Usage:
//
//	pallas check    [-spec file] [-checker name] [-json] file.c
//	pallas paths    -func name [-db out.json] file.c
//	pallas workflow -func name file.c
//	pallas diff     -fast f -slow g file.c
//	pallas infer    -fast f -slow g file.c
//	pallas corpus   [-system SYS] [-show id]
//
// check runs the five semantic checkers over a C file (spec directives may
// come from -spec and/or inline `// @pallas:` annotations). paths prints the
// Table-5-style symbolic execution paths of one function. workflow renders
// the Figure-1-style ASCII workflow. diff compares a fast path against its
// slow path (the study's code-comparison tool). infer proposes spec
// directives for a fast/slow pair. corpus browses the built-in
// synthetic evaluation corpus.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pallas"
	"pallas/internal/cfg"
	"pallas/internal/corpus"
	"pallas/internal/failpoint"
	"pallas/internal/feas"
	"pallas/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Deterministic fault injection for crash testing (PALLAS_FAILPOINTS);
	// inert and zero-cost when the variable is unset.
	if err := failpoint.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "pallas:", err)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "paths":
		err = cmdPaths(os.Args[2:])
	case "workflow":
		err = cmdWorkflow(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "infer":
		err = cmdInfer(os.Args[2:])
	case "serve", "worker":
		err = cmdServe(os.Args[1], os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "pallas: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	var code exitCode
	if errors.As(err, &code) {
		os.Exit(int(code))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pallas:", err)
		os.Exit(1)
	}
}

// exitCode is the error of a command that ran to completion with a
// non-zero exit status. Returning it instead of calling os.Exit lets the
// command's deferred cleanup (cluster stops its workers) run first.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

// exitStatus is nil for code 0 and exitCode(code) otherwise.
func exitStatus(code int) error {
	if code == 0 {
		return nil
	}
	return exitCode(code)
}

func usage() {
	fmt.Fprint(os.Stderr, `pallas — semantic-aware checking for fast-path bugs (ASPLOS'17)

commands:
  check    [-spec file] [-checker name] [-json] [-html out]
           [-precision fast|balanced|strict]
           [-timeout d] [-keep-going] [-workers n] [-analysis-workers n]
           [-journal file] [-resume] [-retries n] [-group-commit]
           [-cache-dir dir] [-cache-bytes n]
           [-incr-dir dir] [-incr-bytes n] [-cache-stats]
           file.c...                                          run the checkers
           (exit: 0 clean, 1 warnings, 2 degraded, 3 fatal;
            -journal checkpoints per-file outcomes, -resume skips files the
            journal already settled, -retries retries transient failures,
            -cache-dir replays unchanged files from the result cache, whose
            memory and disk -cache-bytes bounds; -incr-dir and -incr-bytes
            are aliases of -cache-dir and -cache-bytes that also turn on the
            per-function memo in that cache, which replays unchanged
            *functions* — only edited functions and their transitive callers
            are re-analyzed — and -cache-stats prints hit/miss/reuse counts;
            -precision selects the feasibility tier: fast explores every
            structural path, balanced prunes interval-contradictory paths,
            strict adds budgeted cross-condition equality reasoning)
  serve    [-addr host:port] [-checker name] [-precision fast|balanced|strict]
           [-timeout d] [-keep-going] [-analysis-workers n]
           [-incr-dir dir] [-incr-bytes n] [-include-dir dir]
           [-workers n] [-max-queue n]
           [-rate r] [-rate-burst n] [-global-rate r] [-global-burst n]
           [-breaker-threshold n] [-breaker-cooldown d]
           [-cache-dir dir] [-cache-bytes n] [-cache-peers host:port]
           [-cache-replicas n] [-cache-stats] [-drain-timeout d]
                                                      run the HTTP service
           (POST /v1/analyze, GET /v1/report/{key}, /healthz, /metrics;
            SIGTERM drains in-flight requests and exits 0; -cache-peers
            joins a shared cache tier — misses are served by peer replicas,
            verified end to end, degrading to local on any peer fault)
  cluster  [-spec file] [-checker name] [-json] [-html out]
           [-precision fast|balanced|strict] [-timeout d] [-keep-going]
           [-workers n] [-analysis-workers n]
           [-journal file] [-resume] [-retries n] [-group-commit]
           [-cache-dir dir] [-cache-bytes n] [-incr-dir dir] [-incr-bytes n]
           [-cache-peers] [-cache-replicas n] [-cache-stats]
           [-cluster-workers n] [-worker addr] [-worker-binary path]
           [-worker-restarts n] [-inflight n] [-heartbeat d]
           [-heartbeat-misses n] [-request-timeout d] [-retry-backoff d]
           [-hedge-after d] [-hedge-max n] [-pathdb out.json]
           [-status-addr host:port] file.c...      distribute check across
           worker processes with crash recovery; stdout and -pathdb output
           are byte-identical to a single-process check at any worker
           count and under any crash schedule; -cache-peers makes worker
           caches one replicated tier under a coordinator-pushed peer map
  worker   [serve flags]                          run one cluster worker
           (-addr defaults to 127.0.0.1:0; prints
            "pallas: worker listening on ADDR" to stderr when bound)
  paths    -func name [-db out.json] file.c              print symbolic paths
  workflow -func name [-dot] file.c                      render the workflow
  diff     -fast f -slow g file.c                        compare fast vs slow
  infer    -fast f -slow g file.c                        propose spec directives
  corpus   [-system SYS] [-show id] [-export dir]        browse/export the corpus
`)
}

// cmdCheck analyzes the given files on a bounded worker pool and exits with
// the worst per-file outcome: 0 clean, 1 warnings found, 2 analysis degraded
// (deadline hit, malformed input under -keep-going, crashed stage), 3 fatal.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	rep, eng, batch, srv := newReportFlags(), newEngineFlags(), newBatchFlags(), newServerFlags()
	use(fs, rep.fs)
	use(fs, eng.fs)
	use(fs, batch.fs)
	use(fs, srv.fs, "cache-dir", "cache-bytes", "cache-stats")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("check: want at least one C file")
	}
	cfg, err := eng.config(&srv.cfg.CacheDir, &srv.cfg.CacheBytes)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	units, includeDirs, readErrs, err := rep.loadUnits(fs.Args(), cfg.KeepGoing)
	if err != nil {
		return err
	}
	cfg.IncludeDirs = includeDirs
	analyzer := pallas.New(cfg)
	opts := batch.opts
	opts.CacheDir, opts.CacheBytes = srv.cfg.CacheDir, srv.cfg.CacheBytes
	results, stats, err := analyzer.AnalyzeBatch(units, opts)
	if err != nil {
		return err
	}
	exit, err := rep.report(results, readErrs, fs.NArg() > 1)
	if err != nil {
		return err
	}
	if opts.JournalPath != "" {
		fmt.Fprintf(os.Stderr,
			"pallas: journal %s: %d analyzed, %d resumed, %d retried, %d quarantined\n",
			opts.JournalPath, stats.Analyzed, stats.Skipped, stats.Retried, stats.Quarantined)
		printJournalRecovery(opts.JournalPath, stats.JournalTornTail, stats.JournalQuarantined)
	}
	if opts.CacheDir != "" {
		fmt.Fprintf(os.Stderr, "pallas: cache %s: %d hit(s), %d miss(es)\n",
			opts.CacheDir, stats.Cache.Hits, stats.Cache.Misses)
	}
	if srv.cacheStats {
		printUnitStats(os.Stderr, checkSnapshot(analyzer, stats, cfg.Precision), true)
	}
	return exitStatus(exit)
}

// checkSnapshot is check's -cache-stats snapshot, in the form serve takes
// from Server.Snapshot: the batch's result cache, and the analyzer's memo
// and feasibility counters. check analyzes a cache miss itself rather than
// through the cache's GetOrCompute, so its computes are the units it
// analyzed.
func checkSnapshot(a *pallas.Analyzer, stats pallas.BatchStats, precision string) server.Health {
	snap := server.Health{Cache: stats.Cache}
	snap.Cache.Computes = int64(stats.Analyzed)
	if st, ok := a.IncrStats(); ok {
		snap.Incr = &st
	}
	if tier, _ := feas.ParseTier(precision); tier != feas.Fast {
		st := a.FeasStats()
		snap.Precision, snap.Feas = tier.String(), &st
	}
	return snap
}

// printJournalRecovery reports what opening the journal at path repaired.
func printJournalRecovery(path string, tornTail bool, quarantined int) {
	if tornTail {
		fmt.Fprintln(os.Stderr, "pallas: journal: recovered from a torn tail (crashed mid-checkpoint)")
	}
	if quarantined > 0 {
		fmt.Fprintf(os.Stderr, "pallas: journal: quarantined %d corrupt record(s) to %s.quarantine\n",
			quarantined, path)
	}
}

// report prints the unreadable inputs and then the batch results the way
// check always has — reports to stdout, diagnostics and resume notices to
// stderr — and returns the worst exit code (0 clean, 1 warnings, 2
// degraded, 3 fatal). cluster shares it so distributed runs produce
// byte-identical stdout. multi (several inputs) gives HTML files a
// per-unit suffix.
func (r *reportFlags) report(results []pallas.UnitResult, readErrs []error, multi bool) (int, error) {
	exit := 0
	raise := func(code int) {
		if code > exit {
			exit = code
		}
	}
	for _, err := range readErrs {
		fmt.Fprintf(os.Stderr, "pallas: %v\n", err)
		raise(3)
	}
	for _, res := range results {
		if res.Skipped {
			// Keep stdout identical to an uninterrupted run; the resume
			// notice goes to stderr only.
			fmt.Fprintf(os.Stderr, "pallas: %s: resumed from journal\n", res.Unit)
		}
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "pallas: %s: %v\n", res.Unit, res.Err)
			for _, d := range res.Diagnostics {
				fmt.Fprintln(os.Stderr, "pallas: "+d.String())
			}
			if res.Quarantined {
				fmt.Fprintf(os.Stderr, "pallas: %s: quarantined after %d attempt(s)\n", res.Unit, max(res.Attempts, 1))
			}
			raise(3)
			continue
		}
		result := res.Result
		if len(result.Report.Warnings) > 0 && !r.asJSON {
			raise(1)
		}
		if result.Degraded() {
			raise(2)
			for _, d := range result.Diagnostics {
				fmt.Fprintln(os.Stderr, "pallas: "+d.String())
			}
		}
		if r.htmlOut != "" {
			out := r.htmlOut
			if multi {
				out = strings.TrimSuffix(out, ".html") + "-" + sanitize(res.Unit) + ".html"
			}
			if err := writeHTMLReport(result, out); err != nil {
				return exit, err
			}
		}
		if r.asJSON {
			if err := result.Report.WriteJSON(os.Stdout); err != nil {
				return exit, err
			}
			continue
		}
		if err := result.Report.WriteText(os.Stdout); err != nil {
			return exit, err
		}
		fmt.Println()
		fmt.Print(result.Report.Summary())
	}
	return exit, nil
}

func writeHTMLReport(res *pallas.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Report.WriteHTML(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitize maps a file name into a safe HTML-suffix fragment.
func sanitize(name string) string {
	var sb strings.Builder
	for _, r := range name {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func cmdPaths(args []string) error {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	fn := fs.String("func", "", "function to extract")
	dbOut := fs.String("db", "", "write the path database to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fn == "" {
		return fmt.Errorf("paths: want -func name and one C file")
	}
	res, err := pallas.New(pallas.Config{}).AnalyzeFile(fs.Arg(0), "fastpath "+*fn+"\n")
	if err != nil {
		return err
	}
	fp := res.Paths.FuncPaths(*fn)
	if fp == nil {
		return fmt.Errorf("paths: no function %q", *fn)
	}
	fmt.Printf("%d path(s) of %s", len(fp.Paths), fp.Signature)
	if fp.Truncated {
		fmt.Print(" (truncated)")
	}
	fmt.Println()
	for _, p := range fp.Paths {
		fmt.Print(p)
	}
	if *dbOut != "" {
		if err := res.Paths.Save(*dbOut); err != nil {
			return err
		}
		fmt.Printf("path database written to %s\n", *dbOut)
	}
	return nil
}

func cmdWorkflow(args []string) error {
	fs := flag.NewFlagSet("workflow", flag.ExitOnError)
	fn := fs.String("func", "", "function to render")
	dot := fs.Bool("dot", false, "emit Graphviz dot instead of ASCII")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fn == "" {
		return fmt.Errorf("workflow: want -func name and one C file")
	}
	res, err := pallas.New(pallas.Config{}).AnalyzeFile(fs.Arg(0), "")
	if err != nil {
		return err
	}
	f := res.TU().Func(*fn)
	if f == nil {
		return fmt.Errorf("workflow: no function %q", *fn)
	}
	g, err := cfg.Build(f)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(g.Dot())
	} else {
		fmt.Print(cfg.RenderWorkflow(g))
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fast := fs.String("fast", "", "fast-path function")
	slow := fs.String("slow", "", "slow-path function")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fast == "" || *slow == "" {
		return fmt.Errorf("diff: want -fast f -slow g and one C file")
	}
	res, err := pallas.New(pallas.Config{}).AnalyzeFile(fs.Arg(0), "")
	if err != nil {
		return err
	}
	d, err := res.ComparePaths(*fast, *slow)
	if err != nil {
		return err
	}
	fmt.Print(d.String())
	return nil
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	fast := fs.String("fast", "", "fast-path function")
	slow := fs.String("slow", "", "slow-path function")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fast == "" || *slow == "" {
		return fmt.Errorf("infer: want -fast f -slow g and one C file")
	}
	res, err := pallas.New(pallas.Config{}).AnalyzeFile(fs.Arg(0), "")
	if err != nil {
		return err
	}
	sugg, err := res.InferSpec(*fast, *slow)
	if err != nil {
		return err
	}
	fmt.Printf("# %d suggested directive(s); review before use\n", len(sugg))
	for _, s := range sugg {
		fmt.Printf("%-50s # %.0f%% — %s\n", s.Directive, s.Confidence*100, s.Reason)
	}
	return nil
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	system := fs.String("system", "", "filter by system (MM FS NET DEV WB SDN MOB)")
	show := fs.String("show", "", "print one case (source + spec) by id")
	export := fs.String("export", "", "write every case as <dir>/<id>.c + .pls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := corpus.Generate()
	if *export != "" {
		n, err := exportCorpus(reg, *export, *system)
		if err != nil {
			return err
		}
		fmt.Printf("exported %d case(s) to %s\n", n, *export)
		return nil
	}
	if *show != "" {
		c := reg.Get(*show)
		if c == nil {
			return fmt.Errorf("corpus: no case %q", *show)
		}
		fmt.Printf("case %s  [%s, %s, %s]\n", c.ID, c.System, c.Kind, c.Finding)
		fmt.Printf("file: %s\noperation: %s\nconsequence: %s\n", c.File, c.Operation, c.Consequence)
		fmt.Println("--- spec ---")
		fmt.Print(c.Spec)
		fmt.Println("--- source ---")
		fmt.Print(c.Source)
		return nil
	}
	for _, c := range reg.Cases {
		if *system != "" && !strings.EqualFold(string(c.System), *system) {
			continue
		}
		fmt.Printf("%-36s %-4s %-5s %s\n", c.ID, c.System, c.Kind, c.Finding)
	}
	return nil
}

// exportCorpus writes each case's source and spec under dir, one pair of
// files per case (slashes in IDs become directories).
func exportCorpus(reg *corpus.Registry, dir, system string) (int, error) {
	n := 0
	for _, c := range reg.Cases {
		if system != "" && !strings.EqualFold(string(c.System), system) {
			continue
		}
		base := filepath.Join(dir, filepath.FromSlash(c.ID))
		if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
			return n, err
		}
		if err := os.WriteFile(base+".c", []byte(c.Source), 0o644); err != nil {
			return n, err
		}
		if err := os.WriteFile(base+".pls", []byte(c.Spec), 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
