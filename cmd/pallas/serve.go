package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"pallas/internal/cluster"
	"pallas/internal/metrics"
	"pallas/internal/server"
)

// cmdServe runs `serve` or `worker` (cmd): the long-lived analysis service,
// an HTTP/JSON API over the same engine as `check`, fronted by the
// content-addressed result cache and a Prometheus /metrics endpoint. A
// worker is the same server run by `cluster`: it usually binds an
// ephemeral port, advertises the bound address to the cache tier and
// announces it on stderr as "pallas: worker listening on ADDR" so the
// supervisor can find it; the cluster dispatch endpoint (/v1/cluster/unit)
// shares its result cache and admission control with plain serve
// traffic. SIGTERM/SIGINT starts a graceful drain — /healthz flips to 503,
// new analyze requests are refused, in-flight ones finish — and the
// process exits 0.
func cmdServe(cmd string, args []string) error {
	f := newServeFlags(cmd)
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.fs.NArg() != 0 {
		return fmt.Errorf("%s: unexpected arguments %v", cmd, f.fs.Args())
	}
	cfg, err := f.config()
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	worker := cmd == "worker"
	if !worker {
		cfg.CacheSelf = f.addr
	}
	cfg.Metrics = metrics.NewRegistry() // the process's one server registry
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	// Drain on SIGTERM/SIGINT: stop advertising readiness, refuse new
	// analyses, let http.Server.Shutdown hold the listener open for
	// in-flight requests, then exit 0. SIGKILL (the chaos harness) of
	// course skips all of this — that is the point of the crash tests.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	drained := make(chan error, 1)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "pallas: %s: %v received, draining (in-flight: %d)\n",
			cmd, sig, srv.InFlight())
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), f.server.drainTimeout)
		defer cancel()
		drained <- hs.Shutdown(ctx)
	}()

	if worker {
		bound := ln.Addr().String()
		srv.SetAdvertiseAddr(bound)
		// The supervisor parses this exact line for the ephemeral port.
		fmt.Fprintln(os.Stderr, cluster.ListenPrefix+bound)
	} else {
		fmt.Fprintf(os.Stderr, "pallas: serving on http://%s (cache dir %q)\n", f.addr, cfg.CacheDir)
	}
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-drained; err != nil {
		return fmt.Errorf("%s: drain incomplete: %w", cmd, err)
	}
	snap := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "pallas: %s: drained cleanly (%d analyses, %d cache hits)\n",
		cmd, snap.Cache.Computes, snap.Cache.Hits)
	if f.server.cacheStats {
		printCacheStats(os.Stderr, snap)
	}
	srv.Close()
	return nil
}

// printCacheStats renders the serve/worker -cache-stats exit dump from the
// server's snapshot — the one /healthz?verbose=1 encodes as JSON: the lines
// check prints too (printUnitStats), then the shared peer tier.
func printCacheStats(w io.Writer, snap server.Health) {
	printUnitStats(w, snap, false)
	ps := snap.PeerCache
	if ps == nil {
		fmt.Fprintln(w, "pallas: peer cache: off (enable with -cache-peers or cluster mode)")
		return
	}
	fmt.Fprintf(w, "pallas: peer cache: epoch %d, %d peer(s): %d hit(s), %d miss(es), %d rot refusal(s), %d read repair(s), %d timeout(s)\n",
		ps.Epoch, ps.Peers, ps.Hits, ps.Misses, ps.RotRefusals, ps.Repairs, ps.Timeouts)
	fmt.Fprintf(w, "pallas: peer cache: %d put(s) (%d bytes replicated); handoff %d queued, %d drained, %d dropped, %d pending; %d breaker trip(s), %d stale-epoch refusal(s)\n",
		ps.Puts, ps.PutBytes, ps.HandoffQueued, ps.HandoffDrained, ps.HandoffDropped, ps.HandoffPending, ps.BreakerTrips, ps.StaleRefusals)
}

// printUnitStats writes the unit-cache, function-memo and feasibility lines
// of a -cache-stats dump from one snapshot: a server's, or check's
// (checkSnapshot). withReuse appends the memo's reuse percentage, which
// only check reports.
func printUnitStats(w io.Writer, snap server.Health, withReuse bool) {
	cs := snap.Cache
	fmt.Fprintf(w, "pallas: unit cache: %d hit(s) (%d mem, %d disk), %d miss(es), %d compute(s), %d disk-full prune(s)\n",
		cs.Hits, cs.MemHits, cs.DiskHits, cs.Misses, cs.Computes, cs.DiskFullPrunes)
	if is := snap.Incr; is == nil {
		fmt.Fprintln(w, "pallas: func memo: off (enable with -incr-dir)")
	} else {
		fmt.Fprintf(w, "pallas: func memo: %d hit(s), %d miss(es), %d invalidation(s); unit verdicts: %d hit(s), %d miss(es)",
			is.FuncHits, is.FuncMisses, is.FuncInvalidations, is.UnitHits, is.UnitMisses)
		if withReuse {
			total := is.FuncHits + is.FuncMisses + is.UnitHits + is.UnitMisses
			reuse := int64(0)
			if total > 0 {
				reuse = (is.FuncHits + is.UnitHits) * 100 / total
			}
			fmt.Fprintf(w, "; reuse %d%%", reuse)
		}
		fmt.Fprintln(w)
	}
	if fst := snap.Feas; fst != nil {
		fmt.Fprintf(w, "pallas: feas (%s): %d path(s) pruned, %d contradiction(s)\n",
			snap.Precision, fst.Pruned, fst.Contradictions)
	} else {
		fmt.Fprintln(w, "pallas: feas: off (fast tier; enable with -precision balanced|strict)")
	}
}
